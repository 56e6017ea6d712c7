// The original-style OpenCL host program (paper §II/III, Tables I–VI left
// columns): explicit platform/device query, context and command-queue
// creation, clCreateBuffer memory objects, program build from OpenCL C
// source, clSetKernelArg marshaling (with size-only local-memory args),
// clEnqueueNDRangeKernel with a runtime-chosen work-group size (lws = NULL),
// explicit clEnqueue{Read,Write}Buffer transfers, and manual clRelease*.
#include <algorithm>
#include <cstring>

#include "core/kernels_swar.hpp"
#include "core/pipeline.hpp"
#include "oclsim/cl.hpp"
#include "oclsim/cl_objects.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace cof {

// ---------------------------------------------------------------------------
// OpenCL C source (shipped verbatim; built by clBuildProgram and analysed by
// the Table I bench). The native twins below implement the same kernels.
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kOpenCLSource = R"CLC(
#pragma OPENCL EXTENSION cl_khr_global_int32_base_atomics : enable

int mismatch(char p, char r) {
  return (p == 'R' && (r == 'C' || r == 'T')) ||
         (p == 'Y' && (r == 'A' || r == 'G')) ||
         (p == 'K' && (r == 'A' || r == 'C')) ||
         (p == 'M' && (r == 'G' || r == 'T')) ||
         (p == 'W' && (r == 'C' || r == 'G')) ||
         (p == 'S' && (r == 'A' || r == 'T')) ||
         (p == 'H' && (r == 'G')) || (p == 'B' && (r == 'A')) ||
         (p == 'V' && (r == 'T')) || (p == 'D' && (r == 'C')) ||
         (p == 'A' && (r != 'A')) || (p == 'G' && (r != 'G')) ||
         (p == 'C' && (r != 'C')) || (p == 'T' && (r != 'T'));
}

__kernel void finder(__global char* chr, __constant char* pat,
                     __constant int* pat_index, unsigned int chrsize,
                     unsigned int plen, __global unsigned int* loci,
                     __global char* flag, __global unsigned int* entrycount,
                     unsigned int entry_capacity,
                     __local char* l_pat, __local int* l_pat_index) {
  unsigned int i = get_global_id(0);
  unsigned int li = i - get_group_id(0) * get_local_size(0);
  if (li == 0) {
    for (unsigned int k = 0; k < plen * 2; k++) {
      l_pat[k] = pat[k];
      l_pat_index[k] = pat_index[k];
    }
  }
  barrier(CLK_LOCAL_MEM_FENCE);
  if (i >= chrsize) return;
  int fw = 1, rc = 1;
  for (unsigned int j = 0; j < plen; j++) {
    int k = l_pat_index[j];
    if (k == -1) break;
    if (mismatch(l_pat[k], chr[i + k])) { fw = 0; break; }
  }
  for (unsigned int j = 0; j < plen; j++) {
    int k = l_pat_index[plen + j];
    if (k == -1) break;
    if (mismatch(l_pat[plen + k], chr[i + k])) { rc = 0; break; }
  }
  if (fw || rc) {
    unsigned int old = atomic_inc(entrycount);
    /* The counter keeps advancing past the capacity so the host can detect
     * and report the overflow; only the store is dropped. */
    if (old < entry_capacity) {
      loci[old] = i;
      flag[old] = (fw && rc) ? 0 : (fw ? 1 : 2);
    }
  }
}

__kernel void comparer(unsigned int locicnts, __global char* chr,
                       __global unsigned int* loci, __constant char* comp,
                       __constant int* comp_index, unsigned int plen,
                       unsigned short threshold, __global char* flag,
                       __global unsigned short* mm_count,
                       __global char* direction,
                       __global unsigned int* mm_loci,
                       __global unsigned int* entrycount,
                       unsigned int entry_capacity, __local char* l_comp,
                       __local int* l_comp_index) {
  unsigned int i = get_global_id(0);
  unsigned int li = i - get_group_id(0) * get_local_size(0);
  if (li == 0) {
    for (unsigned int k = 0; k < plen * 2; k++) {
      l_comp[k] = comp[k];
      l_comp_index[k] = comp_index[k];
    }
  }
  barrier(CLK_LOCAL_MEM_FENCE);
  if (i >= locicnts) return;
  unsigned short lmm_count;
  unsigned int old;
  if (flag[i] == 0 || flag[i] == 1) {
    lmm_count = 0;
    for (unsigned int j = 0; j < plen; j++) {
      int k = l_comp_index[j];
      if (k == -1) break;
      if (mismatch(l_comp[k], chr[loci[i] + k])) {
        lmm_count++;
        if (lmm_count > threshold) break;
      }
    }
    if (lmm_count <= threshold) {
      old = atomic_inc(entrycount);
      if (old < entry_capacity) {
        mm_count[old] = lmm_count;
        direction[old] = '+';
        mm_loci[old] = loci[i];
      }
    }
  }
  if (flag[i] == 0 || flag[i] == 2) {
    lmm_count = 0;
    for (unsigned int j = 0; j < plen; j++) {
      int k = l_comp_index[plen + j];
      if (k == -1) break;
      if (mismatch(l_comp[k + plen], chr[loci[i] + k])) {
        lmm_count++;
        if (lmm_count > threshold) break;
      }
    }
    if (lmm_count <= threshold) {
      old = atomic_inc(entrycount);
      if (old < entry_capacity) {
        mm_count[old] = lmm_count;
        direction[old] = '-';
        mm_loci[old] = loci[i];
      }
    }
  }
}

/* opt6: the two-bit SWAR comparer, one launch for every query of the
 * chunk. The chunk travels only as 2-bit packed codes (32 bases per ulong)
 * plus ambiguity flags in the same geometry; the host precomputes, per query
 * half and per 32-base word, one 64-bit deny mask for each reference code
 * plus a fifth 'N' mask. One word evaluation replaces up to 32 iterations
 * of the per-character loop; every ambiguous reference base scores through
 * the 'N' mask, exactly as mismatch() treats any non-ACGT byte. opt2 applies
 * to the window every query shares: loci[i]/flag[i] are read once per
 * candidate site, and each of the window's first 4 words is read and decoded
 * once (its per-code equality masks and ambiguity mask, kept in private
 * memory) by the first (query, strand) that reaches it; words past those 4
 * are decoded where they are used. Each (query, strand) scores the words with
 * its five deny masks and a popcount per word. */
__kernel void comparer_multi_opt6(unsigned int locicnts,
                                  __global ulong* __restrict chr_packed2,
                                  __global ulong* __restrict chr_amb2,
                                  __global unsigned int* __restrict loci,
                                  __global char* __restrict flag,
                                  __constant ulong* comp_swar,
                                  __constant unsigned short* thresholds,
                                  unsigned int nqueries, unsigned int plen,
                                  unsigned int swar_words,
                                  __global unsigned short* __restrict mm_count,
                                  __global char* __restrict direction,
                                  __global unsigned int* __restrict mm_loci,
                                  __global unsigned short* __restrict mm_query,
                                  __global unsigned int* __restrict entrycount,
                                  unsigned int entry_capacity,
                                  __local ulong* l_comp_swar) {
  unsigned int i = get_global_id(0);
  unsigned int li = i - get_group_id(0) * get_local_size(0);
  const ulong even = 0x5555555555555555UL;
  for (unsigned int k = li; k < nqueries * 2 * swar_words * 5; k += get_local_size(0))
    l_comp_swar[k] = comp_swar[k];
  barrier(CLK_LOCAL_MEM_FENCE);
  if (i >= locicnts) return;
  char f = flag[i];
  unsigned int locus = loci[i];
  unsigned int shift = 2u * (locus & 31u);
  unsigned int wi = locus >> 5;
  ulong blk_eq[4][4], blk_amb[4];
  unsigned int built = 0;
  for (unsigned int q = 0; q < nqueries; q++) {
    unsigned short threshold = thresholds[q];
    for (int half = 0; half < 2; half++) {
      if (!(f == 0 || f == (char)(half + 1))) continue;
      unsigned int sbase = (q * 2 + (unsigned int)half) * swar_words * 5;
      unsigned short lmm = 0;
      int under = 1;
      for (unsigned int w = 0; w < swar_words && under; w++) {
        ulong eq[4], amb;
        if (w < built) {
          for (int c = 0; c < 4; c++) eq[c] = blk_eq[w][c];
          amb = blk_amb[w];
        } else {
          ulong ref = (chr_packed2[wi + w] >> shift) |
                      ((chr_packed2[wi + w + 1] << (63u - shift)) << 1);
          amb = (chr_amb2[wi + w] >> shift) |
                ((chr_amb2[wi + w + 1] << (63u - shift)) << 1);
          unsigned int nb = plen - 32u * w;
          amb &= nb >= 32u ? ~0UL : (1UL << (2u * nb)) - 1;
          for (int c = 0; c < 4; c++) {
            ulong bc = c == 0 ? 0UL : (c == 1 ? even : (c == 2 ? ~even : ~0UL));
            ulong t = ~(ref ^ bc);
            eq[c] = t & (t >> 1) & even & ~amb;
          }
          if (w < 4u) {
            for (int c = 0; c < 4; c++) blk_eq[w][c] = eq[c];
            blk_amb[w] = amb;
            built = w + 1;
          }
        }
        ulong mm = amb & l_comp_swar[sbase + w * 5 + 4];
        for (int c = 0; c < 4; c++) mm |= eq[c] & l_comp_swar[sbase + w * 5 + c];
        lmm += (unsigned short)popcount(mm);
        if (lmm > threshold) under = 0;
      }
      if (under) {
        unsigned int old = atomic_inc(entrycount);
        if (old < entry_capacity) {
          mm_count[old] = lmm;
          direction[old] = half == 0 ? '+' : '-';
          mm_loci[old] = locus;
          mm_query[old] = (unsigned short)q;
        }
      }
    }
  }
}

/* opt6's packed-word finder: one work-item per 32 start positions, no local
 * memory and no barrier. For each non-N PAM position k it fetches the
 * 32-base window at start+k from the 2-bit words (the comparer's two-word
 * shift-combine) and clears the lanes whose base the PAM character's deny
 * LUT rejects; an ambiguous reference base behaves like 'N' (LUT bit 15).
 * The surviving lanes of each strand are compacted behind ONE atomic per
 * work-item; stores past the capacity are dropped, the count still
 * advances. */
ulong find_strand(__global ulong* chr_packed2, __global ulong* chr_amb2,
                  __constant unsigned short* pat_mask,
                  __constant int* pat_index, unsigned int plen,
                  unsigned int half, unsigned int first, ulong ok) {
  const ulong even = 0x5555555555555555UL;
  for (unsigned int j = 0; j < plen && ok != 0; j++) {
    int k = pat_index[half * plen + j];
    if (k == -1) break;
    unsigned int lut = pat_mask[half * plen + k];
    unsigned int pos = first + (unsigned int)k;
    unsigned int shift = 2u * (pos & 31u), wi = pos >> 5;
    ulong ref = (chr_packed2[wi] >> shift) |
                ((chr_packed2[wi + 1] << (63u - shift)) << 1);
    ulong amb = (chr_amb2[wi] >> shift) |
                ((chr_amb2[wi + 1] << (63u - shift)) << 1);
    ulong mm = 0;
    for (unsigned int c = 0; c < 4; c++) {
      if (((lut >> (1u << c)) & 1u) == 0) continue;
      ulong bc = c == 0 ? 0UL : (c == 1 ? even : (c == 2 ? ~even : ~0UL));
      ulong t = ~(ref ^ bc);
      mm |= t & (t >> 1) & even;
    }
    mm &= ~amb;
    if ((lut >> 15) & 1u) mm |= amb;
    ok &= ~mm;
  }
  return ok;
}

__kernel void finder_opt6(__global ulong* __restrict chr_packed2,
                          __global ulong* __restrict chr_amb2,
                          __constant unsigned short* pat_mask,
                          __constant int* pat_index, unsigned int chrsize,
                          unsigned int plen, __global unsigned int* __restrict loci,
                          __global char* __restrict flag,
                          __global unsigned int* __restrict entrycount,
                          unsigned int entry_capacity) {
  unsigned int first = get_global_id(0) * 32u;
  if (first >= chrsize) return;
  unsigned int live_n = min(32u, chrsize - first);
  ulong live = 0x5555555555555555UL;
  if (live_n < 32u) live &= (1UL << (2u * live_n)) - 1;
  ulong fw = find_strand(chr_packed2, chr_amb2, pat_mask, pat_index, plen, 0u,
                         first, live);
  ulong rc = find_strand(chr_packed2, chr_amb2, pat_mask, pat_index, plen, 1u,
                         first, live);
  ulong rest = fw | rc;
  if (rest == 0) return;
  unsigned int slot = atomic_add(entrycount, (unsigned int)popcount(rest));
  for (; rest != 0; rest &= rest - 1, slot++) {
    if (slot >= entry_capacity) continue;
    ulong bit = rest & -rest;
    unsigned int j = (unsigned int)(63 - clz(bit)) >> 1;
    loci[slot] = first + j;
    flag[slot] = ((fw & bit) && (rc & bit)) ? 0 : ((fw & bit) ? 1 : 2);
  }
}

/* Optimised comparer variants (paper SIV.B): opt1 adds __restrict, opt2
 * registers loci[i]/flag[i], opt3 fetches the pattern cooperatively, opt4
 * additionally registers the pattern char read from local memory. Bodies
 * elided here for brevity -- the native implementations are authoritative
 * and shared with the SYCL program. */
__kernel void comparer_opt1() {}
__kernel void comparer_opt2() {}
__kernel void comparer_opt3() {}
__kernel void comparer_opt4() {}
)CLC";

// ---------------------------------------------------------------------------
// Native twins, registered under the kernel names the source declares.
// Argument unpack order follows the OpenCL signatures above.
// ---------------------------------------------------------------------------

template <class P>
void finder_native(const oclsim::arg_view& a, xpu::xitem& it) {
  finder_args fa;
  fa.chr = a.global<const char>(0);
  fa.pat = a.global<const char>(1);
  fa.pat_index = a.global<const i32>(2);
  fa.chrsize = a.scalar<u32>(3);
  fa.plen = a.scalar<u32>(4);
  fa.loci = a.global<u32>(5);
  fa.flag = a.global<char>(6);
  fa.entrycount = a.global<u32>(7);
  fa.entry_capacity = a.scalar<u32>(8);
  fa.l_pat = a.local<char>(9);
  fa.l_pat_index = a.local<i32>(10);
  finder_kernel<P>(it, fa);
}

/// Shared unpack of finder_opt6's arguments (all global or scalar) for its
/// per-item native body and its lane body.
void finder_opt6_unpack(const oclsim::arg_view& a, finder_swar_args& fa) {
  fa.chr_packed2 = a.global<const u64>(0);
  fa.chr_amb2 = a.global<const u64>(1);
  fa.pat_mask = a.global<const u16>(2);
  fa.pat_index = a.global<const i32>(3);
  fa.chrsize = a.scalar<u32>(4);
  fa.plen = a.scalar<u32>(5);
  fa.loci = a.global<u32>(6);
  fa.flag = a.global<char>(7);
  fa.entrycount = a.global<u32>(8);
  fa.entry_capacity = a.scalar<u32>(9);
}

template <class P>
void finder_opt6_native(const oclsim::arg_view& a, xpu::xitem& it) {
  finder_swar_args fa;
  finder_opt6_unpack(a, fa);
  finder_swar_kernel<P>(it, fa);
}

/// Lane-batched row body (executor lane dispatch, profiling off only): the
/// arguments are unpacked once per row, and hits append once per block.
void finder_opt6_lanes(const oclsim::arg_view& a, usize first, usize nlanes) {
  finder_swar_args fa;
  finder_opt6_unpack(a, fa);
  finder_swar_lanes(fa, first, nlanes);
}

template <class P>
void comparer_native_dispatch(comparer_variant v, const oclsim::arg_view& a,
                              xpu::xitem& it) {
  comparer_args ca;
  ca.locicnts = a.scalar<u32>(0);
  ca.chr = a.global<const char>(1);
  ca.loci = a.global<const u32>(2);
  ca.comp = a.global<const char>(3);
  ca.comp_index = a.global<const i32>(4);
  ca.plen = a.scalar<u32>(5);
  ca.threshold = a.scalar<u16>(6);
  ca.flag = a.global<const char>(7);
  ca.mm_count = a.global<u16>(8);
  ca.direction = a.global<char>(9);
  ca.mm_loci = a.global<u32>(10);
  ca.entrycount = a.global<u32>(11);
  ca.entry_capacity = a.scalar<u32>(12);
  ca.l_comp = a.local<char>(13);
  ca.l_comp_index = a.local<i32>(14);
  comparer_dispatch<P>(v, it, ca);
}

const std::vector<oclsim::arg_kind> kFinderSig = {
    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::scalar, oclsim::arg_kind::scalar, oclsim::arg_kind::mem,
    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,    oclsim::arg_kind::scalar,
    oclsim::arg_kind::local,  oclsim::arg_kind::local,
};

const std::vector<oclsim::arg_kind> kFinderOpt6Sig = {
    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::mem,    oclsim::arg_kind::scalar, oclsim::arg_kind::scalar,
    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::scalar,
};

const std::vector<oclsim::arg_kind> kComparerSig = {
    oclsim::arg_kind::scalar, oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,    oclsim::arg_kind::scalar,
    oclsim::arg_kind::scalar, oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::scalar, oclsim::arg_kind::local,  oclsim::arg_kind::local,
};

template <comparer_variant V, class P>
void comparer_native(const oclsim::arg_view& a, xpu::xitem& it) {
  comparer_native_dispatch<P>(V, a, it);
}

/// Shared unpack of comparer_multi_opt6's global/scalar arguments (0..15);
/// the local arg (16) resolves only inside a kernel item context, so the
/// lane entry points it at the global masks instead.
void comparer_multi_opt6_unpack(const oclsim::arg_view& a, comparer_multi_swar_args& ca) {
  ca.locicnts = a.scalar<u32>(0);
  ca.chr_packed2 = a.global<const u64>(1);
  ca.chr_amb2 = a.global<const u64>(2);
  ca.loci = a.global<const u32>(3);
  ca.flag = a.global<const char>(4);
  ca.comp_swar = a.global<const u64>(5);
  ca.thresholds = a.global<const u16>(6);
  ca.nqueries = a.scalar<u32>(7);
  ca.plen = a.scalar<u32>(8);
  ca.swar_words = a.scalar<u32>(9);
  ca.mm_count = a.global<u16>(10);
  ca.direction = a.global<char>(11);
  ca.mm_loci = a.global<u32>(12);
  ca.mm_query = a.global<u16>(13);
  ca.entrycount = a.global<u32>(14);
  ca.entry_capacity = a.scalar<u32>(15);
}

template <class P>
void comparer_multi_opt6_native(const oclsim::arg_view& a, xpu::xitem& it) {
  comparer_multi_swar_args ca;
  comparer_multi_opt6_unpack(a, ca);
  ca.l_comp_swar = a.local<u64>(16);
  comparer_multi_swar_kernel<P>(it, ca);
}

/// Lane-batched row body (executor lane dispatch, profiling off only): no
/// cooperative fetch, masks read straight from the global argument.
void comparer_multi_opt6_lanes(const oclsim::arg_view& a, usize first, usize nlanes) {
  comparer_multi_swar_args ca;
  comparer_multi_opt6_unpack(a, ca);
  ca.l_comp_swar = const_cast<u64*>(ca.comp_swar);
  comparer_multi_swar_lanes(ca, first, nlanes);
}

const std::vector<oclsim::arg_kind> kComparerMultiOpt6Sig = {
    oclsim::arg_kind::scalar, oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::mem,    oclsim::arg_kind::scalar, oclsim::arg_kind::scalar,
    oclsim::arg_kind::scalar, oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,    oclsim::arg_kind::mem,
    oclsim::arg_kind::scalar, oclsim::arg_kind::local,
};

// Every kernel here except finder_opt6 has exactly one leading barrier
// (cooperative pattern fetch, then compute), and the native bodies cooperate
// with the two-phase executor, so those registrations opt into the
// barrier-free fast path. finder_opt6 has no barrier at all.
const bool kKernelsRegistered = [] {
  oclsim::register_kernel({"finder", kFinderSig, /*uses_barrier=*/true,
                           &finder_native<direct_mem>,
                           &finder_native<counting_mem>,
                           /*single_leading_barrier=*/true});
  oclsim::register_kernel({"finder_opt6", kFinderOpt6Sig, /*uses_barrier=*/false,
                           &finder_opt6_native<direct_mem>,
                           &finder_opt6_native<counting_mem>, false,
                           &finder_opt6_lanes});
  oclsim::register_kernel({"comparer", kComparerSig, true,
                           &comparer_native<comparer_variant::base, direct_mem>,
                           &comparer_native<comparer_variant::base, counting_mem>,
                           true});
  oclsim::register_kernel({"comparer_opt1", kComparerSig, true,
                           &comparer_native<comparer_variant::opt1, direct_mem>,
                           &comparer_native<comparer_variant::opt1, counting_mem>,
                           true});
  oclsim::register_kernel({"comparer_opt2", kComparerSig, true,
                           &comparer_native<comparer_variant::opt2, direct_mem>,
                           &comparer_native<comparer_variant::opt2, counting_mem>,
                           true});
  oclsim::register_kernel({"comparer_opt3", kComparerSig, true,
                           &comparer_native<comparer_variant::opt3, direct_mem>,
                           &comparer_native<comparer_variant::opt3, counting_mem>,
                           true});
  oclsim::register_kernel({"comparer_opt4", kComparerSig, true,
                           &comparer_native<comparer_variant::opt4, direct_mem>,
                           &comparer_native<comparer_variant::opt4, counting_mem>,
                           true});
  oclsim::register_kernel({"comparer_multi_opt6", kComparerMultiOpt6Sig, true,
                           &comparer_multi_opt6_native<direct_mem>,
                           &comparer_multi_opt6_native<counting_mem>, true,
                           &comparer_multi_opt6_lanes});
  return true;
}();

#define COF_CL_CHECK(expr)                                                       \
  do {                                                                           \
    cl_int cof_cl_err_ = (expr);                                                 \
    COF_CHECK_MSG(cof_cl_err_ == CL_SUCCESS,                                     \
                  util::format("%s failed: %d", #expr, cof_cl_err_));            \
  } while (0)

/// A read-only buffer initialised from host memory.
constexpr cl_mem_flags kConstIn = CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR;

// ---------------------------------------------------------------------------
// pipeline
// ---------------------------------------------------------------------------

class opencl_pipeline final : public device_pipeline {
 public:
  explicit opencl_pipeline(const pipeline_options& opt)
      : device_pipeline(opt, "opencl", {"finder", comparer_tag(opt.variant)}) {
    COF_CHECK(kKernelsRegistered);
    // Steps 1-3 of Table I: platform query, device query, context creation.
    cl_uint n = 0;
    COF_CL_CHECK(clGetPlatformIDs(1, &platform_, &n));
    COF_CL_CHECK(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &device_, &n));
    cl_int err;
    ctx_ = clCreateContext(nullptr, 1, &device_, nullptr, nullptr, &err);
    COF_CL_CHECK(err);
    // Step 4: command queue.
    q_ = clCreateCommandQueue(ctx_, device_, CL_QUEUE_PROFILING_ENABLE, &err);
    COF_CL_CHECK(err);
    // Steps 6-7: program object + build.
    const char* src = kOpenCLSource;
    program_ = clCreateProgramWithSource(ctx_, 1, &src, nullptr, &err);
    COF_CL_CHECK(err);
    COF_CL_CHECK(clBuildProgram(program_, 1, &device_, "-O3", nullptr, nullptr));
    // Step 8: kernel objects, one finder and one comparer. opt6 pairs its
    // comparer with the packed-word finder.
    finder_k_ = clCreateKernel(program_, finder_kernel_name(), &err);
    COF_CL_CHECK(err);
    comparer_k_ = clCreateKernel(program_, comparer_kernel_name(), &err);
    COF_CL_CHECK(err);
  }

  ~opencl_pipeline() override {
    // Step 13: explicit resource release (reverse creation order).
    release_launch();
    release_batch();
    release_chunk();
    if (comparer_k_ != nullptr) clReleaseKernel(comparer_k_);
    if (finder_k_ != nullptr) clReleaseKernel(finder_k_);
    if (program_ != nullptr) clReleaseProgram(program_);
    if (q_ != nullptr) clReleaseCommandQueue(q_);
    if (ctx_ != nullptr) clReleaseContext(ctx_);
  }

 private:
  /// Bytes upload puts on the device for a chunk of `bases`: the two word
  /// arrays under opt6, else the chars.
  usize chunk_bytes(usize bases) const override {
    return packs_words() ? swar_ref_bytes(bases) : bases;
  }

  /// Upload the chunk (the producer's words under opt6, else its chars),
  /// allocate hit arrays for `hit_cap` entries and write any prebuilt hits
  /// into them.
  void upload(const packed_chunk& ch, usize hit_cap, std::span<const u32> loci,
              std::span<const char> flags) override {
    release_chunk();
    cl_int err;
    // Step 5 + 11: memory objects, host-to-device transfer.
    if (packs_words()) {
      // opt6: the producer's 2-bit words + ambiguity flags, the only copy
      // of the chunk on the device.
      const swar_ref& words = words_of(ch);
      chr2_ = clCreateBuffer(ctx_, kConstIn, words.packed2.size() * sizeof(u64),
                             const_cast<u64*>(words.packed2.data()), &err);
      COF_CL_CHECK(err);
      amb2_ = clCreateBuffer(ctx_, kConstIn, words.amb2.size() * sizeof(u64),
                             const_cast<u64*>(words.amb2.data()), &err);
      COF_CL_CHECK(err);
    } else {
      chr_ = clCreateBuffer(ctx_, kConstIn, ch.text.size(),
                            const_cast<char*>(ch.text.data()), &err);
      COF_CL_CHECK(err);
    }
    count_ = clCreateBuffer(ctx_, CL_MEM_READ_WRITE, sizeof(u32), nullptr, &err);
    COF_CL_CHECK(err);
    alloc_hits(hit_cap);
    if (!loci.empty()) {
      COF_CL_CHECK(clEnqueueWriteBuffer(q_, loci_, CL_TRUE, 0, loci.size() * sizeof(u32),
                                        loci.data(), 0, nullptr, nullptr));
      COF_CL_CHECK(clEnqueueWriteBuffer(q_, flag_, CL_TRUE, 0, flags.size(), flags.data(),
                                        0, nullptr, nullptr));
    }
  }

  void alloc_hits(usize cap) override {
    if (loci_ != nullptr) clReleaseMemObject(loci_);
    if (flag_ != nullptr) clReleaseMemObject(flag_);
    const usize loci_n = std::max<usize>(1, cap);
    cl_int err;
    loci_ = clCreateBuffer(ctx_, CL_MEM_READ_WRITE, loci_n * sizeof(u32), nullptr,
                           &err);
    COF_CL_CHECK(err);
    flag_ = clCreateBuffer(ctx_, CL_MEM_READ_WRITE, loci_n, nullptr, &err);
    COF_CL_CHECK(err);
  }

  void read_hits(u32 n, u32* loci, char* flags) override {
    if (loci != nullptr) {
      COF_CL_CHECK(clEnqueueReadBuffer(q_, loci_, CL_TRUE, 0, n * sizeof(u32), loci, 0,
                                       nullptr, nullptr));
    }
    if (flags != nullptr) {
      COF_CL_CHECK(
          clEnqueueReadBuffer(q_, flag_, CL_TRUE, 0, n, flags, 0, nullptr, nullptr));
    }
  }

  launch_stats launch_finder(const device_pattern& pat, u32 chrsize, usize cap) override {
    // Under opt6 the device sees the u16 deny LUTs instead of the chars.
    const usize pat_bytes =
        packs_words() ? pat.mask.size() * sizeof(u16) : pat.device_chars();
    cl_mem patm = launch_buffer(
        kConstIn, pat_bytes,
        packs_words() ? static_cast<const void*>(pat.mask_data()) : pat.data());
    cl_mem idxm =
        launch_buffer(kConstIn, pat.index.size() * sizeof(i32), pat.index_data());
    count_h2d(pat_bytes + pat.index.size() * sizeof(i32));
    zero_counter(count_);

    // Step 9: kernel arguments.
    const u32 plen = pat.plen;
    const u32 loci_cap = static_cast<u32>(cap);
    usize items = chrsize;
    if (packs_words()) {
      // finder_opt6: words in, no local memory, 32 start positions per item.
      COF_CL_CHECK(clSetKernelArg(finder_k_, 0, sizeof(cl_mem), &chr2_));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 1, sizeof(cl_mem), &amb2_));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 2, sizeof(cl_mem), &patm));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 3, sizeof(cl_mem), &idxm));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 4, sizeof(u32), &chrsize));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 5, sizeof(u32), &plen));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 6, sizeof(cl_mem), &loci_));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 7, sizeof(cl_mem), &flag_));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 8, sizeof(cl_mem), &count_));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 9, sizeof(u32), &loci_cap));
      items = swar_finder_items(chrsize);
    } else {
      COF_CL_CHECK(clSetKernelArg(finder_k_, 0, sizeof(cl_mem), &chr_));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 1, sizeof(cl_mem), &patm));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 2, sizeof(cl_mem), &idxm));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 3, sizeof(u32), &chrsize));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 4, sizeof(u32), &plen));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 5, sizeof(cl_mem), &loci_));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 6, sizeof(cl_mem), &flag_));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 7, sizeof(cl_mem), &count_));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 8, sizeof(u32), &loci_cap));
      COF_CL_CHECK(clSetKernelArg(finder_k_, 9, pat_bytes, nullptr));
      COF_CL_CHECK(
          clSetKernelArg(finder_k_, 10, pat.index.size() * sizeof(i32), nullptr));
    }

    const util::u64 nanos = enqueue(finder_k_, items);
    const u32 n = read_counter(count_);
    release_launch();
    return {n, nanos};
  }

  /// Steps 5 + 9: one query's per-query comparer buffers and arguments
  /// (base..opt4), then the launch, the downloads that fit, and the release
  /// of every buffer the launch created.
  launch_stats launch_comparer(const device_pattern& query, u16 threshold, u32 locicnt,
                               usize cap, entries& out) override {
    cl_mem mmm = launch_buffer(CL_MEM_WRITE_ONLY, cap * sizeof(u16), nullptr);
    cl_mem dirm = launch_buffer(CL_MEM_WRITE_ONLY, cap, nullptr);
    cl_mem mlocim = launch_buffer(CL_MEM_WRITE_ONLY, cap * sizeof(u32), nullptr);
    set_comparer_args(query, threshold, locicnt, cap, mmm, dirm, mlocim);
    zero_counter(count_);

    const util::u64 nanos = enqueue(comparer_k_, locicnt);
    const u32 n = read_counter(count_);
    if (n != 0 && n <= cap) {
      out.resize(n);
      COF_CL_CHECK(clEnqueueReadBuffer(q_, mmm, CL_TRUE, 0, n * sizeof(u16),
                                       out.mm.data(), 0, nullptr, nullptr));
      COF_CL_CHECK(clEnqueueReadBuffer(q_, dirm, CL_TRUE, 0, n, out.dir.data(), 0,
                                       nullptr, nullptr));
      COF_CL_CHECK(clEnqueueReadBuffer(q_, mlocim, CL_TRUE, 0, n * sizeof(u32),
                                       out.loci.data(), 0, nullptr, nullptr));
    }
    release_launch();
    return {n, nanos};
  }

  void set_comparer_args(const device_pattern& query, u16 threshold, u32 locicnt,
                         usize cap, cl_mem mmm, cl_mem dirm, cl_mem mlocim) {
    const usize comp_bytes = query.device_chars();
    cl_mem compm = launch_buffer(kConstIn, comp_bytes, query.data());
    cl_mem cidxm = launch_buffer(kConstIn, query.index.size() * sizeof(i32),
                                 query.index_data());
    count_h2d(comp_bytes + query.index.size() * sizeof(i32));

    const u32 plen = query.plen;
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 0, sizeof(u32), &locicnt));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 1, sizeof(cl_mem), &chr_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 2, sizeof(cl_mem), &loci_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 3, sizeof(cl_mem), &compm));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 4, sizeof(cl_mem), &cidxm));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 5, sizeof(u32), &plen));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 6, sizeof(u16), &threshold));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 7, sizeof(cl_mem), &flag_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 8, sizeof(cl_mem), &mmm));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 9, sizeof(cl_mem), &dirm));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 10, sizeof(cl_mem), &mlocim));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 11, sizeof(cl_mem), &count_));
    const u32 entry_cap = static_cast<u32>(cap);
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 12, sizeof(u32), &entry_cap));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 13, comp_bytes, nullptr));
    COF_CL_CHECK(
        clSetKernelArg(comparer_k_, 14, query.index.size() * sizeof(i32), nullptr));
  }

  /// opt6's comparer, launch half: one comparer_multi_opt6 enqueue consumes
  /// the finder's device-resident loci/flag buffers for every query; the
  /// enqueue picks the lane-batched native body up automatically when
  /// profiling is off. Output buffers (incl. a dedicated entry counter, so
  /// the shared counter stays free for the next finder) stay staged until
  /// read_batch.
  util::u64 launch_batch(const query_batch& b, u32 locicnt, usize cap) override {
    release_batch();
    cl_int err;
    batch_mm_ = clCreateBuffer(ctx_, CL_MEM_WRITE_ONLY, cap * sizeof(u16), nullptr,
                               &err);
    COF_CL_CHECK(err);
    batch_dir_ = clCreateBuffer(ctx_, CL_MEM_WRITE_ONLY, cap, nullptr, &err);
    COF_CL_CHECK(err);
    batch_loci_ = clCreateBuffer(ctx_, CL_MEM_WRITE_ONLY, cap * sizeof(u32), nullptr,
                                 &err);
    COF_CL_CHECK(err);
    batch_query_ = clCreateBuffer(ctx_, CL_MEM_WRITE_ONLY, cap * sizeof(u16), nullptr,
                                  &err);
    COF_CL_CHECK(err);
    batch_count_ = clCreateBuffer(ctx_, CL_MEM_READ_WRITE, sizeof(u32), nullptr, &err);
    COF_CL_CHECK(err);
    set_batch_args(b, locicnt, cap);
    zero_counter(batch_count_);

    const util::u64 nanos = enqueue(comparer_k_, locicnt);
    release_launch();
    return nanos;
  }

  /// comparer_multi_opt6's arguments: the concatenated per-query SWAR deny
  /// masks and thresholds, marshalled against its registered signature.
  void set_batch_args(const query_batch& b, u32 locicnt, usize cap) {
    const u32 nq = b.queries;
    const u32 plen = b.plen;
    const u32 swar_words = b.swar_words;
    cl_mem cswarm = launch_buffer(kConstIn, b.swar.size() * sizeof(u64), b.swar.data());
    cl_mem thrm = launch_buffer(kConstIn, nq * sizeof(u16), b.thresholds);
    count_h2d(b.swar.size() * sizeof(u64) + nq * sizeof(u16));

    COF_CL_CHECK(clSetKernelArg(comparer_k_, 0, sizeof(u32), &locicnt));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 1, sizeof(cl_mem), &chr2_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 2, sizeof(cl_mem), &amb2_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 3, sizeof(cl_mem), &loci_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 4, sizeof(cl_mem), &flag_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 5, sizeof(cl_mem), &cswarm));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 6, sizeof(cl_mem), &thrm));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 7, sizeof(u32), &nq));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 8, sizeof(u32), &plen));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 9, sizeof(u32), &swar_words));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 10, sizeof(cl_mem), &batch_mm_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 11, sizeof(cl_mem), &batch_dir_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 12, sizeof(cl_mem), &batch_loci_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 13, sizeof(cl_mem), &batch_query_));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 14, sizeof(cl_mem), &batch_count_));
    const u32 entry_cap = static_cast<u32>(cap);
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 15, sizeof(u32), &entry_cap));
    COF_CL_CHECK(clSetKernelArg(comparer_k_, 16, b.swar.size() * sizeof(u64),
                                nullptr));
  }

  /// opt6's comparer, read half: deferred download of the staged entry
  /// buffers that fit, then release of the device objects.
  u32 read_batch(usize cap, entries& out) override {
    const u32 n = read_counter(batch_count_);
    if (n != 0 && n <= cap) {
      out.resize(n);
      out.qidx.resize(n);
      COF_CL_CHECK(clEnqueueReadBuffer(q_, batch_mm_, CL_TRUE, 0, n * sizeof(u16),
                                       out.mm.data(), 0, nullptr, nullptr));
      COF_CL_CHECK(clEnqueueReadBuffer(q_, batch_dir_, CL_TRUE, 0, n, out.dir.data(),
                                       0, nullptr, nullptr));
      COF_CL_CHECK(clEnqueueReadBuffer(q_, batch_loci_, CL_TRUE, 0, n * sizeof(u32),
                                       out.loci.data(), 0, nullptr, nullptr));
      COF_CL_CHECK(clEnqueueReadBuffer(q_, batch_query_, CL_TRUE, 0, n * sizeof(u16),
                                       out.qidx.data(), 0, nullptr, nullptr));
    }
    release_batch();
    return n;
  }

  const char* comparer_kernel_name() const {
    switch (opt_.variant) {
      case comparer_variant::base: return "comparer";
      case comparer_variant::opt1: return "comparer_opt1";
      case comparer_variant::opt2: return "comparer_opt2";
      case comparer_variant::opt3: return "comparer_opt3";
      case comparer_variant::opt4: return "comparer_opt4";
      case comparer_variant::opt6: return "comparer_multi_opt6";
    }
    return "comparer";
  }

  const char* finder_kernel_name() const {
    return packs_words() ? "finder_opt6" : "finder";
  }

  void zero_counter(cl_mem counter) {
    const u32 zero = 0;
    COF_CL_CHECK(clEnqueueWriteBuffer(q_, counter, CL_TRUE, 0, sizeof(u32), &zero, 0,
                                      nullptr, nullptr));
  }

  u32 read_counter(cl_mem counter) {
    u32 count = 0;
    COF_CL_CHECK(clEnqueueReadBuffer(q_, counter, CL_TRUE, 0, sizeof(u32), &count, 0,
                                     nullptr, nullptr));
    return count;
  }

  /// Step 10 + 12: enqueue an ND-range kernel (runtime-chosen lws unless the
  /// caller pinned one), wait on its event, and return its profiled span.
  util::u64 enqueue(cl_kernel k, usize work_items) {
    const usize lws = opt_.wg_size != 0 ? opt_.wg_size
                                        : oclsim_default_lws(work_items);
    const usize gws = util::round_up<usize>(work_items, lws);
    if (opt_.counting) oclsim::set_profiling_mode(true);
    cl_event ev = nullptr;
    const size_t gws_arr[1] = {gws};
    const size_t lws_arr[1] = {lws};
    COF_CL_CHECK(clEnqueueNDRangeKernel(q_, k, 1, nullptr, gws_arr,
                                        opt_.wg_size != 0 ? lws_arr : nullptr, 0,
                                        nullptr, &ev));
    COF_CL_CHECK(clWaitForEvents(1, &ev));
    if (opt_.counting) oclsim::set_profiling_mode(false);
    cl_ulong t0 = 0, t1 = 0;
    COF_CL_CHECK(clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_START, sizeof(t0),
                                         &t0, nullptr));
    COF_CL_CHECK(clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_END, sizeof(t1), &t1,
                                         nullptr));
    COF_CL_CHECK(clReleaseEvent(ev));
    return t1 - t0;
  }

  /// Mirror of the facade's lws=NULL choice (wavefront-sized groups), used
  /// to pad gws so the runtime's pick divides it.
  static usize oclsim_default_lws(usize /*work_items*/) { return 64; }

  void release_chunk() {
    if (chr_ != nullptr) clReleaseMemObject(chr_);
    if (loci_ != nullptr) clReleaseMemObject(loci_);
    if (flag_ != nullptr) clReleaseMemObject(flag_);
    if (count_ != nullptr) clReleaseMemObject(count_);
    if (chr2_ != nullptr) clReleaseMemObject(chr2_);
    if (amb2_ != nullptr) clReleaseMemObject(amb2_);
    chr_ = loci_ = flag_ = count_ = chr2_ = amb2_ = nullptr;
  }

  /// Step 5 for a buffer of one launch only (a pattern/query upload or a
  /// per-query output). The launch hook releases it with release_launch()
  /// before it returns; if the launch throws instead, the next launch's
  /// release_launch() or the destructor releases it.
  cl_mem launch_buffer(cl_mem_flags flags, usize bytes, const void* host) {
    cl_int err;
    cl_mem m = clCreateBuffer(ctx_, flags, bytes, const_cast<void*>(host), &err);
    COF_CL_CHECK(err);
    launch_mem_.push_back(m);
    return m;
  }

  void release_launch() {
    for (cl_mem m : launch_mem_) COF_CL_CHECK(clReleaseMemObject(m));
    launch_mem_.clear();
  }

  void release_batch() {
    if (batch_mm_ != nullptr) clReleaseMemObject(batch_mm_);
    if (batch_dir_ != nullptr) clReleaseMemObject(batch_dir_);
    if (batch_loci_ != nullptr) clReleaseMemObject(batch_loci_);
    if (batch_query_ != nullptr) clReleaseMemObject(batch_query_);
    if (batch_count_ != nullptr) clReleaseMemObject(batch_count_);
    batch_mm_ = batch_dir_ = batch_loci_ = batch_query_ = batch_count_ = nullptr;
  }

  cl_platform_id platform_ = nullptr;
  cl_device_id device_ = nullptr;
  cl_context ctx_ = nullptr;
  cl_command_queue q_ = nullptr;
  cl_program program_ = nullptr;
  cl_kernel finder_k_ = nullptr;
  cl_kernel comparer_k_ = nullptr;
  cl_mem chr_ = nullptr;  // base..opt4: the chunk's chars
  cl_mem loci_ = nullptr;
  cl_mem flag_ = nullptr;
  cl_mem count_ = nullptr;
  cl_mem chr2_ = nullptr;  // opt6: the chunk's 2-bit words
  cl_mem amb2_ = nullptr;  // opt6: their ambiguity flags
  std::vector<cl_mem> launch_mem_;  // the running launch's own buffers
  // Staged output of the last launch_batch (released by read_batch, the
  // next launch_batch or the destructor).
  cl_mem batch_mm_ = nullptr;
  cl_mem batch_dir_ = nullptr;
  cl_mem batch_loci_ = nullptr;
  cl_mem batch_query_ = nullptr;
  cl_mem batch_count_ = nullptr;
};

}  // namespace

std::unique_ptr<device_pipeline> make_opencl_pipeline(const pipeline_options& opt) {
  return std::make_unique<opencl_pipeline>(opt);
}

const char* opencl_kernel_source() { return kOpenCLSource; }

std::vector<std::string> opencl_programming_steps() {
  // Table I, left column.
  return {
      "Platform query",
      "Device query of a platform",
      "Create context for devices",
      "Create command queue for context",
      "Create memory objects",
      "Create program object",
      "Build a program",
      "Create kernel(s)",
      "Set kernel arguments",
      "Enqueue a kernel object for execution",
      "Transfer data from device to host",
      "Event handling",
      "Release resources",
  };
}

}  // namespace cof
