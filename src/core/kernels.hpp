// The Cas-OFFinder device kernels: `finder` (PAM scan) and `comparer`
// (mismatch counting, the paper's Listing 1), plus the paper's four
// cumulative optimisation variants of the comparer:
//
//   base — first work-item fetches the pattern arrays into local memory
//          sequentially; `loci[i]` is re-read from global memory for every
//          reference access and `flag[i]` for every flag test; the big
//          IUPAC Boolean chain re-reads `l_comp[k]` / `chr[...]` per
//          condition — a literal transcription of the original source.
//   opt1 — `__restrict` on pointer arguments. Source-identical behaviour;
//          distinct instantiation so profiles and the ISA model can treat it
//          separately (the gain comes from the compiler, modelled in
//          gpumodel/passes.cpp).
//   opt2 — `loci[i]` and `flag[i]` are read once into registers.
//   opt3 — all work-items of a group cooperate in the local-memory fetch
//          (strided by local id) instead of work-item 0 looping alone.
//   opt4 — the pattern character and reference character are fetched into
//          registers once per loop iteration; the Boolean chain then runs
//          register-only. (On the paper's GPUs this raises VGPR pressure,
//          drops occupancy 10 -> 9, and nearly doubles kernel time.)
//
// The production variant, opt6, lives in kernels_swar.hpp.
//
// Every kernel is a template over a memory policy: `direct_mem` compiles to
// raw accesses (wall-clock benchmarks); `counting_mem` counts every global/
// local access, atomic, compare and loop iteration per work-item and flushes
// them to prof::counters (model inputs). Both device facades call these same
// templates, so OpenCL and SYCL pipelines are bit-identical by construction.
#pragma once

#include <atomic>

#include "genome/iupac.hpp"
#include "profile/counters.hpp"
#include "xpu/ndrange.hpp"

namespace cof {

using util::i32;
using util::u16;
using util::u32;
using util::usize;

// ---------------------------------------------------------------------------
// memory policies
// ---------------------------------------------------------------------------

/// Raw accesses; zero overhead.
struct direct_mem {
  struct item {
    template <class T>
    T gload(const T* ptr, usize i) const {
      return ptr[i];
    }
    template <class T>
    void gstore(T* ptr, usize i, T v) const {
      ptr[i] = v;
    }
    template <class T>
    T lload(const T* ptr, usize i) const {
      return ptr[i];
    }
    template <class T>
    void lstore(T* ptr, usize i, T v) const {
      ptr[i] = v;
    }
    /// Re-issued load of an address this work-item already loaded (the
    /// baseline kernel's loci[i]/flag[i] reloads and the un-`__restrict`ed
    /// duplicate reference loads). Identical result; counted separately by
    /// the counting policy because such loads are cache-resident.
    template <class T>
    T gload_repeat(const T* ptr, usize i) const {
      return ptr[i];
    }
    u32 atomic_inc(u32* ptr) const { return std::atomic_ref<u32>(*ptr).fetch_add(1u); }
    u32 atomic_add(u32* ptr, u32 v) const {
      return std::atomic_ref<u32>(*ptr).fetch_add(v);
    }
    void count_compare() const {}
    void count_swar() const {}
    void count_loop() const {}
    void count_branch() const {}
  };
};

/// Counts device events per work-item; flushed on destruction.
struct counting_mem {
  struct item {
    prof::event_counts c;
    item() { c[prof::ev::work_item] = 1; }
    ~item() { prof::counters::add_bulk(c); }
    item(const item&) = delete;
    item& operator=(const item&) = delete;

    template <class T>
    T gload(const T* ptr, usize i) {
      ++c[prof::ev::global_load];
      c[prof::ev::global_load_bytes] += sizeof(T);
      return ptr[i];
    }
    template <class T>
    void gstore(T* ptr, usize i, T v) {
      ++c[prof::ev::global_store];
      c[prof::ev::global_store_bytes] += sizeof(T);
      ptr[i] = v;
    }
    template <class T>
    T lload(const T* ptr, usize i) {
      ++c[prof::ev::local_load];
      return ptr[i];
    }
    template <class T>
    void lstore(T* ptr, usize i, T v) {
      ++c[prof::ev::local_store];
      ptr[i] = v;
    }
    template <class T>
    T gload_repeat(const T* ptr, usize i) {
      ++c[prof::ev::global_load_repeat];
      return ptr[i];
    }
    u32 atomic_inc(u32* ptr) {
      ++c[prof::ev::atomic_op];
      return std::atomic_ref<u32>(*ptr).fetch_add(1u);
    }
    u32 atomic_add(u32* ptr, u32 v) {
      ++c[prof::ev::atomic_op];
      return std::atomic_ref<u32>(*ptr).fetch_add(v);
    }
    void count_compare() { ++c[prof::ev::compare]; }
    void count_swar() { ++c[prof::ev::swar_op]; }
    void count_loop() { ++c[prof::ev::loop_iter]; }
    void count_branch() { ++c[prof::ev::branch]; }
  };
};

// ---------------------------------------------------------------------------
// the IUPAC mismatch Boolean chain (kernel Listing 1, lines 14/31)
// ---------------------------------------------------------------------------

/// The kernels' mismatch test (Listing 1 lines 14/31). `pat()` and `ref()`
/// are load thunks invoked exactly once per call: although the source spells
/// `l_comp[k]` / `chr[...]` in all 14 conditions, the chain is straight-line
/// code with no intervening stores, so every compiler CSEs the repeats into
/// one load each — one local + one global access per chain evaluation is
/// what executes (and what the counting policy must count). Equivalent to
/// genome::casoffinder_mismatch for IUPAC inputs (asserted by tests).
template <class PItem, class PatLd, class RefLd>
inline bool chain_mismatch(PItem& p, PatLd&& pat, RefLd&& ref) {
  p.count_compare();
  const char pv = pat();
  const char rv = ref();
  return (pv == 'R' && (rv == 'C' || rv == 'T')) ||
         (pv == 'Y' && (rv == 'A' || rv == 'G')) ||
         (pv == 'K' && (rv == 'A' || rv == 'C')) ||
         (pv == 'M' && (rv == 'G' || rv == 'T')) ||
         (pv == 'W' && (rv == 'C' || rv == 'G')) ||
         (pv == 'S' && (rv == 'A' || rv == 'T')) ||
         (pv == 'H' && (rv == 'G')) ||
         (pv == 'B' && (rv == 'A')) ||
         (pv == 'V' && (rv == 'T')) ||
         (pv == 'D' && (rv == 'C')) ||
         (pv == 'A' && (rv != 'A')) ||
         (pv == 'G' && (rv != 'G')) ||
         (pv == 'C' && (rv != 'C')) ||
         (pv == 'T' && (rv != 'T'));
}

// ---------------------------------------------------------------------------
// finder
// ---------------------------------------------------------------------------

struct finder_args {
  const char* chr = nullptr;       // chunk sequence (global)
  const char* pat = nullptr;       // pattern | rc(pattern) (constant)
  const i32* pat_index = nullptr;  // non-N positions, -1 terminated (constant)
  u32 chrsize = 0;                 // valid start positions in the chunk
  u32 plen = 0;
  u32* loci = nullptr;             // out: matching positions (global)
  char* flag = nullptr;            // out: 0 both strands, 1 fw, 2 rc (global)
  u32* entrycount = nullptr;       // atomic append counter (global)
  /// Capacity of the loci/flag output arrays. Appends at or past it are
  /// dropped (the counter still advances, so the host can detect and report
  /// the overflow instead of the kernel writing out of bounds). Defaults to
  /// unbounded for direct kernel callers that size outputs worst-case.
  u32 entry_capacity = ~u32{0};
  char* l_pat = nullptr;           // local, 2*plen
  i32* l_pat_index = nullptr;      // local, 2*plen
};

/// The finder (PAM scan). Cooperates with the two-phase executor via
/// Item::cof_phase().
template <class P, class Item>
inline void finder_kernel(const Item& it, const finder_args& a) {
  typename P::item p;
  const usize i = it.get_global_id(0);
  const usize li = i - it.get_group(0) * it.get_local_range(0);

  const xpu::exec_phase ph = it.cof_phase();
  if (ph != xpu::exec_phase::post_fetch) {
    if (li == 0) {
      for (u32 k = 0; k < a.plen * 2; ++k) {
        p.lstore(a.l_pat, k, p.gload(a.pat, k));
        p.lstore(a.l_pat_index, k, p.gload(a.pat_index, k));
      }
    }
    if (ph == xpu::exec_phase::fetch_only) return;
    it.barrier();
  }
  if (i >= a.chrsize) return;

  bool strand_match[2];
  for (int half = 0; half < 2; ++half) {
    bool match = true;
    for (u32 j = 0; j < a.plen; ++j) {
      p.count_loop();
      const i32 k = p.lload(a.l_pat_index, half * a.plen + j);
      if (k == -1) break;
      const auto ku = static_cast<usize>(k);
      auto pat = [&] { return p.lload(a.l_pat, half * a.plen + ku); };
      auto ref = [&] { return p.gload(a.chr, i + ku); };
      if (chain_mismatch(p, pat, ref)) {
        match = false;
        p.count_branch();
        break;
      }
    }
    strand_match[half] = match;
  }

  if (strand_match[0] || strand_match[1]) {
    const u32 old = p.atomic_inc(a.entrycount);
    if (old < a.entry_capacity) {
      p.gstore(a.loci, old, static_cast<u32>(i));
      const char f = strand_match[0] && strand_match[1] ? 0 : (strand_match[0] ? 1 : 2);
      p.gstore(a.flag, old, f);
    }
  }
}

// ---------------------------------------------------------------------------
// comparer (5 variants)
// ---------------------------------------------------------------------------

struct comparer_args {
  u32 locicnts = 0;                 // loci produced by the finder
  const char* chr = nullptr;        // chunk sequence (global)
  const u32* loci = nullptr;        // finder output (global)
  const char* flag = nullptr;       // finder output (global)
  const char* comp = nullptr;       // query | rc(query) (constant)
  const i32* comp_index = nullptr;  // non-N positions, -1 terminated
  u32 plen = 0;
  u16 threshold = 0;
  u16* mm_count = nullptr;          // out per entry (global)
  char* direction = nullptr;        // out: '+' or '-' (global)
  u32* mm_loci = nullptr;           // out (global)
  u32* entrycount = nullptr;        // atomic append counter (global)
  /// Output-array capacity; appends at or past it are dropped (counter
  /// still advances so the host can report the overflow).
  u32 entry_capacity = ~u32{0};
  char* l_comp = nullptr;           // local, 2*plen
  i32* l_comp_index = nullptr;      // local, 2*plen
};

enum class comparer_variant : int { base = 0, opt1, opt2, opt3, opt4, opt6 };
inline constexpr int kNumComparerVariants = 6;

inline const char* comparer_variant_name(comparer_variant v) {
  switch (v) {
    case comparer_variant::base: return "base";
    case comparer_variant::opt1: return "opt1";
    case comparer_variant::opt2: return "opt2";
    case comparer_variant::opt3: return "opt3";
    case comparer_variant::opt4: return "opt4";
    case comparer_variant::opt6: return "opt6";
  }
  return "?";
}

/// Variants whose kernels read the chunk as 2-bit packed words (opt6: the
/// SWAR finder and comparer, kernels_swar.hpp). Producers pack each chunk
/// once for these; the other variants never see packed words.
inline constexpr bool comparer_variant_packs_words(comparer_variant v) {
  return v == comparer_variant::opt6;
}

namespace detail {

/// Compare one strand at the current locus; appends the entry when under
/// threshold. Restrict (opt1+) drops the duplicate reference load the
/// aliasing-conservative compiler re-issues; HoistLoci (opt2+) keeps
/// loci[i] in a register instead of reloading it each iteration; HoistPat
/// (opt4) fetches the pattern char once per iteration before the chain.
/// `first_load` tracks whether this work-item has already touched loci[i]
/// (reloads are cache-resident and counted as repeats).
template <class PItem, bool Restrict, bool HoistLoci, bool HoistPat>
inline void compare_strand(PItem& p, const comparer_args& a, usize i, int half,
                           char dir, bool& loci_touched) {
  u16 lmm_count = 0;
  const u32 hoisted_locus = HoistLoci ? p.gload(a.loci, i) : 0;
  for (u32 j = 0; j < a.plen; ++j) {
    p.count_loop();
    const i32 k = p.lload(a.l_comp_index, half * a.plen + j);
    if (k == -1) break;
    const auto ku = static_cast<usize>(k);

    u32 locus;
    if constexpr (HoistLoci) {
      locus = hoisted_locus;
    } else {
      // Baseline reloads loci[i] every iteration; only the first touch may
      // miss the cache.
      locus = loci_touched ? p.gload_repeat(a.loci, i) : p.gload(a.loci, i);
      loci_touched = true;
    }

    const char rv = p.gload(a.chr, locus + ku);
    if constexpr (!Restrict) {
      // Without __restrict the compiler re-issues the reference load after
      // the first half of the chain (the mm_* stores may alias chr).
      (void)p.gload_repeat(a.chr, locus + ku);
    }
    const char pv = p.lload(a.l_comp, half * a.plen + ku);
    (void)HoistPat;  // opt4 differs in schedule/registers, not access count
    const bool mismatch = chain_mismatch(p, [&] { return pv; }, [&] { return rv; });

    if (mismatch) {
      ++lmm_count;
      if (lmm_count > a.threshold) {
        p.count_branch();
        break;
      }
    }
  }
  if (lmm_count <= a.threshold) {
    const u32 old = p.atomic_inc(a.entrycount);
    if (old < a.entry_capacity) {
      p.gstore(a.mm_count, old, lmm_count);
      p.gstore(a.direction, old, dir);
      if constexpr (HoistLoci) {
        p.gstore(a.mm_loci, old, hoisted_locus);
      } else {
        const u32 locus =
            loci_touched ? p.gload_repeat(a.loci, i) : p.gload(a.loci, i);
        loci_touched = true;
        p.gstore(a.mm_loci, old, locus);
      }
    }
  }
}

template <class P, class Item, bool Restrict, bool HoistLoci, bool HoistPat,
          bool ParallelFetch>
inline void comparer_impl(const Item& it, const comparer_args& args) {
  // opt1+: tell the compiler the argument pointers do not alias, as the
  // paper's `__restrict` kernel arguments do.
  const char* __restrict__ chr = args.chr;
  (void)chr;
  typename P::item p;
  const usize i = it.get_global_id(0);
  const usize li = i - it.get_group(0) * it.get_local_range(0);

  const xpu::exec_phase ph = it.cof_phase();
  if (ph != xpu::exec_phase::post_fetch) {
    if constexpr (ParallelFetch) {
      // opt3+: the whole work-group participates in the fetch.
      for (u32 k = static_cast<u32>(li); k < args.plen * 2;
           k += static_cast<u32>(it.get_local_range(0))) {
        p.lstore(args.l_comp, k, p.gload(args.comp, k));
        p.lstore(args.l_comp_index, k, p.gload(args.comp_index, k));
      }
    } else {
      if (li == 0) {
        for (u32 k = 0; k < args.plen * 2; ++k) {
          p.lstore(args.l_comp, k, p.gload(args.comp, k));
          p.lstore(args.l_comp_index, k, p.gload(args.comp_index, k));
        }
      }
    }
    if (ph == xpu::exec_phase::fetch_only) return;
    it.barrier();
  }
  if (i >= args.locicnts) return;

  bool loci_touched = false;
  if constexpr (HoistLoci) {
    // opt2+: flag[i] read once.
    const char f = p.gload(args.flag, i);
    if (f == 0 || f == 1) {
      compare_strand<typename P::item, Restrict, true, HoistPat>(p, args, i, 0, '+',
                                                                 loci_touched);
    }
    if (f == 0 || f == 2) {
      compare_strand<typename P::item, Restrict, true, HoistPat>(p, args, i, 1, '-',
                                                                 loci_touched);
    }
  } else {
    // base/opt1: flag[i] reloaded for every test, as in Listing 1; only the
    // first read can miss the cache.
    if (p.gload(args.flag, i) == 0 || p.gload_repeat(args.flag, i) == 1) {
      compare_strand<typename P::item, Restrict, false, HoistPat>(p, args, i, 0, '+',
                                                                  loci_touched);
    }
    if (p.gload_repeat(args.flag, i) == 0 || p.gload_repeat(args.flag, i) == 2) {
      compare_strand<typename P::item, Restrict, false, HoistPat>(p, args, i, 1, '-',
                                                                  loci_touched);
    }
  }
}

}  // namespace detail

// The five instantiations (the paper's baseline and its four cumulative
// optimisations).
template <class P, class Item>
inline void comparer_base(const Item& it, const comparer_args& a) {
  detail::comparer_impl<P, Item, false, false, false, false>(it, a);
}
template <class P, class Item>
inline void comparer_opt1(const Item& it, const comparer_args& a) {
  detail::comparer_impl<P, Item, true, false, false, false>(it, a);
}
template <class P, class Item>
inline void comparer_opt2(const Item& it, const comparer_args& a) {
  detail::comparer_impl<P, Item, true, true, false, false>(it, a);
}
template <class P, class Item>
inline void comparer_opt3(const Item& it, const comparer_args& a) {
  detail::comparer_impl<P, Item, true, true, false, true>(it, a);
}
template <class P, class Item>
inline void comparer_opt4(const Item& it, const comparer_args& a) {
  detail::comparer_impl<P, Item, true, true, true, true>(it, a);
}

/// Uniform dispatch: run the selected per-query comparer variant. opt6 has
/// no per-query kernel: its batched comparer consumes the two-bit SWAR
/// argument block instead (kernels_swar.hpp); callers route it before
/// reaching this switch.
template <class P, class Item>
inline void comparer_dispatch(comparer_variant v, const Item& it,
                              const comparer_args& a) {
  switch (v) {
    case comparer_variant::base: comparer_base<P>(it, a); return;
    case comparer_variant::opt1: comparer_opt1<P>(it, a); return;
    case comparer_variant::opt2: comparer_opt2<P>(it, a); return;
    case comparer_variant::opt3: comparer_opt3<P>(it, a); return;
    case comparer_variant::opt4: comparer_opt4<P>(it, a); return;
    case comparer_variant::opt6:
      COF_CHECK_MSG(false, "opt6 dispatches through comparer_multi_swar_args");
      return;
  }
}

}  // namespace cof
