// The USM flavour of the SYCL host program — the pointer-based memory
// abstraction the paper's §III.A describes as the alternative to buffers
// ("allows for easier integration with existing C/C++ programs"; the
// paper's port started with buffers). Data management here is explicit:
// sycl::malloc_device + queue::memcpy + sycl::free, kernels consume raw
// device pointers; only shared local memory still goes through accessors.
#include <algorithm>

#include "core/kernels_swar.hpp"
#include "core/pipeline.hpp"
#include "syclsim/sycl.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace cof {

namespace {

class sycl_usm_pipeline final : public device_pipeline {
 public:
  explicit sycl_usm_pipeline(const pipeline_options& opt)
      : device_pipeline(opt, "sycl-usm", {"finder", comparer_tag(opt.variant)}),
        q_(sycl::gpu_selector{}) {
    if (opt_.wg_size == 0) opt_.wg_size = 256;
  }

  ~sycl_usm_pipeline() override {
    release_batch();
    release_chunk();
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
    count_ = sycl::malloc_device<u32>(1, q_);
    if (packs_words()) {
      // opt6: the 2-bit words and their ambiguity flags are the only copy of
      // the chunk on the device.
      const swar_ref& words = words_of(ch);
      chr2_ = sycl::malloc_device<util::u64>(words.packed2.size(), q_);
      amb2_ = sycl::malloc_device<util::u64>(words.amb2.size(), q_);
      q_.memcpy(chr2_, words.packed2.data(), words.packed2.size() * sizeof(util::u64));
      q_.memcpy(amb2_, words.amb2.data(), words.amb2.size() * sizeof(util::u64));
    } else {
      chr_ = sycl::malloc_device<char>(ch.text.size(), q_);
      q_.memcpy(chr_, ch.text.data(), ch.text.size());
    }
    alloc_hits(hit_cap);
    if (!loci.empty()) {
      q_.memcpy(loci_, loci.data(), loci.size() * sizeof(u32));
      q_.memcpy(flag_, flags.data(), flags.size());
    }
  }

  void alloc_hits(usize cap) override {
    sycl::free(loci_, q_);
    sycl::free(flag_, q_);
    loci_ = sycl::malloc_device<u32>(cap, q_);
    flag_ = sycl::malloc_device<char>(cap, q_);
  }

  void read_hits(u32 n, u32* loci, char* flags) override {
    if (loci != nullptr) q_.memcpy(loci, loci_, n * sizeof(u32));
    if (flags != nullptr) q_.memcpy(flags, flag_, n);
  }

  void release_chunk() {
    sycl::free(chr_, q_);
    sycl::free(chr2_, q_);
    sycl::free(amb2_, q_);
    sycl::free(loci_, q_);
    sycl::free(flag_, q_);
    sycl::free(count_, q_);
    chr_ = nullptr;
    chr2_ = nullptr;
    amb2_ = nullptr;
    loci_ = nullptr;
    flag_ = nullptr;
    count_ = nullptr;
  }

  void zero_count(u32* ptr) {
    const u32 zero = 0;
    q_.memcpy(ptr, &zero, sizeof(u32));
  }

  u32 read_count(const u32* ptr) {
    u32 n = 0;
    q_.memcpy(&n, ptr, sizeof(u32));
    return n;
  }

  launch_stats launch_finder(const device_pattern& pat, u32 chrsize, usize cap) override {
    return opt_.counting ? finder<counting_mem>(pat, chrsize, cap)
                         : finder<direct_mem>(pat, chrsize, cap);
  }

  template <class P>
  launch_stats finder(const device_pattern& pat, u32 chrsize, usize loci_cap) {
    const usize lws = opt_.wg_size;
    // opt6's packed-word finder covers 32 start positions per work-item.
    const usize gws = util::round_up<usize>(
        packs_words() ? swar_finder_items(chrsize) : chrsize, lws);

    // The per-position finder reads the pattern chars, opt6's packed-word
    // finder the deny LUTs; each launch uploads only the one it reads.
    i32* idxd = sycl::malloc_device<i32>(pat.index.size(), q_);
    q_.memcpy(idxd, pat.index_data(), pat.index.size() * sizeof(i32));
    count_h2d(pat.index.size() * sizeof(i32));
    char* patd = nullptr;
    u16* maskd = nullptr;
    if (packs_words()) {
      maskd = sycl::malloc_device<u16>(pat.mask.size(), q_);
      q_.memcpy(maskd, pat.mask_data(), pat.mask.size() * sizeof(u16));
      count_h2d(pat.mask.size() * sizeof(u16));
    } else {
      patd = sycl::malloc_device<char>(pat.device_chars(), q_);
      q_.memcpy(patd, pat.data(), pat.device_chars());
      count_h2d(pat.device_chars());
    }
    zero_count(count_);

    const char* chr = chr_;
    const util::u64* chr2 = chr2_;
    const util::u64* amb2 = amb2_;
    u32* loci = loci_;
    char* flag = flag_;
    u32* count = count_;
    const u32 plen = pat.plen;
    const u32 entry_cap = static_cast<u32>(loci_cap);
    const sycl::nd_range<1> ndr{sycl::range<1>(gws), sycl::range<1>(lws)};
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("finder");
       if (packs_words()) {
         // No local memory, no barrier: reads the words and constants
         // straight from device memory. Non-counting runs install the lane
         // body too (finder_swar_lanes).
         cgh.cof_hint_no_barrier();
         finder_swar_args a;
         a.chr_packed2 = chr2;
         a.chr_amb2 = amb2;
         a.pat_mask = maskd;
         a.pat_index = idxd;
         a.chrsize = chrsize;
         a.plen = plen;
         a.loci = loci;
         a.flag = flag;
         a.entrycount = count;
         a.entry_capacity = entry_cap;
         const auto kernel = [=](sycl::nd_item<1> item) { finder_swar_kernel<P>(item, a); };
         if (opt_.counting) {
           cgh.parallel_for(ndr, kernel);
         } else {
           cgh.cof_parallel_for_lanes(ndr, kernel, [=](size_t first, size_t nlanes) {
             finder_swar_lanes(a, first, nlanes);
           });
         }
         return;
       }
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       sycl::local_accessor<char, 1> l_pat(sycl::range<1>(pat.device_chars()), cgh);
       sycl::local_accessor<i32, 1> l_idx(sycl::range<1>(pat.index.size()), cgh);
       cgh.parallel_for(ndr, [=](sycl::nd_item<1> item) {
         finder_args a;
         a.chr = chr;
         a.pat = patd;
         a.pat_index = idxd;
         a.chrsize = chrsize;
         a.plen = plen;
         a.loci = loci;
         a.flag = flag;
         a.entrycount = count;
         a.entry_capacity = entry_cap;
         a.l_pat = l_pat.get_pointer();
         a.l_pat_index = l_idx.get_pointer();
         finder_kernel<P>(item, a);
       });
     }).wait();
    const util::u64 nanos = q_.cof_last_launch().wall_nanos;

    sycl::free(patd, q_);
    sycl::free(idxd, q_);
    sycl::free(maskd, q_);
    return {read_count(count_), nanos};
  }

  /// A per-query comparer launch's device outputs.
  struct comparer_out {
    u16* mm;
    char* dir;
    u32* loci;
    u32* count;
  };

  comparer_out alloc_out(usize cap) {
    comparer_out o{sycl::malloc_device<u16>(cap, q_), sycl::malloc_device<char>(cap, q_),
                   sycl::malloc_device<u32>(cap, q_), sycl::malloc_device<u32>(1, q_)};
    zero_count(o.count);
    return o;
  }

  /// Read the launch's count back, download its entries into `out` when
  /// they fit `cap`, and free the outputs.
  u32 read_out(const comparer_out& o, usize cap, entries& out) {
    const u32 n = read_count(o.count);
    if (n != 0 && n <= cap) {
      out.resize(n);
      q_.memcpy(out.mm.data(), o.mm, n * sizeof(u16));
      q_.memcpy(out.dir.data(), o.dir, n);
      q_.memcpy(out.loci.data(), o.loci, n * sizeof(u32));
    }
    sycl::free(o.mm, q_);
    sycl::free(o.dir, q_);
    sycl::free(o.loci, q_);
    sycl::free(o.count, q_);
    return n;
  }

  /// One query's per-query comparer (base..opt4).
  launch_stats launch_comparer(const device_pattern& query, u16 threshold, u32 locicnt,
                               usize cap, entries& out) override {
    const comparer_out o = alloc_out(cap);
    opt_.counting ? comparer<counting_mem>(query, threshold, locicnt, cap, o)
                  : comparer<direct_mem>(query, threshold, locicnt, cap, o);
    const util::u64 nanos = q_.cof_last_launch().wall_nanos;
    return {read_out(o, cap, out), nanos};
  }

  template <class P>
  void comparer(const device_pattern& query, u16 threshold, u32 locicnt, usize cap,
                const comparer_out& o) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt, lws);

    char* compd = sycl::malloc_device<char>(query.device_chars(), q_);
    i32* cidxd = sycl::malloc_device<i32>(query.index.size(), q_);
    q_.memcpy(compd, query.data(), query.device_chars());
    q_.memcpy(cidxd, query.index_data(), query.index.size() * sizeof(i32));
    count_h2d(query.device_chars() + query.index.size() * sizeof(i32));

    const comparer_variant variant = opt_.variant;
    const char* chr = chr_;
    const u32* loci = loci_;
    const char* flag = flag_;
    const u32 plen = query.plen;
    const u32 entry_cap = static_cast<u32>(cap);
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tags().comparer.c_str());
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       sycl::local_accessor<char, 1> l_comp(sycl::range<1>(query.device_chars()), cgh);
       sycl::local_accessor<i32, 1> l_cidx(sycl::range<1>(query.index.size()), cgh);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          comparer_args a;
                          a.locicnts = locicnt;
                          a.chr = chr;
                          a.loci = loci;
                          a.flag = flag;
                          a.comp = compd;
                          a.comp_index = cidxd;
                          a.plen = plen;
                          a.threshold = threshold;
                          a.mm_count = o.mm;
                          a.direction = o.dir;
                          a.mm_loci = o.loci;
                          a.entrycount = o.count;
                          a.entry_capacity = entry_cap;
                          a.l_comp = l_comp.get_pointer();
                          a.l_comp_index = l_cidx.get_pointer();
                          comparer_dispatch<P>(variant, item, a);
                        });
     }).wait();
    sycl::free(compd, q_);
    sycl::free(cidxd, q_);
  }

  /// opt6's comparer, launch half: one multi-query kernel over the
  /// device-resident loci/flag arrays; output allocations stay on device
  /// (staged members) until read_batch downloads and frees them.
  util::u64 launch_batch(const query_batch& b, u32 locicnt, usize cap) override {
    release_batch();
    batch_mm_ = sycl::malloc_device<u16>(cap, q_);
    batch_dir_ = sycl::malloc_device<char>(cap, q_);
    batch_loci_ = sycl::malloc_device<u32>(cap, q_);
    batch_query_ = sycl::malloc_device<u16>(cap, q_);
    batch_count_ = sycl::malloc_device<u32>(1, q_);
    zero_count(batch_count_);
    opt_.counting ? batch<counting_mem>(b, locicnt, cap)
                  : batch<direct_mem>(b, locicnt, cap);
    return q_.cof_last_launch().wall_nanos;
  }

  /// The multi-query SWAR kernel (comparer_multi_swar_kernel), each
  /// locus's window built once. Non-counting runs install the lane-batched
  /// row body too (AVX2 when the host has it, scalar otherwise).
  template <class P>
  void batch(const query_batch& b, u32 locicnt, usize cap) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt, lws);
    const u32 nq = b.queries;

    util::u64* csward = sycl::malloc_device<util::u64>(b.swar.size(), q_);
    u16* thrd = sycl::malloc_device<u16>(nq, q_);
    q_.memcpy(csward, b.swar.data(), b.swar.size() * sizeof(util::u64));
    q_.memcpy(thrd, b.thresholds, nq * sizeof(u16));
    count_h2d(b.swar.size() * sizeof(util::u64) + nq * sizeof(u16));

    comparer_multi_swar_args base;
    base.locicnts = locicnt;
    base.chr_packed2 = chr2_;
    base.chr_amb2 = amb2_;
    base.loci = loci_;
    base.flag = flag_;
    base.comp_swar = csward;
    base.thresholds = thrd;
    base.nqueries = nq;
    base.plen = b.plen;
    base.swar_words = b.swar_words;
    base.mm_count = batch_mm_;
    base.direction = batch_dir_;
    base.mm_loci = batch_loci_;
    base.mm_query = batch_query_;
    base.entrycount = batch_count_;
    base.entry_capacity = static_cast<u32>(cap);
    const sycl::nd_range<1> ndr{sycl::range<1>(gws), sycl::range<1>(lws)};
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tags().comparer.c_str());
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       sycl::local_accessor<util::u64, 1> l_swar(sycl::range<1>(b.swar.size()), cgh);
       const auto kernel = [=](sycl::nd_item<1> item) {
         comparer_multi_swar_args a = base;
         a.l_comp_swar = l_swar.get_pointer();
         comparer_multi_swar_kernel<P>(item, a);
       };
       if (opt_.counting) {
         cgh.parallel_for(ndr, kernel);
       } else {
         cgh.cof_parallel_for_lanes(ndr, kernel, [=](size_t first, size_t nlanes) {
           comparer_multi_swar_args a = base;
           // Lane rows skip the cooperative fetch; masks come straight from
           // the device-global array (read-only through this alias).
           a.l_comp_swar = const_cast<util::u64*>(a.comp_swar);
           comparer_multi_swar_lanes(a, first, nlanes);
         });
       }
     }).wait();
    sycl::free(csward, q_);
    sycl::free(thrd, q_);
  }

  /// opt6's comparer, read half: deferred download + free of the staged
  /// device allocations.
  u32 read_batch(usize cap, entries& out) override {
    const u32 n = read_count(batch_count_);
    if (n != 0 && n <= cap) {
      out.resize(n);
      out.qidx.resize(n);
      q_.memcpy(out.mm.data(), batch_mm_, n * sizeof(u16));
      q_.memcpy(out.dir.data(), batch_dir_, n);
      q_.memcpy(out.loci.data(), batch_loci_, n * sizeof(u32));
      q_.memcpy(out.qidx.data(), batch_query_, n * sizeof(u16));
    }
    release_batch();
    return n;
  }

  void release_batch() {
    sycl::free(batch_mm_, q_);
    sycl::free(batch_dir_, q_);
    sycl::free(batch_loci_, q_);
    sycl::free(batch_query_, q_);
    sycl::free(batch_count_, q_);
    batch_mm_ = nullptr;
    batch_dir_ = nullptr;
    batch_loci_ = nullptr;
    batch_query_ = nullptr;
    batch_count_ = nullptr;
  }

  sycl::queue q_;
  char* chr_ = nullptr;  // base..opt4: the chunk's chars
  // opt6: the chunk's 2-bit words + ambiguity flags (see kernels_swar.hpp).
  util::u64* chr2_ = nullptr;
  util::u64* amb2_ = nullptr;
  u32* loci_ = nullptr;
  char* flag_ = nullptr;
  u32* count_ = nullptr;
  // Staged output of the last launch_batch (freed by read_batch, the next
  // launch_batch, or the destructor).
  u16* batch_mm_ = nullptr;
  char* batch_dir_ = nullptr;
  u32* batch_loci_ = nullptr;
  u16* batch_query_ = nullptr;
  u32* batch_count_ = nullptr;
};

}  // namespace

std::unique_ptr<device_pipeline> make_sycl_usm_pipeline(const pipeline_options& opt) {
  return std::make_unique<sycl_usm_pipeline>(opt);
}

}  // namespace cof
