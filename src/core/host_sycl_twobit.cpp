// SYCL host program over 2-bit packed chunks (the upstream memory
// optimisation, §V [21]): the host packs each chunk with genome::twobit_seq
// and uploads ~3/8 of the char payload (2 bits/base + 1 ambiguity bit/base).
// Under opt6 it uploads the producer's packed words instead (kernels_swar.hpp)
// and runs the packed-word finder and comparer over them; no chars and no
// second encoding reach the device.
#include <algorithm>
#include <optional>

#include "core/kernels_swar.hpp"
#include "core/kernels_twobit.hpp"
#include "core/pipeline.hpp"
#include "genome/twobit.hpp"
#include "syclsim/sycl.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace cof {

namespace {

class sycl_twobit_pipeline final : public device_pipeline {
 public:
  // No multi-query kernel: launch_comparer_batch stages per-query launches.
  explicit sycl_twobit_pipeline(const pipeline_options& opt)
      : device_pipeline(opt, "sycl-2bit",
                        comparer_variant_packs_words(opt.variant)
                            ? kernel_tags{"finder/2bit-opt6", "comparer/2bit-opt6", ""}
                            : kernel_tags{"finder/2bit", "comparer/2bit", ""}),
        q_(sycl::gpu_selector{}) {
    if (opt_.wg_size == 0) opt_.wg_size = 256;
  }

 private:
  /// Bytes upload puts on the device for a chunk of `bases`: the two word
  /// arrays under opt6, else the nibble-packed codes (4 bases/byte) and the
  /// ambiguity bitmask (64 bases/u64).
  usize chunk_bytes(usize bases) const override {
    if (packs_words()) return swar_ref_bytes(bases);
    return (bases + 3) / 4 + (bases + 63) / 64 * sizeof(u64);
  }

  /// Upload the chunk (nibble-packed, or the producer's words under opt6),
  /// allocate hit arrays for `hit_cap` entries and write any prebuilt hits
  /// into them.
  void upload(const packed_chunk& ch, usize hit_cap, std::span<const u32> loci,
              std::span<const char> flags) override {
    if (packs_words()) {
      // opt6: the producer's words in SWAR geometry (32 bases/u64 plus tail
      // padding) are the only copy of the chunk on the device.
      const swar_ref& words = words_of(ch);
      chr2_buf_.emplace(words.packed2.data(), sycl::range<1>(words.packed2.size()));
      amb2_buf_.emplace(words.amb2.data(), sycl::range<1>(words.amb2.size()));
    } else {
      packed_ = genome::twobit_seq::encode(ch.text);
      packed_buf_.emplace(packed_.packed().data(),
                          sycl::range<1>(std::max<usize>(1, packed_.packed_bytes())));
      amb_buf_.emplace(
          packed_.ambiguity_words().data(),
          sycl::range<1>(std::max<usize>(1, packed_.ambiguity_words().size())));
    }
    alloc_hits(hit_cap);
    count_buf_.emplace(sycl::range<1>(1));
    if (!loci.empty()) {
      copy_in(loci.data(), *loci_buf_, loci.size());
      copy_in(flags.data(), *flag_buf_, flags.size());
    }
  }

  void alloc_hits(usize cap) override {
    loci_buf_.emplace(sycl::range<1>(std::max<usize>(1, cap)));
    flag_buf_.emplace(sycl::range<1>(std::max<usize>(1, cap)));
  }

  void read_hits(u32 n, u32* loci, char* flags) override {
    if (loci != nullptr) copy_out(*loci_buf_, n, loci);
    if (flags != nullptr) copy_out(*flag_buf_, n, flags);
  }

  /// Write `n` host elements into the front of `buf` through a ranged
  /// write accessor.
  template <class T>
  void copy_in(const T* src, sycl::buffer<T, 1>& buf, usize n) {
    q_.submit([&](sycl::handler& cgh) {
       auto acc = buf.template get_access<sycl::sycl_write>(cgh, sycl::range<1>(n),
                                                            sycl::id<1>(0));
       cgh.copy(src, acc);
     }).wait();
  }

  /// Read the first `n` elements of `buf` back through a ranged accessor.
  template <class T>
  void copy_out(sycl::buffer<T, 1>& buf, usize n, T* dst) {
    q_.submit([&](sycl::handler& cgh) {
       auto acc = buf.template get_access<sycl::sycl_read>(cgh, sycl::range<1>(n),
                                                           sycl::id<1>(0));
       cgh.copy(acc, dst);
     }).wait();
  }

  void zero_count(sycl::buffer<u32, 1>& buf) {
    const u32 zero = 0;
    copy_in(&zero, buf, 1);
  }

  u32 read_count(sycl::buffer<u32, 1>& buf) {
    u32 count = 0;
    copy_out(buf, 1, &count);
    return count;
  }

  launch_stats launch_finder(const device_pattern& pat, u32 chrsize, usize cap) override {
    zero_count(*count_buf_);
    if (packs_words()) {
      opt_.counting ? submit_finder_swar<counting_mem>(pat, chrsize, cap)
                    : submit_finder_swar<direct_mem>(pat, chrsize, cap);
    } else {
      opt_.counting ? submit_finder<counting_mem>(pat, chrsize, cap)
                    : submit_finder<direct_mem>(pat, chrsize, cap);
    }
    const util::u64 nanos = q_.cof_last_launch().wall_nanos;
    return {read_count(*count_buf_), nanos};
  }

  /// The nibble-packed finder (base..opt5): one work-item per start
  /// position, pattern chars in local memory behind a barrier.
  template <class P>
  void submit_finder(const device_pattern& pat, u32 chrsize, usize loci_cap) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(chrsize, lws);
    sycl::buffer<char, 1> pat_buf(pat.data(), sycl::range<1>(pat.device_chars()));
    sycl::buffer<i32, 1> idx_buf(pat.index_data(), sycl::range<1>(pat.index.size()));
    count_h2d(pat.device_chars() + pat.index.size() * sizeof(i32));
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("finder/2bit");
       auto packed = packed_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb = amb_buf_->get_access<sycl::sycl_read>(cgh);
       auto patc = pat_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto pidx = idx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_write>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_write>(cgh);
       auto cnt = count_buf_->get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<char, 1> l_pat(sycl::range<1>(pat.device_chars()), cgh);
       sycl::local_accessor<i32, 1> l_idx(sycl::range<1>(pat.index.size()), cgh);
       const u32 plen = pat.plen;
       const u32 entry_cap = static_cast<u32>(loci_cap);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          finder_twobit_args a;
                          a.chr_packed = reinterpret_cast<const u8*>(packed.get_pointer());
                          a.chr_amb = amb.get_pointer();
                          a.pat = patc.get_pointer();
                          a.pat_index = pidx.get_pointer();
                          a.chrsize = chrsize;
                          a.plen = plen;
                          a.loci = loci.get_pointer();
                          a.flag = flag.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = entry_cap;
                          a.l_pat = l_pat.get_pointer();
                          a.l_pat_index = l_idx.get_pointer();
                          finder_twobit_kernel<P>(item, a);
                        });
     }).wait();
  }

  /// opt6: the packed-word finder over the producer's words (no local
  /// memory, no barrier, 32 start positions per work-item).
  template <class P>
  void submit_finder_swar(const device_pattern& pat, u32 chrsize, usize loci_cap) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(swar_finder_items(chrsize), lws);
    sycl::buffer<i32, 1> idx_buf(pat.index_data(), sycl::range<1>(pat.index.size()));
    sycl::buffer<u16, 1> mask_buf(pat.mask_data(), sycl::range<1>(pat.mask.size()));
    count_h2d(pat.index.size() * sizeof(i32) + pat.mask.size() * sizeof(u16));
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("finder/2bit-opt6");
       cgh.cof_hint_no_barrier();
       auto chr2 = chr2_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb2 = amb2_buf_->get_access<sycl::sycl_read>(cgh);
       auto pidx = idx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto pmask = mask_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_write>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_write>(cgh);
       auto cnt = count_buf_->get_access<sycl::sycl_read_write>(cgh);
       const u32 plen = pat.plen;
       const u32 entry_cap = static_cast<u32>(loci_cap);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          finder_swar_args a;
                          a.chr_packed2 = chr2.get_pointer();
                          a.chr_amb2 = amb2.get_pointer();
                          a.pat_mask = pmask.get_pointer();
                          a.pat_index = pidx.get_pointer();
                          a.chrsize = chrsize;
                          a.plen = plen;
                          a.loci = loci.get_pointer();
                          a.flag = flag.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = entry_cap;
                          finder_swar_kernel<P>(item, a);
                        });
     }).wait();
  }

  /// A per-query comparer launch's output buffers.
  struct comparer_out {
    sycl::buffer<u16, 1>& mm;
    sycl::buffer<char, 1>& dir;
    sycl::buffer<u32, 1>& loci;
    sycl::buffer<u32, 1>& count;
  };

  /// One query's comparer: device-local outputs for `cap` entries, released
  /// with this frame.
  launch_stats launch_comparer(const device_pattern& query, u16 threshold, u32 locicnt,
                               usize cap, entries& out) override {
    sycl::buffer<u16, 1> mm_buf{sycl::range<1>(cap)};
    sycl::buffer<char, 1> dir_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> mm_loci_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> ccount_buf{sycl::range<1>(1)};
    zero_count(ccount_buf);
    const comparer_out o{mm_buf, dir_buf, mm_loci_buf, ccount_buf};
    if (packs_words()) {
      opt_.counting ? submit_comparer_swar<counting_mem>(query, threshold, locicnt, cap, o)
                    : submit_comparer_swar<direct_mem>(query, threshold, locicnt, cap, o);
    } else {
      opt_.counting ? submit_comparer<counting_mem>(query, threshold, locicnt, cap, o)
                    : submit_comparer<direct_mem>(query, threshold, locicnt, cap, o);
    }
    const util::u64 nanos = q_.cof_last_launch().wall_nanos;
    const u32 n = read_count(ccount_buf);
    if (n != 0 && n <= cap) {
      out.resize(n);
      copy_out(mm_buf, n, out.mm.data());
      copy_out(dir_buf, n, out.dir.data());
      copy_out(mm_loci_buf, n, out.loci.data());
    }
    return {n, nanos};
  }

  template <class P>
  void submit_comparer(const device_pattern& query, u16 threshold, u32 locicnt, usize cap,
                       const comparer_out& o) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt, lws);
    sycl::buffer<char, 1> comp_buf(query.data(), sycl::range<1>(query.device_chars()));
    sycl::buffer<i32, 1> cidx_buf(query.index_data(),
                                  sycl::range<1>(query.index.size()));
    count_h2d(query.device_chars() + query.index.size() * sizeof(i32));
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("comparer/2bit");
       auto packed = packed_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb = amb_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto comp = comp_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto cidx = cidx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = o.mm.get_access<sycl::sycl_write>(cgh);
       auto dir = o.dir.get_access<sycl::sycl_write>(cgh);
       auto mloci = o.loci.get_access<sycl::sycl_write>(cgh);
       auto cnt = o.count.get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<char, 1> l_comp(sycl::range<1>(query.device_chars()), cgh);
       sycl::local_accessor<i32, 1> l_cidx(sycl::range<1>(query.index.size()), cgh);
       const u32 plen = query.plen;
       const u32 entry_cap = static_cast<u32>(cap);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          comparer_twobit_args a;
                          a.locicnts = locicnt;
                          a.chr_packed = reinterpret_cast<const u8*>(packed.get_pointer());
                          a.chr_amb = amb.get_pointer();
                          a.loci = loci.get_pointer();
                          a.flag = flag.get_pointer();
                          a.comp = comp.get_pointer();
                          a.comp_index = cidx.get_pointer();
                          a.plen = plen;
                          a.threshold = threshold;
                          a.mm_count = mm.get_pointer();
                          a.direction = dir.get_pointer();
                          a.mm_loci = mloci.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = entry_cap;
                          a.l_comp = l_comp.get_pointer();
                          a.l_comp_index = l_cidx.get_pointer();
                          comparer_twobit_kernel<P>(item, a);
                        });
     }).wait();
  }

  /// opt6: SWAR comparer over the chunk's words. CharRef = false — this
  /// facade never keeps the raw chars resident, so ambiguous reference bases
  /// take the collapsed-'N' path (the per-word 'N' deny mask), exactly the
  /// semantics of comparer_twobit_kernel. Non-counting runs install the
  /// lane-batched row body for the executor's SIMD dispatch.
  template <class P>
  void submit_comparer_swar(const device_pattern& query, u16 threshold, u32 locicnt,
                            usize cap, const comparer_out& o) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt, lws);
    sycl::buffer<u64, 1> cswar_buf(query.swar_data(), sycl::range<1>(query.swar.size()));
    count_h2d(query.swar.size() * sizeof(u64));

    const u32 plen = query.plen;
    const u32 swar_words = query.swar_words;
    const sycl::nd_range<1> ndr{sycl::range<1>(gws), sycl::range<1>(lws)};
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("comparer/2bit-opt6");
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr2 = chr2_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb2 = amb2_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto cswar = cswar_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = o.mm.get_access<sycl::sycl_write>(cgh);
       auto dir = o.dir.get_access<sycl::sycl_write>(cgh);
       auto mloci = o.loci.get_access<sycl::sycl_write>(cgh);
       auto cnt = o.count.get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<u64, 1> l_swar(sycl::range<1>(query.swar.size()), cgh);
       const auto fill_args = [=](comparer_swar_args& a) {
         a.locicnts = locicnt;
         a.chr_packed2 = chr2.get_pointer();
         a.chr_amb2 = amb2.get_pointer();
         a.loci = loci.get_pointer();
         a.flag = flag.get_pointer();
         a.comp_swar = cswar.get_pointer();
         a.plen = plen;
         a.swar_words = swar_words;
         a.threshold = threshold;
         a.mm_count = mm.get_pointer();
         a.direction = dir.get_pointer();
         a.mm_loci = mloci.get_pointer();
         a.entrycount = cnt.get_pointer();
         a.entry_capacity = static_cast<u32>(cap);
       };
       const auto kernel = [=](sycl::nd_item<1> item) {
         comparer_swar_args a;
         fill_args(a);
         a.l_comp_swar = l_swar.get_pointer();
         comparer_swar_kernel<P, sycl::nd_item<1>, false>(item, a);
       };
       if (opt_.counting) {
         cgh.parallel_for(ndr, kernel);
       } else {
         cgh.cof_parallel_for_lanes(ndr, kernel, [=](size_t first, size_t nlanes) {
           comparer_swar_args a;
           fill_args(a);
           // Lane rows skip the cooperative fetch; masks come straight from
           // the constant-memory array.
           a.l_comp_swar = cswar.get_pointer();
           comparer_swar_lanes<false>(a, first, nlanes);
         });
       }
     }).wait();
  }

  sycl::queue q_;
  genome::twobit_seq packed_;
  std::optional<sycl::buffer<u8, 1>> packed_buf_;
  std::optional<sycl::buffer<u64, 1>> amb_buf_;
  std::optional<sycl::buffer<u64, 1>> chr2_buf_;  // opt6: the chunk's words
  std::optional<sycl::buffer<u64, 1>> amb2_buf_;  // opt6: their ambiguity flags
  std::optional<sycl::buffer<u32, 1>> loci_buf_;
  std::optional<sycl::buffer<char, 1>> flag_buf_;
  std::optional<sycl::buffer<u32, 1>> count_buf_;
};

}  // namespace

std::unique_ptr<device_pipeline> make_sycl_twobit_pipeline(const pipeline_options& opt) {
  return std::make_unique<sycl_twobit_pipeline>(opt);
}

}  // namespace cof
