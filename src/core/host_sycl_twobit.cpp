// SYCL host program over 2-bit packed chunks (the upstream memory
// optimisation, §V [21]): the host packs each chunk with genome::twobit_seq
// and uploads ~3/8 of the char payload (2 bits/base + 1 ambiguity bit/base)
// for the nibble kernels of base..opt4, one comparer launch per guide. opt6
// already runs on packed words on every facade, so under opt6 the factory
// hands out the buffer-SYCL host program, batched comparer included, under
// this facade's name and launch names instead.
#include <algorithm>
#include <optional>

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
  explicit sycl_twobit_pipeline(const pipeline_options& opt)
      : device_pipeline(opt, "sycl-2bit", {"finder/2bit", "comparer/2bit"}),
        q_(sycl::gpu_selector{}) {
    if (opt_.wg_size == 0) opt_.wg_size = 256;
  }

 private:
  /// Bytes upload puts on the device for a chunk of `bases`: the
  /// nibble-packed codes (4 bases/byte) and the ambiguity bitmask (64
  /// bases/u64).
  usize chunk_bytes(usize bases) const override {
    return (bases + 3) / 4 + (bases + 63) / 64 * sizeof(u64);
  }

  /// Upload the chunk nibble-packed, allocate hit arrays for `hit_cap`
  /// entries and write any prebuilt hits into them.
  void upload(const packed_chunk& ch, usize hit_cap, std::span<const u32> loci,
              std::span<const char> flags) override {
    packed_ = genome::twobit_seq::encode(ch.text);
    packed_buf_.emplace(packed_.packed().data(),
                        sycl::range<1>(std::max<usize>(1, packed_.packed_bytes())));
    amb_buf_.emplace(packed_.ambiguity_words().data(),
                     sycl::range<1>(std::max<usize>(1, packed_.ambiguity_words().size())));
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
    opt_.counting ? submit_finder<counting_mem>(pat, chrsize, cap)
                  : submit_finder<direct_mem>(pat, chrsize, cap);
    const util::u64 nanos = q_.cof_last_launch().wall_nanos;
    return {read_count(*count_buf_), nanos};
  }

  /// The nibble-packed finder (base..opt4): one work-item per start
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
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
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
    opt_.counting ? submit_comparer<counting_mem>(query, threshold, locicnt, cap, o)
                  : submit_comparer<direct_mem>(query, threshold, locicnt, cap, o);
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
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
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

  sycl::queue q_;
  genome::twobit_seq packed_;
  std::optional<sycl::buffer<u8, 1>> packed_buf_;
  std::optional<sycl::buffer<u64, 1>> amb_buf_;
  std::optional<sycl::buffer<u32, 1>> loci_buf_;
  std::optional<sycl::buffer<char, 1>> flag_buf_;
  std::optional<sycl::buffer<u32, 1>> count_buf_;
};

}  // namespace

std::unique_ptr<device_pipeline> make_sycl_twobit_pipeline(const pipeline_options& opt) {
  if (comparer_variant_packs_words(opt.variant)) {
    return make_sycl_pipeline(opt, "sycl-2bit", {"finder/2bit-opt6", "comparer/2bit-opt6"});
  }
  return std::make_unique<sycl_twobit_pipeline>(opt);
}

}  // namespace cof
