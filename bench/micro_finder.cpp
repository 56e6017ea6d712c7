// Microbenchmark: finder kernel throughput (positions/s on the simulated
// accelerator) across PAM patterns of different selectivity, for the
// per-position char finder (base) and opt6's packed-word finder side by
// side, plus chunk-size sensitivity of the full finder step. The cold
// streamed search's producer and finder on hg19/256 (about 12 Mbp, 24
// chunks) on one thread: bm_producer_decode reads its FASTA through
// fasta_stream with the streaming engine's chunking, bm_producer_pack
// packs each chunk (swar_pack), and bm_finder_lanes calls the packed-word
// finder's lane body (finder_swar_lanes) over the first chunk with no
// executor dispatch, for the cold search's PAM (NRG) and the served
// index's (CGG), at each SIMD tier (AVX-512, AVX2, scalar). Items are
// bases (positions for the finder).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "core/engine.hpp"
#include "core/kernels_swar.hpp"
#include "core/pipeline.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "genome/synth.hpp"
#include "lane_tier.hpp"
#include "util/log.hpp"

namespace {

using util::u32;
using util::usize;

genome::genome_t& test_genome() {
  static genome::genome_t g = [] {
    util::set_log_level(util::log_level::warn);
    return genome::generate(genome::hg19_like(8192, 13));
  }();
  return g;
}

// PAMs of decreasing selectivity: more hits -> larger loci traffic.
const char* kPatterns[] = {
    "NNNNNNNNNNNNNNNNNNNNTGG",  // fixed 3-base PAM (selective)
    "NNNNNNNNNNNNNNNNNNNNNGG",  // NGG
    "NNNNNNNNNNNNNNNNNNNNNRG",  // NRG (the paper's pattern)
    "NNNNNNNNNNNNNNNNNNNNNNG",  // NNG (permissive)
};

// Finder variants of the PAM sweep: the char finder every base..opt4 run
// uses, and opt6's packed-word finder (32 start positions per work-item).
const cof::comparer_variant kFinderVariants[] = {cof::comparer_variant::base,
                                                 cof::comparer_variant::opt6};

void bm_finder_pam(benchmark::State& state) {
  auto& g = test_genome();
  const char* pattern = kPatterns[state.range(0)];
  const cof::comparer_variant variant = kFinderVariants[state.range(1)];
  const auto pat = cof::make_pattern(pattern);
  cof::pipeline_options opt;
  opt.variant = variant;
  opt.wg_size = 256;
  auto pipe = cof::make_sycl_pipeline(opt);
  const auto& seq = g.chroms[0].seq;
  pipe->load_chunk(std::string_view(seq.data(), seq.size()));
  util::u64 hits = 0;
  for (auto _ : state) {
    hits = pipe->run_finder(pat);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seq.size()));
  state.counters["hit_rate_pct"] =
      100.0 * static_cast<double>(hits) / static_cast<double>(seq.size());
  state.SetLabel(std::string(pattern + 18) +
                 (variant == cof::comparer_variant::opt6 ? " packed" : " char"));
}

void bm_finder_chunk_size(benchmark::State& state) {
  auto& g = test_genome();
  const auto pat = cof::make_pattern("NNNNNNNNNNNNNNNNNNNNNRG");
  cof::pipeline_options opt;
  opt.variant = cof::comparer_variant::base;
  opt.wg_size = 256;
  auto pipe = cof::make_sycl_pipeline(opt);
  const auto chunk = static_cast<util::usize>(state.range(0));
  const auto& seq = g.chroms[0].seq;
  for (auto _ : state) {
    util::u64 total = 0;
    for (util::usize off = 0; off < seq.size(); off += chunk) {
      const auto len = std::min(chunk, seq.size() - off);
      pipe->load_chunk(std::string_view(seq.data() + off, len));
      total += pipe->run_finder(pat);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seq.size()));
}

/// hg19/256 written once as FASTA (60-base lines) under the temp
/// directory (TMPDIR), removed at exit, and its chunks as the streaming
/// engine cuts them for a 23-base pattern.
struct producer_fixture {
  static constexpr usize kOverlap = 23 - 1;
  std::filesystem::path fasta;
  std::vector<std::string> chunks;
  usize bases = 0;

  producer_fixture()
      : fasta(std::filesystem::temp_directory_path() /
              ("cof_micro_finder_" + std::to_string(::getpid()) + ".fa")) {
    util::set_log_level(util::log_level::warn);
    const auto g = genome::generate(genome::hg19_like(256, 7));
    genome::write_fasta_file(fasta.string(), g.chroms);
    bases = g.total_bases();
    decode([this](std::string& text) { chunks.push_back(std::move(text)); });
  }
  ~producer_fixture() { std::filesystem::remove(fasta); }
  producer_fixture(const producer_fixture&) = delete;
  producer_fixture& operator=(const producer_fixture&) = delete;

  /// The streaming engine's FASTA chunking: chunks of up to max_chunk bases
  /// per record, kOverlap bases carried across each chunk boundary.
  template <class Sink>
  void decode(Sink&& sink) const {
    const usize max_chunk = cof::engine_options{}.max_chunk;
    genome::fasta_stream s(fasta.string());
    while (s.next_record()) {
      std::string carry;
      for (;;) {
        std::string buf = std::move(carry);
        carry.clear();
        if (s.read_bases(buf, max_chunk - buf.size()) == 0) break;
        const bool done = buf.size() < max_chunk;
        if (!done) carry.assign(buf, buf.size() - kOverlap, kOverlap);
        sink(buf);
        if (done) break;
      }
    }
  }

  static producer_fixture& get() {
    static producer_fixture f;
    return f;
  }
};

void bm_producer_decode(benchmark::State& state) {
  const auto& f = producer_fixture::get();
  for (auto _ : state) {
    usize decoded = 0;
    f.decode([&decoded](std::string& text) {
      decoded += text.size();
      benchmark::DoNotOptimize(text.data());
    });
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.bases));
  state.counters["chunks"] = static_cast<double>(f.chunks.size());
}

void bm_producer_pack(benchmark::State& state) {
  const auto& f = producer_fixture::get();
  usize packed = 0;
  for (auto _ : state) {
    for (const auto& text : f.chunks) {
      const cof::swar_ref ref = cof::swar_pack(text);
      benchmark::DoNotOptimize(ref.packed2.data());
      benchmark::DoNotOptimize(ref.amb2.data());
      packed += text.size();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(packed));
}

/// bm_finder_lanes' shapes: the cold search's PAM and the served index's.
const char* const kLanePams[] = {"NNNNNNNNNNNNNNNNNNNNNRG", "NNNNNNNNNNNNNNNNNNNNCGG"};

void bm_finder_lanes(benchmark::State& state) {
  const auto& seq = producer_fixture::get().chunks.front();
  const cof::swar_ref ref = cof::swar_pack(seq);
  const bench::tier_pin tier(state, 1);
  if (!tier.ok) return;
  const char* pam = kLanePams[state.range(0)];
  const auto pat = cof::make_pattern(pam);
  const u32 chrsize = static_cast<u32>(seq.size() - pat.plen + 1);
  std::vector<u32> loci(chrsize);
  std::vector<char> flag(chrsize);
  u32 count = 0;
  cof::finder_swar_args a;
  a.chr_packed2 = ref.packed2.data();
  a.chr_amb2 = ref.amb2.data();
  a.pat_mask = pat.mask_data();
  a.pat_index = pat.index_data();
  a.chrsize = chrsize;
  a.plen = pat.plen;
  a.loci = loci.data();
  a.flag = flag.data();
  a.entrycount = &count;
  a.entry_capacity = chrsize;
  for (auto _ : state) {
    count = 0;
    cof::finder_swar_lanes(a, 0, cof::swar_finder_items(chrsize));
    benchmark::DoNotOptimize(loci.data());
    benchmark::DoNotOptimize(count);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * chrsize));
  state.counters["loci"] = static_cast<double>(count);
  state.SetLabel(std::string(pam + 20) + " | " + util::tier_name(util::lane_tier()));
}

}  // namespace

BENCHMARK(bm_producer_decode)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_producer_pack)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_finder_lanes)
    ->ArgsProduct({{0, 1}, bench::kLaneTiers})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_finder_pam)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 3, 1), {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_finder_chunk_size)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->Arg(256 << 10)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
