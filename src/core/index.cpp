#include "core/index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>

#include "core/recovery.hpp"
#include "fault/fault.hpp"
#include "genome/chunker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cof {

namespace {

using util::u64;
using util::u8;

constexpr u32 kIndexMagic = 0x58464F43;  // "COFX" read little-endian
constexpr u32 kIndexVersion = 2;

// The payload holds packed words, loci and flags as the host lays them out,
// so save_index and load_index copy them with memcpy.
static_assert(std::endian::native == std::endian::little,
              ".cofidx is little-endian: a big-endian host must byte-swap its fields");

/// Bytes of a chunk record's fixed head: chrom_index, text_len, start,
/// n_runs and n_loci.
constexpr usize kChunkHeadBytes = 24;

[[noreturn]] void reject(const std::string& what) {
  throw index_error(fault::site::index_load, what);
}

u64 payload_checksum(std::string_view payload) {
  util::word_hash h;
  h.feed(payload);
  return h.digest();
}

/// A .cofidx image under construction: sized appends of fields and arrays,
/// and zero padding to the next 8-byte boundary.
struct writer {
  std::string out;

  void put(const void* p, usize n) { out.append(static_cast<const char*>(p), n); }
  void put_u32(u32 v) { put(&v, sizeof v); }
  void put_u64(u64 v) { put(&v, sizeof v); }
  void put_string(const std::string& s) {
    put_u32(static_cast<u32>(s.size()));
    put(s.data(), s.size());
  }
  void pad8() { out.append((8 - out.size() % 8) % 8, '\0'); }
};

/// Bounds-checked reader over an in-memory byte range. Every overrun throws
/// index_error — a truncated or hostile file can never cause an
/// out-of-bounds read.
struct reader {
  std::string_view d;
  usize pos = 0;

  const char* take(usize n) {
    if (n > d.size() - pos) reject("truncated index file");
    const char* p = d.data() + pos;
    pos += n;
    return p;
  }
  template <class T>
  T get() {
    T v;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }
  std::string get_string() {
    const u32 n = get<u32>();
    return std::string(take(n), n);
  }
  /// n values of T into out[0, n) of `out` sized to `size` >= n, which is
  /// allocated only once the range is known to hold them.
  template <class T>
  void get_array(std::vector<T>& out, usize n, usize size) {
    if (n > (d.size() - pos) / sizeof(T)) reject("truncated index file");
    out.assign(size, T{});
    if (n != 0) std::memcpy(out.data(), take(n * sizeof(T)), n * sizeof(T));
  }
  void skip_pad8() { take((8 - pos % 8) % 8); }
};

/// A run of one non-ACGT byte in a chunk: how the .cofidx stores the bases
/// swar_pack flags as ambiguous.
struct amb_run {
  u32 start = 0;
  u32 len = 0;
  char byte = 0;
};

/// The chunk's non-ACGT bytes as maximal runs of one byte. The ambiguity
/// words find each run's start (a zero word skips 32 bases); the text gives
/// its byte and end.
std::vector<amb_run> ambiguous_runs(const index_chunk& ch) {
  COF_CHECK_MSG(ch.words.bases == ch.text.size(), "index chunk without its packed words");
  std::vector<amb_run> runs;
  const std::vector<u64>& amb = ch.words.amb2;
  for (usize pos = 0, w = 0; w < amb.size(); w = pos / 32) {
    const u64 bits = amb[w] & (~u64{0} << (2 * (pos % 32)));
    if (bits == 0) {
      pos = 32 * (w + 1);
      continue;
    }
    const usize start = 32 * w + static_cast<usize>(std::countr_zero(bits)) / 2;
    usize end = start + 1;
    while (end < ch.text.size() && ch.text[end] == ch.text[start]) ++end;
    runs.push_back({static_cast<u32>(start), static_cast<u32>(end - start), ch.text[start]});
    pos = end;
  }
  return runs;
}

/// Sorts a chunk's finder hits by locus, each keeping its strand flag. The
/// finder appends them in atomic order, which changes between runs; sorted,
/// one genome and pattern always build the same index and the same file.
void sort_hits(std::vector<u32>& loci, std::vector<char>& flags) {
  if (std::is_sorted(loci.begin(), loci.end())) return;
  std::vector<u64> keyed(loci.size());
  for (usize i = 0; i < loci.size(); ++i) {
    keyed[i] = u64{loci[i]} << 8 | static_cast<u8>(flags[i]);
  }
  std::sort(keyed.begin(), keyed.end());
  for (usize i = 0; i < keyed.size(); ++i) {
    loci[i] = static_cast<u32>(keyed[i] >> 8);
    flags[i] = static_cast<char>(keyed[i] & 0xff);
  }
}

/// Four bases per packed byte (A=0 C=1 G=2 T=3, LSB first): the four chars
/// of each byte value as one little-endian u32.
constexpr std::array<u32, 256> kByteBases = [] {
  std::array<u32, 256> t{};
  for (u32 b = 0; b < 256; ++b) {
    for (u32 k = 0; k < 4; ++k) {
      t[b] |= u32{static_cast<u8>("ACGT"[(b >> (2 * k)) & 3])} << (8 * k);
    }
  }
  return t;
}();

/// The bases the first `len` codes of `packed2` name, four per table lookup.
std::string decode_words(const std::vector<u64>& packed2, usize len) {
  std::string text(util::round_up<usize>(len, 32), '\0');
  for (usize w = 0; w < util::ceil_div<usize>(len, 32); ++w) {
    for (usize k = 0; k < 8; ++k) {
      std::memcpy(&text[32 * w + 4 * k], &kByteBases[(packed2[w] >> (8 * k)) & 0xff], 4);
    }
  }
  text.resize(len);
  return text;
}

/// Flags bases [begin, end) ambiguous and clears their codes, as swar_pack
/// packs a non-ACGT byte.
void mark_ambiguous(swar_ref& w, usize begin, usize end) {
  for (usize i = begin; i < end;) {
    const usize word = i / 32;
    const usize lo = i % 32;
    const usize hi = std::min<usize>(32, end - 32 * word);
    const u64 lanes =
        (hi == 32 ? ~u64{0} : (u64{1} << (2 * hi)) - 1) & (~u64{0} << (2 * lo));
    w.amb2[word] |= lanes & kSwarEvenBits;
    w.packed2[word] &= ~lanes;
    i = 32 * word + hi;
  }
}

/// Appends one chunk record to the payload (layout in index.hpp).
void write_chunk(writer& out, const index_chunk& ch) {
  const std::vector<amb_run> runs = ambiguous_runs(ch);
  out.put_u32(ch.chrom_index);
  out.put_u32(static_cast<u32>(ch.text.size()));
  out.put_u64(ch.start);
  out.put_u32(static_cast<u32>(runs.size()));
  out.put_u32(static_cast<u32>(ch.loci.size()));
  out.put(ch.words.packed2.data(), util::ceil_div<usize>(ch.text.size(), 32) * sizeof(u64));
  for (const amb_run& r : runs) {
    out.put_u32(r.start);
    out.put_u32(r.len);
  }
  for (const amb_run& r : runs) out.put(&r.byte, 1);
  out.pad8();
  out.put(ch.loci.data(), ch.loci.size() * sizeof(u32));
  out.pad8();
  out.put(ch.flags.data(), ch.flags.size());
  out.pad8();
}

/// Reads one chunk record, checking every count, run, locus and flag
/// against the chunk. The words come from the file, the ambiguity words and
/// the text are rebuilt from the words and the runs, so words ==
/// swar_pack(text) holds whatever the record holds.
index_chunk read_chunk(reader& r, const genome_index& idx) {
  index_chunk ch;
  ch.chrom_index = r.get<u32>();
  if (ch.chrom_index >= idx.chrom_names.size()) reject("chunk chromosome out of range");
  const u32 len = r.get<u32>();
  ch.start = r.get<u64>();
  const u32 nruns = r.get<u32>();
  const u32 nloci = r.get<u32>();
  if (nruns > len) reject("run count past chunk size");
  if (nloci > len) reject("hit count past chunk size");

  swar_ref& w = ch.words;
  w.bases = len;
  r.get_array(w.packed2, util::ceil_div<usize>(len, 32), swar_words_for(len));
  if (len % 32 != 0) w.packed2[len / 32] &= (u64{1} << (2 * (len % 32))) - 1;
  w.amb2.assign(swar_words_for(len), 0);
  ch.text = decode_words(w.packed2, len);

  std::vector<u32> spans;  // (start, len) per run
  r.get_array(spans, 2 * usize{nruns}, 2 * usize{nruns});
  const char* bytes = r.take(nruns);
  r.skip_pad8();
  u64 prev_end = 0;
  for (usize k = 0; k < nruns; ++k) {
    const u64 start = spans[2 * k];
    const u64 n = spans[2 * k + 1];
    const char b = bytes[k];
    if (n == 0) reject("zero-length run");
    if (start < prev_end) reject("runs overlap or are out of order");
    if (start + n > len) reject("run past chunk end");
    if (b == 'A' || b == 'C' || b == 'G' || b == 'T') {
      reject("run byte is a plain base (A/C/G/T)");
    }
    std::memset(ch.text.data() + start, b, n);
    mark_ambiguous(w, start, start + n);
    prev_end = start + n;
  }

  // Warm queries read a full pattern window at every locus — host-side for
  // the site string and in the comparer kernels — so a hostile locus is any
  // that leaves fewer than plen bytes before the chunk end, not just one
  // past it.
  const usize plen = idx.pattern.size();
  r.get_array(ch.loci, nloci, nloci);
  r.skip_pad8();
  for (const u32 locus : ch.loci) {
    if (locus >= len || len - locus < plen) {
      reject("hit locus leaves no pattern window before chunk end");
    }
  }
  r.get_array(ch.flags, nloci, nloci);
  r.skip_pad8();
  for (const char f : ch.flags) {
    if (static_cast<u8>(f) > 2) reject("hit flag outside {0, 1, 2}");
  }
  return ch;
}

/// The whole file, with one sized read.
std::string read_index_file(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::ifstream f(path, std::ios::binary);
  if (ec || !f.good()) reject("cannot open: " + path);
  std::string data(static_cast<usize>(size), '\0');
  if (!f.read(data.data(), static_cast<std::streamsize>(data.size()))) {
    reject("read failed: " + path);
  }
  return data;
}

void check_query_lengths(const genome_index& idx,
                         const std::vector<query_spec>& queries) {
  for (const auto& q : queries) {
    if (q.seq.size() != idx.pattern.size()) {
      throw index_error(fault::site::index_load,
                        "query length " + std::to_string(q.seq.size()) +
                            " != indexed pattern length " +
                            std::to_string(idx.pattern.size()));
    }
  }
}

std::string describe_genome(const std::vector<std::string>& names, u64 bases) {
  return std::to_string(names.size()) + " sequences / " +
         std::to_string(bases) + " bases";
}

/// Throws index_error when the index was built from a different genome
/// than `sum` describes: chromosome names, base count or content hash
/// disagree.
void check_index_matches(const genome_index& idx, const genome::source_summary& sum) {
  if (idx.chrom_names == sum.names && idx.source_bases == sum.total_bases &&
      idx.content_hash == sum.hash) {
    return;
  }
  throw index_error(
      fault::site::index_load,
      "index genome mismatch: built from " +
          describe_genome(idx.chrom_names, idx.source_bases) +
          ", configured genome is " + describe_genome(sum.names, sum.total_bases) +
          (idx.chrom_names == sum.names && idx.source_bases == sum.total_bases
               ? " with different sequence content"
               : "") +
          " (rebuild with --build-index)");
}

}  // namespace

genome_index build_index(const genome::genome_t& g, const std::string& pattern,
                         const engine_options& opt) {
  if (opt.backend == backend_kind::serial) {
    throw config_error("build_index drives a device pipeline (pick O, G, S, U or P)");
  }
  search_config pam;
  pam.pattern = pattern;
  check_alphabet(pam);
  check_chunk_size(pattern, opt.max_chunk);
  obs::span sp("index.build", "engine");
  genome_index idx;
  idx.pattern = pattern;
  idx.max_chunk = opt.max_chunk;
  idx.source_bases = g.total_bases();
  idx.content_hash = genome::content_hash(g);
  for (const auto& c : g.chroms) idx.chrom_names.push_back(c.name);

  const device_pattern pat = make_pattern(pattern);
  const auto chunks = genome::make_chunks(g, opt.max_chunk, pat.plen - 1);
  idx.chunks.resize(chunks.size());
  sp.arg("chunks", static_cast<double>(chunks.size()));

  // Finder-only sweep, worst-case entry sizing: the index must be complete,
  // so the build ignores opt.max_entries (a capped build could silently
  // drop hits; warm queries re-apply the cap on upload). Each chunk runs
  // under the engine's recovery policy; the build has one device, so a
  // device that spends its attempts fails the build.
  std::atomic<usize> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    try {
      std::unique_ptr<device_pipeline> pipe;
      usize cap = 0;
      recovery_metrics counts;  // the build reports no recovery metrics
      for (;;) {
        const usize ci = next.fetch_add(1);
        if (ci >= chunks.size()) break;
        const auto& ch = chunks[ci];
        const std::string_view seq = genome::chunk_view(g, ch);
        index_chunk& out = idx.chunks[ci];
        out.chrom_index = static_cast<u32>(ch.chrom_index);
        out.start = ch.offset;
        out.text.assign(seq.data(), seq.size());
        // Packed once, here: the finder below and every warm upload of this
        // chunk use these words.
        out.words = swar_pack(out.text);
        recovery::run_chunk(
            cap, out.text.size(), 1, counts,
            [&] {
              if (pipe == nullptr) pipe = make_pipeline(opt, cap);
              pipe->load_chunk(packed_chunk{out.text, &out.words});
              const bool hit = pipe->run_finder(pat) != 0;
              out.loci = hit ? pipe->read_loci() : std::vector<u32>{};
              out.flags = hit ? pipe->read_flags() : std::vector<char>{};
            },
            [&] { pipe.reset(); },
            [] { return recovery::device_lost::rethrow; });
        sort_hits(out.loci, out.flags);
      }
    } catch (...) {
      std::lock_guard lock(err_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };

  usize queues = std::max<usize>(1, std::min(opt.num_queues,
                                             std::max<usize>(1, chunks.size())));
  if (opt.counting) queues = 1;
  if (queues <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(queues);
    for (usize t = 0; t < queues; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  sp.arg("hits", static_cast<double>(idx.total_hits()));
  return idx;
}

void save_index(const std::string& path, const genome_index& idx) {
  obs::span sp("index.persist", "engine");
  // Payload first, so the header can carry its size and checksum.
  writer payload;
  usize estimate = 0;
  for (const auto& ch : idx.chunks) {
    estimate += 4 * kChunkHeadBytes + ch.text.size() / 4 + 5 * ch.loci.size();
  }
  payload.out.reserve(estimate);
  for (const auto& ch : idx.chunks) {
    fault::inject_point(fault::site::index_persist);
    write_chunk(payload, ch);
  }
  fault::inject_point(fault::site::index_persist);  // header write

  writer header;
  header.put_u32(kIndexMagic);
  header.put_u32(kIndexVersion);
  header.put_string(idx.pattern);
  header.put_u64(idx.max_chunk);
  header.put_u64(idx.source_bases);
  header.put_u64(idx.content_hash);
  header.put_u32(static_cast<u32>(idx.chrom_names.size()));
  for (const auto& n : idx.chrom_names) header.put_string(n);
  header.put_u32(static_cast<u32>(idx.chunks.size()));
  header.put_u64(payload.out.size());
  header.put_u64(payload_checksum(payload.out));
  header.pad8();

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.good()) {
    throw index_error(fault::site::index_persist,
                      "cannot open for write: " + path);
  }
  f.write(header.out.data(), static_cast<std::streamsize>(header.out.size()));
  f.write(payload.out.data(), static_cast<std::streamsize>(payload.out.size()));
  f.flush();
  if (!f.good()) {
    throw index_error(fault::site::index_persist, "write failed: " + path);
  }
  sp.arg("bytes", static_cast<double>(header.out.size() + payload.out.size()));
}

genome_index load_index(const std::string& path) {
  obs::span sp("index.load", "engine");
  const std::string data = read_index_file(path);
  sp.arg("bytes", static_cast<double>(data.size()));

  fault::inject_point(fault::site::index_load);  // header parse
  reader r{data};
  if (r.get<u32>() != kIndexMagic) reject("bad magic (not a .cofidx file): " + path);
  const u32 version = r.get<u32>();
  if (version != kIndexVersion) {
    reject("unsupported index version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kIndexVersion) + "): " + path);
  }
  genome_index idx;
  idx.pattern = r.get_string();
  idx.max_chunk = r.get<u64>();
  idx.source_bases = r.get<u64>();
  idx.content_hash = r.get<u64>();
  const u32 nchroms = r.get<u32>();
  for (u32 i = 0; i < nchroms; ++i) idx.chrom_names.push_back(r.get_string());
  const u32 nchunks = r.get<u32>();
  const u64 payload_bytes = r.get<u64>();
  const u64 checksum = r.get<u64>();
  r.skip_pad8();

  if (data.size() - r.pos != payload_bytes) {
    reject("truncated index file (payload size mismatch): " + path);
  }
  if (payload_bytes % 8 != 0) reject("payload size is not a multiple of 8: " + path);
  const std::string_view payload = std::string_view(data).substr(r.pos);
  if (payload_checksum(payload) != checksum) {
    reject("payload checksum mismatch (corrupt index): " + path);
  }
  if (nchunks > payload.size() / kChunkHeadBytes) reject("chunk count past payload size");

  reader cr{payload};
  idx.chunks.reserve(nchunks);
  for (u32 i = 0; i < nchunks; ++i) {
    fault::inject_point(fault::site::index_load);
    idx.chunks.push_back(read_chunk(cr, idx));
  }
  if (cr.pos != payload.size()) reject("bytes past the last chunk: " + path);
  return idx;
}

void check_index_compatible(const genome_index& idx, const search_config& cfg) {
  if (idx.pattern != cfg.pattern) {
    throw index_error(fault::site::index_load,
                      "index built for pattern " + idx.pattern +
                          " cannot answer pattern " + cfg.pattern +
                          " (rebuild with --build-index)");
  }
  check_query_lengths(idx, cfg.queries);
}

resolved_index resolve_index(const std::string& path, const search_config& cfg,
                             const engine_options& opt, const genome::genome_t* g) {
  check_alphabet(cfg);  // a hostile guide fails before any build
  util::stopwatch sw;
  resolved_index out;
  out.cache_hit = !path.empty() && std::filesystem::exists(path);
  if (out.cache_hit) {
    out.index = load_index(path);
  } else {
    // The one place a warm run decodes and launches the finder: once, to
    // populate the cache.
    out.index = g != nullptr ? build_index(*g, cfg.pattern, opt)
                             : build_index(genome::load_genome(cfg.genome_path),
                                           cfg.pattern, opt);
    if (!path.empty()) save_index(path, out.index);
  }
  out.seconds = sw.seconds();
  if (obs::enabled()) {
    obs::metrics_registry::global()
        .counter(out.cache_hit ? "index.cache.hit" : "index.cache.miss")
        .add(1);
  }
  check_index_compatible(out.index, cfg);
  // A stale or foreign index must never answer for the wrong genome. An
  // index built this run is consistent by construction.
  if (out.cache_hit) {
    const auto sum = g != nullptr ? std::optional(genome::source_summary::of(*g))
                                  : genome::summarize_source(cfg.genome_path);
    if (sum) check_index_matches(out.index, *sum);
  }
  return out;
}

/// One serving queue: the chunks pinned to it and the device-resident
/// subset of them. Every resident chunk owns its own pipeline (chunk text
/// and/or words + loci/flags stay in that pipeline's device buffers between
/// query() calls) and is evicted least-recently-used when the slot's share
/// of engine_options::resident_bytes is exceeded. `mu` serialises concurrent
/// query() calls over the slot — residency state, the sticky entry cap and
/// the pipelines' staged entries are all guarded by it.
struct index_query_session::slot {
  struct resident_chunk {
    usize chunk = ~usize{0};
    std::unique_ptr<device_pipeline> pipe;
    usize bytes = 0;
    u64 last_used = 0;
  };

  std::mutex mu;
  std::vector<usize> chunk_ids;
  std::vector<resident_chunk> resident;
  /// Shard device this slot's resident pipelines live on. Mutated (under
  /// mu) only when a device failure migrates the slot to a survivor.
  usize device = 0;
  usize resident_bytes = 0;
  /// This slot's entry cap. Grows when a chunk overflows and stays grown
  /// (sticky), mirroring the chunk runner's per-queue policy.
  usize cur_max_entries = 0;
  u64 tick = 0;  // LRU clock (monotonic per slot, under mu)
  pipeline_metrics retired;   // accounting of evicted/rebuilt pipelines
  pipeline_metrics reported;  // snapshot already merged into past outcomes

  /// All accounting this slot has ever produced: live pipelines plus the
  /// retired bucket. Deltas against `reported` keep per-call outcomes honest.
  pipeline_metrics total_metrics() const {
    pipeline_metrics pm = retired;
    for (const auto& rc : resident) pm += rc.pipe->metrics();
    return pm;
  }

  resident_chunk* find_resident(usize ci) {
    for (auto& rc : resident) {
      if (rc.chunk == ci) return &rc;
    }
    return nullptr;
  }

  /// Drop one chunk's residency (if present), folding its pipeline's
  /// accounting into the retired bucket so metrics deltas never go negative.
  bool evict(usize ci) {
    for (usize i = 0; i < resident.size(); ++i) {
      if (resident[i].chunk != ci) continue;
      retired += resident[i].pipe->metrics();
      resident_bytes -= resident[i].bytes;
      resident.erase(resident.begin() + i);
      return true;
    }
    return false;
  }

  /// Drop the whole resident set (device migration: buffers on the dead
  /// device are unreachable, survivors re-upload on demand). Accounting
  /// folds into the retired bucket like any other eviction.
  void evict_all() {
    for (auto& rc : resident) retired += rc.pipe->metrics();
    resident.clear();
    resident_bytes = 0;
  }

  /// Evict least-recently-used residents until `incoming` fits the budget.
  /// The incoming chunk is always admitted — an undersized budget degrades
  /// to re-uploads, never to a failure — so eviction stops once the set is
  /// empty.
  u64 make_room(usize budget, usize incoming) {
    u64 evicted = 0;
    if (budget == 0) return evicted;
    while (!resident.empty() && resident_bytes + incoming > budget) {
      usize lru = 0;
      for (usize i = 1; i < resident.size(); ++i) {
        if (resident[i].last_used < resident[lru].last_used) lru = i;
      }
      obs::span sp("index.evict", "engine");
      sp.arg("bytes", static_cast<double>(resident[lru].bytes));
      evict(resident[lru].chunk);
      ++evicted;
    }
    return evicted;
  }
};

index_query_session::index_query_session(const genome_index& idx,
                                         const engine_options& opt)
    : idx_(idx), opt_(opt) {
  if (opt_.backend == backend_kind::serial) {
    throw config_error("index queries drive a device pipeline (pick O, G, S, U or P)");
  }
  usize ndev = std::max<usize>(1, opt_.num_devices);
  if (opt_.counting) ndev = 1;  // profiling serialises everything
  usize nslots = std::max<usize>(
      1, std::min(opt_.num_queues * ndev,
                  std::max<usize>(1, idx_.chunks.size())));
  if (opt_.counting) nslots = 1;  // profiling serialises the queues
  devs_ = std::make_unique<shard::device_set>(ndev);
  dev_chunks_ = std::make_unique<std::atomic<util::u64>[]>(ndev);
  for (usize d = 0; d < ndev; ++d) dev_chunks_[d].store(0);
  slot_budget_ =
      opt_.resident_bytes == 0
          ? 0
          : std::max<usize>(1, opt_.resident_bytes / nslots);
  for (usize s = 0; s < nslots; ++s) {
    slots_.push_back(std::make_unique<slot>());
    slots_.back()->cur_max_entries = opt_.max_entries;
    // Interleaved pinning spreads slots (and so the resident working set)
    // evenly across the shard devices.
    slots_.back()->device = s % ndev;
  }
  for (usize ci = 0; ci < idx_.chunks.size(); ++ci) {
    slots_[ci % nslots]->chunk_ids.push_back(ci);
  }
}

index_query_session::~index_query_session() = default;

usize index_query_session::resident_bytes() const {
  usize total = 0;
  for (const auto& sl : slots_) {
    std::lock_guard lock(sl->mu);
    total += sl->resident_bytes;
  }
  return total;
}

std::vector<index_query_session::device_residency_info>
index_query_session::device_residency() const {
  std::vector<device_residency_info> out(devs_->size());
  for (usize d = 0; d < devs_->size(); ++d) {
    out[d].name = devs_->name(d);
    out[d].alive = devs_->alive(d);
    out[d].chunks = dev_chunks_[d].load();
  }
  for (const auto& sl : slots_) {
    std::lock_guard lock(sl->mu);
    if (sl->device < out.size()) {
      ++out[sl->device].slots;
      out[sl->device].resident_bytes += sl->resident_bytes;
    }
  }
  return out;
}

usize index_query_session::failed_devices() const {
  return devs_->size() - devs_->alive_count();
}

search_outcome index_query_session::query(const std::vector<query_spec>& queries) {
  return query(queries, query_trace{});
}

search_outcome index_query_session::query(const std::vector<query_spec>& queries,
                                          const query_trace& trace) {
  obs::span sp("query", "engine");
  sp.arg("guides", static_cast<double>(queries.size()));
  sp.arg("batch", static_cast<double>(trace.batch_id));
  // Every entry point validates guide lengths — the slices below and the
  // comparer kernels assume one plen for the whole batch.
  check_query_lengths(idx_, queries);
  util::stopwatch sw;
  search_outcome out;
  out.metrics.chunks = idx_.chunks.size();
  if (queries.empty()) {
    out.metrics.elapsed_seconds = sw.seconds();
    return out;
  }

  std::vector<device_pattern> dev_queries;
  dev_queries.reserve(queries.size());
  std::vector<u16> thresholds;
  for (const auto& q : queries) {
    dev_queries.push_back(make_query(q.seq));
    thresholds.push_back(q.max_mismatches);
  }
  const u32 plen = dev_queries.front().plen;

  std::mutex merge_mu;
  std::exception_ptr first_error;
  auto worker = [&](slot& sl) {
    try {
      // Hold the slot for the whole sweep: concurrent query() calls
      // interleave across slots but each slot's residency state, sticky
      // entry cap and staged pipeline entries stay single-owner.
      std::lock_guard slot_lock(sl.mu);
      // Bind the sweep to the slot's shard device: every pipeline admitted
      // below allocates and launches there (and `site@N` fault specs target
      // it). Re-emplaced when a device failure migrates the slot.
      std::optional<xpu::scoped_device> bind;
      bind.emplace(devs_->at(sl.device), static_cast<int>(sl.device));
      std::vector<ot_record> local;
      u64 hits = 0;
      u64 misses = 0;
      u64 evictions = 0;
      recovery_metrics counts;
      for (const usize ci : sl.chunk_ids) {
        const index_chunk& ch = idx_.chunks[ci];
        if (ch.loci.empty()) continue;
        recovery::run_chunk(
            sl.cur_max_entries, ch.text.size(), dev_queries.size(), counts,
            [&] {
              // One span per chunk sweep attempt (residency admission +
              // comparer launch + entry fetch), tagged with the serving
              // batch id so a coalesced launch's device work is
              // attributable.
              obs::span csp("index.chunk.compare", "engine");
              csp.arg("chunk", static_cast<double>(ci));
              csp.arg("batch", static_cast<double>(trace.batch_id));
              slot::resident_chunk* rc = sl.find_resident(ci);
              if (rc == nullptr) {
                slot::resident_chunk fresh;
                fresh.chunk = ci;
                fresh.pipe = make_pipeline(opt_, sl.cur_max_entries);
                // The budget charges what this pipeline uploads and keeps:
                // text and/or packed words per facade and variant, plus
                // loci.
                fresh.bytes =
                    fresh.pipe->indexed_chunk_bytes(ch.text.size(), ch.loci.size());
                evictions += sl.make_room(slot_budget_, fresh.bytes);
                fresh.pipe->load_indexed_chunk(packed_chunk{ch.text, &ch.words}, plen,
                                               ch.loci, ch.flags);
                sl.resident_bytes += fresh.bytes;
                sl.resident.push_back(std::move(fresh));
                rc = &sl.resident.back();
                ++misses;
              } else {
                ++hits;
              }
              rc->last_used = ++sl.tick;
              // Under opt6, N guides coalesce into a single batched
              // dispatch over the device-resident loci.
              const auto entries = rc->pipe->run_comparers(dev_queries, thresholds);
              append_records(entries, ch.text, ch.chrom_index, ch.start, dev_queries,
                             local);
            },
            // Discard: retire this chunk's pipeline; the next attempt
            // re-admits it at the current cap.
            [&] { sl.evict(ci); },
            [&] {
              // The device is gone. With survivors, drop the slot's
              // residency (its buffers live on the dead device) and migrate
              // to one; with none the device error propagates.
              if (devs_->size() <= 1 || devs_->mark_failed(sl.device) == 0) {
                return recovery::device_lost::rethrow;
              }
              obs::span msp("index.shard.migrate", "engine");
              msp.arg("from", static_cast<double>(sl.device));
              sl.evict_all();
              sl.device = devs_->pick_alive(sl.device + 1);
              msp.arg("to", static_cast<double>(sl.device));
              bind.emplace(devs_->at(sl.device), static_cast<int>(sl.device));
              migrations_.fetch_add(1);
              obs::metrics_registry::global().counter("index.shard.migrate").add(1);
              return recovery::device_lost::moved;
            });
        dev_chunks_[sl.device].fetch_add(1);
      }
      chunk_hits_.fetch_add(hits);
      chunk_misses_.fetch_add(misses);
      chunk_evictions_.fetch_add(evictions);
      // Recorded unconditionally, like every other registry site: a
      // --metrics-json snapshot must show the residency behaviour whether
      // or not tracing is on.
      auto& reg = obs::metrics_registry::global();
      if (hits != 0) reg.counter("index.chunk.hit").add(hits);
      if (misses != 0) reg.counter("index.chunk.miss").add(misses);
      if (evictions != 0) reg.counter("index.chunk.evict").add(evictions);
      const pipeline_metrics now = sl.total_metrics();
      std::lock_guard lock(merge_mu);
      out.records.insert(out.records.end(), local.begin(), local.end());
      // Pipeline metrics accumulate over the pipeline's lifetime; a
      // long-lived session reports per-query() deltas.
      out.metrics.per_queue.push_back(now - sl.reported);
      out.metrics.pipeline += out.metrics.per_queue.back();
      sl.reported = now;
      out.metrics.recovery.overflow_retries += counts.overflow_retries;
      out.metrics.recovery.recovered_overflows += counts.recovered_overflows;
    } catch (...) {
      std::lock_guard lock(merge_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };

  if (slots_.size() <= 1) {
    worker(*slots_.front());
  } else {
    // Slot sweeps dispatch through the shared work-stealing pool instead of
    // spawning per-call threads — the serving path calls query() per
    // request batch, so per-request thread churn would dominate small
    // batches. The caller helps execute blocks while it waits.
    util::thread_pool::global().parallel_for_range(
        slots_.size(),
        [&](usize begin, usize end) {
          for (usize s = begin; s < end; ++s) worker(*slots_[s]);
        },
        /*blocks_per_worker=*/1);
  }
  if (first_error) std::rethrow_exception(first_error);

  // Overlap regions live in two chunks; canonical order + dedup, exactly as
  // the cold engine does.
  sort_and_dedup(out.records);
  out.metrics.elapsed_seconds = sw.seconds();
  return out;
}

search_outcome run_query(const genome_index& idx,
                         const std::vector<query_spec>& queries,
                         const engine_options& opt) {
  run_scope run(opt);
  index_query_session session(idx, opt);
  search_outcome out = session.query(queries);
  run.finish();
  return out;
}

}  // namespace cof
