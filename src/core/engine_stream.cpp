#include "core/engine_stream.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <latch>
#include <mutex>
#include <optional>
#include <thread>

#include <unistd.h>

#include "core/recovery.hpp"
#include "core/shard.hpp"
#include "fault/fault.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cof {

namespace {

// ---------------------------------------------------------------------------
// chunk_source: what the runner's producer pulls chunks from. One chrom event
// per genome record (even an empty one, so chrom indices match the record
// order), then that record's chunks of up to max_chunk bases, consecutive
// chunks overlapping by plen-1 bases so straddling sites are re-scanned.
// genome::make_chunks defines the geometry; both sources reproduce it. Single
// reader: the runner's producer thread is the only caller.
// ---------------------------------------------------------------------------
class chunk_source {
 public:
  struct event {
    enum kind_t { chrom, chunk, end };
    kind_t kind = end;
    std::string name;   // chrom
    std::string text;   // chunk
    util::u64 start = 0;  // chunk: chromosome offset of text[0]
  };

  virtual ~chunk_source() = default;
  virtual event next() = 0;
  /// Genome bases produced so far (each base once, overlaps not recounted).
  virtual util::u64 streamed_bases() const = 0;
};

/// Pull-based FASTA decode of a file or directory (genome::fasta_stream). A
/// record whose length lands exactly on a chunk boundary ends at that
/// boundary: the carried overlap alone never forms a trailing chunk (its
/// bases were already scanned as the tail of the previous chunk).
class fasta_source final : public chunk_source {
 public:
  fasta_source(const std::string& path, usize max_chunk, usize overlap)
      : stream_(path), max_chunk_(max_chunk), overlap_(overlap) {}

  util::u64 streamed_bases() const override { return streamed_bases_; }

  event next() override {
    for (;;) {
      if (!in_record_) {
        if (!stream_.next_record()) return {};
        in_record_ = true;
        carry_.clear();
        next_start_ = 0;
        event ev;
        ev.kind = event::chrom;
        ev.name = stream_.record_name();
        return ev;
      }
      std::string buf = std::move(carry_);
      carry_.clear();
      const usize carried = buf.size();
      const usize got = stream_.read_bases(buf, max_chunk_ - buf.size());
      streamed_bases_ += got;
      if (got == 0) {
        // EOF with nothing new: either an empty record, or the record ended
        // exactly on the previous chunk boundary. Any carried overlap was
        // already scanned as the tail of that chunk — emitting it again
        // would be a redundant carry-only chunk.
        in_record_ = false;
        continue;
      }
      COF_CHECK_MSG(buf.size() > carried,
                    "chunk must extend past the carried overlap");
      const bool record_done = buf.size() < max_chunk_;
      event ev;
      ev.kind = event::chunk;
      ev.start = next_start_;
      if (record_done) {
        in_record_ = false;
      } else {
        next_start_ += buf.size() - overlap_;
        carry_.assign(buf.data() + buf.size() - overlap_, overlap_);
      }
      ev.text = std::move(buf);
      return ev;
    }
  }

 private:
  genome::fasta_stream stream_;
  bool in_record_ = false;
  std::string carry_;
  util::u64 next_start_ = 0;
  util::u64 streamed_bases_ = 0;
  usize max_chunk_ = 0;
  usize overlap_ = 0;
};

/// An in-memory genome as chunk events: genome::make_chunks' chunks, each
/// copied out of `g` for the runner to own. make_chunks skips empty records;
/// they still emit their chrom event here.
class genome_source final : public chunk_source {
 public:
  genome_source(const genome::genome_t& g, usize max_chunk, usize overlap)
      : g_(g), chunks_(genome::make_chunks(g, max_chunk, overlap)) {}

  util::u64 streamed_bases() const override { return streamed_bases_; }

  event next() override {
    event ev;
    if (next_chunk_ < chunks_.size() &&
        chunks_[next_chunk_].chrom_index < next_chrom_) {
      const genome::chunk& c = chunks_[next_chunk_++];
      ev.kind = event::chunk;
      ev.text = std::string(genome::chunk_view(g_, c));
      ev.start = c.offset;
    } else if (next_chrom_ < g_.chroms.size()) {
      const genome::chromosome& chrom = g_.chroms[next_chrom_++];
      ev.kind = event::chrom;
      ev.name = chrom.name;
      streamed_bases_ += chrom.seq.size();
    }
    return ev;
  }

 private:
  const genome::genome_t& g_;
  std::vector<genome::chunk> chunks_;
  usize next_chunk_ = 0;
  usize next_chrom_ = 0;
  util::u64 streamed_bases_ = 0;
};

/// The directory spill runs go to, resolved once per run. A temp directory
/// that does not exist (TMPDIR naming a missing path) is a configuration
/// error, reported before any file or thread is made.
std::filesystem::path spill_directory() {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) {
    const char* tmpdir = std::getenv("TMPDIR");
    throw config_error(util::format("no temp directory for spill runs (TMPDIR=%s): %s",
                                    tmpdir != nullptr ? tmpdir : "unset",
                                    ec.message().c_str()));
  }
  return dir;
}

std::string spill_path(const std::filesystem::path& dir, usize queue_index) {
  static std::atomic<unsigned> serial{0};
  return (dir / util::format("cof_spill_%ld_%u_q%zu.run", static_cast<long>(::getpid()),
                             serial.fetch_add(1), queue_index))
      .string();
}

// ---------------------------------------------------------------------------
// The chunk runner: the one cold engine behind run_search and
// run_search_streaming. One producer feeds num_devices × num_queues device
// consumers over one bounded chunk queue.
//
//   chunk_source (producer) -> bounded_queue -> consumer 0..N-1 -> spill
//                                                |
//                                                +-> format+spill job (pool)
//
// The producer (the calling thread) pulls chunks from the source (FASTA
// decode or an in-memory genome) and pushes them to the queue; backpressure
// (capacity num_devices × num_queues + 2) bounds the produced-but-
// unprocessed text to a fixed lookahead. Each consumer owns one pipeline: it
// uploads the chunk, runs the finder, then the variant's comparer — ONE
// batched launch per chunk under opt6, one launch per query under base..opt4
// — and hands the entry batch to a pool job that formats records and
// spills them to the consumer's own temp file as one sorted run. Format jobs
// are chained per consumer (the next is submitted only after the previous
// finished), which (a) keeps the spill writer single-owner, (b) bounds live
// chunk texts to two per consumer, and (c) preserves the two-deep
// decode/device/format overlap at one consumer. After the consumers join,
// every consumer's runs are k-way merged (with key dedup) into canonical
// order — identical output to sort_and_dedup over an in-memory record set,
// for any consumer count.
//
// Failure model (core/recovery.hpp): each consumer runs its chunk through
// recovery::run_chunk — an entry overflow retries with a grown capacity, a
// transient device fault discards the consumer's pipeline and retries — and
// spill-write failures retry with backoff. A queue hand-off that waits
// kQueueTimeout reports a stall. Anything unrecoverable wins the
// first-failure race, closes the queue, and is rethrown after the join —
// spill files are removed on unwind, so a failed run never leaves partial
// output.
//
// Sharding (num_devices > 1): each device of the shard::device_set gets
// num_queues consumers; each consumer binds its thread to its device
// (xpu::scoped_device), so every buffer and kernel it touches lands on that
// device's pool/arena. Every consumer takes from the one queue: a consumer
// uploads a chunk only after it takes it, so there is no locality to route
// chunks for. Every consumer takes one chunk before any takes a second, so
// every device runs even on a run with few chunks. A device whose chunk
// spends its bounded retries is marked dead: the consumer pushes the chunk
// back onto the queue for the survivors and stops, the device's other
// consumers stop at their next take, and the run completes degraded — the
// k-way merge keeps the output byte-identical. When the last device dies,
// the original site-named error fails the run.
// ---------------------------------------------------------------------------
struct stream_chunk {
  std::string text;
  /// The producer's swar_pack(text) when the pipelines read packed words;
  /// empty for the other variants.
  std::optional<swar_ref> words;
  util::u64 start = 0;
  u32 chrom_index = 0;
};

/// A bounded-queue push or pop that waits this long reports a stall
/// (queue.push / queue.pop failure) instead of hanging the run forever.
constexpr long long kQueueTimeoutMs = 60000;
constexpr std::chrono::milliseconds kQueueTimeout{kQueueTimeoutMs};

streamed_outcome run_chunks(const search_config& cfg, chunk_source& source,
                            const engine_options& opt, const record_sink& sink) {
  streamed_outcome out;
  const std::filesystem::path spill_dir = spill_directory();
  util::thread_pool& pool = util::thread_pool::global();

  const device_pattern pat = make_pattern(cfg.pattern);
  std::vector<device_pattern> dev_queries;
  std::vector<u16> thresholds;
  dev_queries.reserve(cfg.queries.size());
  thresholds.reserve(cfg.queries.size());
  for (const auto& q : cfg.queries) {
    dev_queries.push_back(make_query(q.seq));
    thresholds.push_back(q.max_mismatches);
  }

  // Profiling serialises the queues (the process-global event counters are
  // reset/snapshot around each launch, as a profiler would) and pins the
  // run to the single global device.
  usize queues = std::max<usize>(1, opt.num_queues);
  usize ndev = std::max<usize>(1, opt.num_devices);
  if (opt.counting) {
    queues = 1;
    ndev = 1;
  }

  // Stage accounting is always on (a few process_nanos() reads per chunk);
  // the span/counter probes additionally gate on obs::enabled(), cached
  // once here — run_scope has already set it for the whole run.
  const bool tracing = obs::enabled();
  obs::metrics_registry& reg = obs::metrics_registry::global();
  obs::counter_metric* m_chunks = tracing ? &reg.counter("stream.chunks") : nullptr;
  obs::gauge_metric* m_depth = tracing ? &reg.gauge("stream.queue_depth") : nullptr;
  obs::histogram_metric* m_decode = nullptr;
  obs::histogram_metric* m_push = nullptr;
  obs::histogram_metric* m_pop = nullptr;
  obs::histogram_metric* m_device = nullptr;
  obs::histogram_metric* m_format = nullptr;
  obs::histogram_metric* m_merge = nullptr;
  if (tracing) {
    const auto& bounds = obs::default_latency_bounds_us();
    m_decode = &reg.histogram("stream.decode_us", bounds);
    m_push = &reg.histogram("stream.push_wait_us", bounds);
    m_pop = &reg.histogram("stream.pop_wait_us", bounds);
    m_device = &reg.histogram("stream.device_us", bounds);
    m_format = &reg.histogram("stream.format_us", bounds);
    m_merge = &reg.histogram("stream.merge_us", bounds);
  }
  const util::thread_pool::sched_stats pool0 = pool.stats();

  // The device set must outlive the pipelines (their buffers free against
  // their device) — declared before the queue states.
  shard::device_set devs(ndev);

  struct queue_state {
    /// Built under the consumer's device binding by the first attempt
    /// after a discard (or the first chunk), at cur_max_entries.
    std::unique_ptr<device_pipeline> pipe;
    std::unique_ptr<record_spill_writer> writer;
    /// Device this consumer belongs to (consumer i -> i / queues).
    usize device = 0;
    /// This consumer's current entry cap. Grows when a chunk overflows and
    /// stays grown (sticky), so a dense region pays the rebuild once.
    usize cur_max_entries = 0;
    /// Metrics accumulated by pipelines discarded in recovery.
    pipeline_metrics retired;
    recovery_metrics recovery;  // overflow retries and recoveries
    usize chunks = 0;           // takes, a pushed-back chunk's included
    usize peak_chunk_bytes = 0;
    u64 wait_ns = 0;    // blocked on pop + on the previous format job
    u64 device_ns = 0;  // H2D + finder + comparer batch + fetch
    u64 format_ns = 0;  // written by the chained format jobs; the job
                        // chain (wait() before submit) orders the writes
  };
  std::vector<queue_state> qs(ndev * queues);
  for (usize i = 0; i < qs.size(); ++i) {
    qs[i].device = i / queues;
    qs[i].cur_max_entries = opt.max_entries;
    qs[i].writer = std::make_unique<record_spill_writer>(spill_path(spill_dir, i));
  }

  // The one chunk queue every consumer on every device takes from.
  util::bounded_queue<stream_chunk> queue(qs.size() + 2);
  // Chunks pushed (by the producer, or back by a dying device's consumer)
  // but not yet finished. After the last chunk is produced the queue closes
  // when this drains, never earlier: a device dying on the last chunks must
  // still be able to push them back for a survivor.
  std::atomic<usize> pending{0};
  std::atomic<bool> produced{false};
  auto finish_chunk = [&] {
    if (pending.fetch_sub(1) == 1 && produced.load()) queue.close();
  };

  // First failure wins: it closes the chunk queue so all threads unwind,
  // and is rethrown once the workers have joined. The rethrow unwinds this
  // frame, destroying the spill writers — which remove their files — so a
  // failed run never leaves partial output behind.
  std::mutex fail_mu;
  std::exception_ptr failure;
  std::atomic<bool> failed{false};
  auto record_failure = [&](std::exception_ptr ep) {
    std::lock_guard lock(fail_mu);
    if (failure == nullptr) {
      failure = std::move(ep);
      failed.store(true, std::memory_order_release);
      queue.close();
    }
  };

  std::atomic<u64> spill_retries{0};
  std::atomic<u64> shard_reassigns{0};
  // Every consumer takes one chunk before any consumer takes a second:
  // nothing routes chunks to devices, so on a short run a consumer whose
  // thread started late could otherwise find every chunk taken by its
  // siblings, and its device would never run.
  std::latch first_takes(static_cast<std::ptrdiff_t>(qs.size()));

  auto consume = [&](queue_state& st, usize queue_index) {
    if (tracing) {
      obs::set_thread_name(util::format("stream.queue-%zu", queue_index));
    }
    // Bind this consumer — and every buffer/launch it performs — to its
    // device; the ordinal lets site@N fault specs target it.
    xpu::scoped_device bind(devs.at(st.device), static_cast<int>(st.device));
    util::thread_pool::job format_job;
    bool took = false;  // counted in first_takes, exactly once
    auto first_take = [&] {
      if (!took) first_takes.count_down();
      took = true;
    };
    try {
      // A device marked dead stops its consumers at their next take.
      while (!failed.load(std::memory_order_acquire) && devs.alive(st.device)) {
        stream_chunk ch;  // freed when this iteration ends
        u64 t0 = util::process_nanos();
        util::wait_status got;
        {
          obs::span sp("queue.pop", "stream");
          if (took) first_takes.wait();
          fault::inject_point(fault::site::queue_pop);
          got = queue.pop_for(ch, kQueueTimeout);
          first_take();
        }
        const u64 pop_ns = util::process_nanos() - t0;
        st.wait_ns += pop_ns;
        if (m_pop != nullptr) m_pop->observe(pop_ns / 1000);
        if (m_depth != nullptr) {
          const util::i64 depth = static_cast<util::i64>(queue.size());
          m_depth->set(depth);
          obs::counter_track("queue.depth", static_cast<double>(depth));
        }
        if (got == util::wait_status::closed) break;
        if (got == util::wait_status::timeout) {
          if (failed.load(std::memory_order_acquire)) break;
          throw std::runtime_error(
              util::format("stream queue.pop stalled: no chunk arrived for "
                           "%lld ms", kQueueTimeoutMs));
        }
        ++st.chunks;
        if (m_chunks != nullptr) m_chunks->add(1);
        st.peak_chunk_bytes = std::max(st.peak_chunk_bytes, ch.text.size());
        LOG_DEBUG("stream chunk@%llu: %zu bases",
                  static_cast<unsigned long long>(ch.start), ch.text.size());

        // Device phase under the recovery policy.
        device_pipeline::entries entries;
        t0 = util::process_nanos();
        const bool done = recovery::run_chunk(
            st.cur_max_entries, ch.text.size(), dev_queries.size(), st.recovery,
            [&] {
              if (st.pipe == nullptr) st.pipe = make_pipeline(opt, st.cur_max_entries);
              st.pipe->load_chunk(packed_chunk{ch.text, ch.words ? &*ch.words : nullptr});
              entries = st.pipe->run_finder(pat) != 0
                            ? st.pipe->run_comparers(dev_queries, thresholds)
                            : device_pipeline::entries{};
            },
            [&] {
              if (st.pipe != nullptr) st.retired += st.pipe->metrics();
              st.pipe.reset();
            },
            [&] {
              // The device is dead. With survivors, push the chunk back for
              // them (it stays pending, so the queue cannot close under
              // it); alone, the run fails.
              if (ndev <= 1 || devs.mark_failed(st.device) == 0) {
                return recovery::device_lost::rethrow;
              }
              const util::wait_status ws = queue.push_for(ch, kQueueTimeout);
              if (ws == util::wait_status::timeout) {
                throw std::runtime_error(
                    util::format("stream queue.push stalled: no consumer took "
                                 "a chunk for %lld ms", kQueueTimeoutMs));
              }
              // closed: the run already failed, and its error is rethrown
              // after the join.
              if (ws == util::wait_status::ready) {
                shard_reassigns.fetch_add(1, std::memory_order_relaxed);
              }
              return recovery::device_lost::handed_off;
            });
        const u64 device_ns = util::process_nanos() - t0;
        st.device_ns += device_ns;
        if (!done) break;
        if (m_device != nullptr) m_device->observe(device_ns / 1000);
        if (entries.size() != 0) {
          // Record formatting + spilling runs on the pool, off the device
          // critical path. Chained per consumer: wait out the previous job
          // so the spill writer stays single-owner and at most one batch
          // (plus the chunk text it slices) is held per consumer.
          const u64 w0 = util::process_nanos();
          {
            obs::span sp("format.wait", "stream");
            format_job.wait();
          }
          st.wait_ns += util::process_nanos() - w0;
          format_job = pool.submit_job(
              [text = std::move(ch.text), ent = std::move(entries),
               chrom = ch.chrom_index, start = ch.start, writer = st.writer.get(),
               &dev_queries, stp = &st, m_format, &spill_retries, &record_failure] {
                // Pool jobs may not throw: a spill that keeps failing past
                // its retries fails the run via record_failure.
                try {
                  const u64 f0 = util::process_nanos();
                  obs::span sp("format", "stream");
                  sp.arg("entries", static_cast<double>(ent.size()));
                  std::vector<ot_record> batch;
                  batch.reserve(ent.size());
                  append_records(ent, text, chrom, start, dev_queries, batch);
                  // spill() rolls back to the previous run boundary on
                  // failure and leaves the batch intact — retry it.
                  recovery::with_spill_retries([&] { writer->spill(batch); },
                                               spill_retries);
                  const u64 format_ns = util::process_nanos() - f0;
                  stp->format_ns += format_ns;
                  if (m_format != nullptr) m_format->observe(format_ns / 1000);
                } catch (...) {
                  record_failure(std::current_exception());
                }
              });
        }
        finish_chunk();
      }
      first_take();  // a consumer that left without taking still counts
      {
        obs::span sp("format.wait", "stream");
        const u64 t0 = util::process_nanos();
        format_job.wait();
        st.wait_ns += util::process_nanos() - t0;
      }
      // finish() clears the stream state before throwing, so the final
      // flush gets the same bounded retry as the per-batch spills.
      recovery::with_spill_retries([&] { st.writer->finish(); }, spill_retries);
    } catch (...) {
      record_failure(std::current_exception());
      first_take();
      format_job.wait();  // the chained job must not outlive this frame
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(qs.size());
  for (usize i = 0; i < qs.size(); ++i) {
    workers.emplace_back(consume, std::ref(qs[i]), i);
  }

  // Producer: the only thread touching the source and chrom_names.
  if (tracing) obs::set_thread_name("stream.producer");
  const bool pack_words = comparer_variant_packs_words(opt.variant);
  u64 decode_ns = 0, push_ns = 0;
  try {
    for (;;) {
      if (failed.load(std::memory_order_acquire)) break;
      u64 t0 = util::process_nanos();
      chunk_source::event ev;
      {
        obs::span sp("decode", "stream");
        ev = source.next();
        if (ev.kind == chunk_source::event::chunk) {
          sp.arg("bases", static_cast<double>(ev.text.size()));
        }
      }
      const u64 d_ns = util::process_nanos() - t0;
      decode_ns += d_ns;
      if (ev.kind == chunk_source::event::chrom) {
        out.chrom_names.push_back(std::move(ev.name));
        continue;
      }
      if (ev.kind == chunk_source::event::end) break;
      if (m_decode != nullptr) m_decode->observe(d_ns / 1000);
      stream_chunk ch;
      ch.text = std::move(ev.text);
      ch.start = ev.start;
      ch.chrom_index = static_cast<u32>(out.chrom_names.size()) - 1;
      if (pack_words) {
        // Pack once, here, off the consumers' critical path: every queue
        // uploads these words as they are.
        const u64 p0 = util::process_nanos();
        obs::span sp("pack", "stream");
        ch.words = swar_pack(ch.text);
        decode_ns += util::process_nanos() - p0;
      }
      t0 = util::process_nanos();
      util::wait_status ws;
      {
        obs::span sp("queue.push", "stream");
        fault::inject_point(fault::site::queue_push);
        pending.fetch_add(1);
        ws = queue.push_for(ch, kQueueTimeout);
      }
      const u64 p_ns = util::process_nanos() - t0;
      push_ns += p_ns;
      if (m_push != nullptr) m_push->observe(p_ns / 1000);
      if (ws != util::wait_status::ready) pending.fetch_sub(1);
      if (ws == util::wait_status::closed) break;  // a consumer failed
      if (ws == util::wait_status::timeout) {
        if (failed.load(std::memory_order_acquire)) break;
        throw std::runtime_error(
            util::format("stream queue.push stalled: no consumer took a "
                         "chunk for %lld ms", kQueueTimeoutMs));
      }
      if (m_depth != nullptr) {
        const usize depth = queue.size();
        m_depth->set(static_cast<util::i64>(depth));
        obs::counter_track("queue.depth", static_cast<double>(depth));
      }
    }
  } catch (...) {
    record_failure(std::current_exception());
  }
  // End of input: the queue closes here if nothing is pending, else when
  // the last pending chunk finishes (a failure has closed it already).
  produced.store(true);
  if (pending.load() == 0) queue.close();
  for (auto& t : workers) t.join();

  // Everything has joined; `failure` is stable. Rethrow before touching the
  // outputs — unwinding destroys the spill writers, removing their files.
  if (failure != nullptr) std::rethrow_exception(failure);

  out.stage_times.decode_s = static_cast<double>(decode_ns) / 1e9;
  out.stage_times.queue_wait_s = static_cast<double>(push_ns) / 1e9;

  out.device_shards.resize(ndev);
  for (usize d = 0; d < ndev; ++d) {
    out.device_shards[d].name = devs.name(d);
    out.device_shards[d].failed = !devs.alive(d);
  }
  std::vector<std::string> spill_paths;
  u64 spilled_records = 0, spill_bytes = 0;
  for (auto& st : qs) {
    out.metrics.chunks += st.chunks;
    out.peak_chunk_bytes = std::max(out.peak_chunk_bytes, st.peak_chunk_bytes);
    out.peak_record_bytes += st.writer->peak_run_bytes();
    out.spill_runs += st.writer->runs();
    spilled_records += st.writer->records();
    spill_bytes += st.writer->bytes();
    spill_paths.push_back(st.writer->path());
    pipeline_metrics pm = st.retired;
    // A consumer that never took a chunk, or whose last attempt was
    // discarded, holds no pipeline.
    if (st.pipe != nullptr) pm += st.pipe->metrics();
    out.metrics.per_queue.push_back(pm);
    out.metrics.pipeline += pm;
    out.metrics.recovery.overflow_retries += st.recovery.overflow_retries;
    out.metrics.recovery.recovered_overflows += st.recovery.recovered_overflows;
    stream_stage_times qt;
    qt.queue_wait_s = static_cast<double>(st.wait_ns) / 1e9;
    qt.device_s = static_cast<double>(st.device_ns) / 1e9;
    qt.format_s = static_cast<double>(st.format_ns) / 1e9;
    out.queue_stages.push_back(qt);
    out.stage_times.queue_wait_s += qt.queue_wait_s;
    out.stage_times.device_s += qt.device_s;
    out.stage_times.format_s += qt.format_s;
    auto& ds = out.device_shards[st.device];
    ds.chunks += st.chunks;
    ds.stages.queue_wait_s += qt.queue_wait_s;
    ds.stages.device_s += qt.device_s;
    ds.stages.format_s += qt.format_s;
  }
  out.shard_reassigns = shard_reassigns.load();
  out.metrics.recovery.spill_retries = spill_retries.load();

  // Canonical-order merge with key dedup — byte-identical to sorting and
  // deduplicating the whole record set in memory, regardless of how the
  // chunks were interleaved across queues. A spill_error here unwinds this
  // frame like a worker's failure, removing the spill files.
  const u64 merge0 = util::process_nanos();
  if (sink) {
    out.total_records = merge_spill_runs(spill_paths, sink);
  } else {
    // Every spilled record, duplicates included: an upper bound.
    out.records.reserve(spilled_records);
    out.total_records = merge_spill_runs(spill_paths, [&out](ot_record&& r) {
      out.records.push_back(std::move(r));
    });
  }
  const u64 merge_ns = util::process_nanos() - merge0;
  out.stage_times.merge_s = static_cast<double>(merge_ns) / 1e9;
  if (m_merge != nullptr) m_merge->observe(merge_ns / 1000);

  if (tracing) {
    const util::thread_pool::sched_stats pool1 = pool.stats();
    reg.counter("pool.steals").add(pool1.steals - pool0.steals);
    reg.counter("pool.injects").add(pool1.injects - pool0.injects);
    reg.counter("pool.sleeps").add(pool1.sleeps - pool0.sleeps);
    reg.counter("pool.executed").add(pool1.executed - pool0.executed);
    reg.counter("stream.spill_runs").add(out.spill_runs);
    reg.counter("stream.spill_bytes").add(spill_bytes);
    reg.counter("stream.records").add(out.total_records);
    reg.counter("recover.overflow_retries")
        .add(out.metrics.recovery.overflow_retries);
    reg.counter("recover.recovered_overflows")
        .add(out.metrics.recovery.recovered_overflows);
    reg.counter("recover.spill_retries")
        .add(out.metrics.recovery.spill_retries);
    if (ndev > 1) {
      for (const auto& ds : out.device_shards) {
        reg.counter("shard.chunks." + ds.name).add(ds.chunks);
      }
      reg.counter("shard.reassigns").add(out.shard_reassigns);
    }
  }

  out.streamed_bases = source.streamed_bases();
  return out;
}

}  // namespace

namespace detail {

streamed_outcome run_engine(const search_config& cfg, const genome::genome_t* g,
                            const std::string& path, const engine_options& opt,
                            const record_sink& sink) {
  run_scope run(opt);
  util::stopwatch sw;
  streamed_outcome out;
  // Hostile guides and chunk sizes fail here, before a source is opened.
  check_alphabet(cfg);
  check_guide_lengths(cfg);
  if (opt.backend != backend_kind::serial) {
    check_chunk_size(cfg.pattern, opt.max_chunk);
    const usize overlap = cfg.pattern.size() - 1;
    // Only a FASTA line streams; a synth: or .2bit line loads whole, and its
    // load counts as the run's decode.
    std::optional<genome::genome_t> loaded;
    double load_s = 0;
    if (g == nullptr && !genome::is_fasta_line(path)) {
      const util::stopwatch lsw;
      loaded = genome::load_genome(path);
      load_s = lsw.seconds();
      g = &*loaded;
    }
    std::unique_ptr<chunk_source> source;
    if (g != nullptr) {
      source = std::make_unique<genome_source>(*g, opt.max_chunk, overlap);
    } else {
      source = std::make_unique<fasta_source>(path, opt.max_chunk, overlap);
    }
    out = run_chunks(cfg, *source, opt, sink);
    out.stage_times.decode_s += load_s;
  } else {
    COF_CHECK_MSG(g != nullptr,
                  "streaming mode drives a device pipeline; use run_search "
                  "for the serial reference");
    out.records = serial_search(cfg.pattern, cfg.queries, *g);
    // Unlike the runner's merge, the oracle holds its records in memory:
    // hand them to the sink from there.
    out.total_records = out.records.size();
    if (sink) {
      for (auto& r : out.records) sink(std::move(r));
      out.records.clear();
    }
  }
  out.metrics.elapsed_seconds = sw.seconds();
  run.finish();
  return out;
}

}  // namespace detail

streamed_outcome run_search_streaming(const search_config& cfg,
                                      const std::string& path,
                                      const engine_options& opt) {
  return detail::run_engine(cfg, nullptr, path, opt, record_sink{});
}

streamed_outcome run_search_streaming(const search_config& cfg,
                                      const std::string& path,
                                      const engine_options& opt,
                                      const record_sink& sink) {
  return detail::run_engine(cfg, nullptr, path, opt, sink);
}

}  // namespace cof
