#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/serial_ref.hpp"
#include "genome/iupac.hpp"
#include "genome/synth.hpp"
#include "serve/server.hpp"
#include "util/cpufeat.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

bool concrete(char c) { return c == 'A' || c == 'C' || c == 'G' || c == 'T'; }

/// The synthetic assembly's repeat family (genome/synth.cpp): ~19k mutated
/// copies of this 64-mer cover 10% of hg19/256. A guide taken from it has
/// a record at nearly every copy; a guide from unique sequence has a few.
constexpr std::string_view kRepeatConsensus =
    "GGCCGGGCGCGGTGGCTCACGCCTGTAATCCCAGCACTTTGGGAGGCCGAGGCGGGCGGATCAC";

/// True when some 12-mer of `core` is within two mismatches of a 12-mer of
/// the repeat consensus on either strand, i.e. the core may sit in a copy.
bool near_repeat(const std::string& core) {
  const std::string fw(kRepeatConsensus);
  for (const std::string& rep : {fw, genome::reverse_complement(fw)}) {
    for (usize i = 0; i + 12 <= core.size(); ++i) {
      for (usize j = 0; j + 12 <= rep.size(); ++j) {
        int mm = 0;
        for (usize k = 0; k < 12 && mm <= 2; ++k) mm += core[i + k] != rep[j + k];
        if (mm <= 2) return true;
      }
    }
  }
  return false;
}

/// A 20-mer of concrete, non-repeat bases at a uniformly random offset.
std::string sample_unique_core(const genome::genome_t& g, util::rng& rng) {
  const usize total = g.total_bases();
  for (;;) {
    usize off = rng.next_below(total);
    for (const auto& c : g.chroms) {
      if (off >= c.seq.size()) {
        off -= c.seq.size();
        continue;
      }
      if (off + 20 > c.seq.size()) break;
      std::string core = c.seq.substr(off, 20);
      if (std::all_of(core.begin(), core.end(), concrete) && !near_repeat(core)) {
        return core;
      }
      break;
    }
  }
}

/// The first `n` 20-mers of the repeat consensus followed by a site `pattern`
/// accepts, so every copy is a candidate; the same on every seed.
std::vector<std::string> repeat_cores(const std::string& pattern, usize n) {
  std::vector<std::string> out;
  for (usize o = 0; o + 23 <= kRepeatConsensus.size() && out.size() < n; ++o) {
    bool pam = true;
    for (usize k = 20; k < 23; ++k) {
      pam = pam && !genome::casoffinder_mismatch(pattern[k], kRepeatConsensus[o + k]);
    }
    if (pam) out.emplace_back(kRepeatConsensus.substr(o, 20));
  }
  return out;
}

}  // namespace

inputs make_inputs(u64 seed, const std::string& pattern, usize guides,
                   usize repeat_guides) {
  inputs in;
  const double t0 = now_s();
  in.g = genome::generate(genome::hg19_like(kGenomeScale, seed));
  in.cfg.pattern = pattern;
  util::rng rng(seed ^ 0x9b1dULL);
  std::vector<std::string> cores = repeat_cores(pattern, repeat_guides);
  while (cores.size() < guides) cores.push_back(sample_unique_core(in.g, rng));
  for (const auto& core : cores) {
    for (unsigned mm = 1; mm <= 4; ++mm) {
      genome::plant_sites(in.g, core + pattern.substr(20), pattern, 1, mm,
                          rng.next_u64());
    }
    in.cfg.queries.push_back({core + "NNN", kMaxMismatches});
  }
  const double t1 = now_s();

  // serial_search over contiguous guide groups: records are ordered by
  // query first, so the groups concatenate into canonical order once their
  // query indices are shifted back.
  const usize threads = std::min<usize>(4, guides);
  std::vector<std::vector<cof::ot_record>> parts(threads);
  std::vector<std::thread> pool;
  for (usize t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const usize lo = guides * t / threads, hi = guides * (t + 1) / threads;
      std::vector<cof::query_spec> qs(in.cfg.queries.begin() + lo,
                                      in.cfg.queries.begin() + hi);
      parts[t] = cof::serial_search(pattern, qs, in.g);
      for (auto& r : parts[t]) r.query_index += static_cast<u32>(lo);
    });
  }
  for (auto& th : pool) th.join();
  for (auto& p : parts) {
    in.oracle.insert(in.oracle.end(), std::make_move_iterator(p.begin()),
                     std::make_move_iterator(p.end()));
  }
  in.generate_s = t1 - t0;
  in.oracle_s = now_s() - t1;
  return in;
}

std::vector<cof::ot_record> oracle_slice(const inputs& in, u32 q) {
  std::vector<cof::ot_record> out;
  for (const auto& r : in.oracle) {
    if (r.query_index != q) continue;
    out.push_back(r);
    out.back().query_index = 0;
  }
  return out;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize rank = static_cast<usize>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<usize>(rank, 1, v.size()) - 1];
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.1f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::pair<double, double> host_cpu_ticks() {
  double steal = 0, total = 0;
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    double v[8] = {};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1], &v[2], &v[3],
                    &v[4], &v[5], &v[6], &v[7]) == 8) {
      steal = v[7];
      for (const double x : v) total += x;
    }
    std::fclose(f);
  }
  return {steal, total};
}

void reset_peak_rss() {
  // Hand the heap's free pages (left by input generation and the oracle's
  // threads, and different on every seed) back to the kernel first, so the
  // peak starts from the live set and not from what the allocator kept.
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  double kib = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib == 0) {  // no procfs: the lifetime peak
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = static_cast<double>(ru.ru_maxrss);
  }
  return kib / 1024.0;
}

int tracer::open(const std::string& name) {
  span_rec s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.t0 = now_s();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void tracer::close(int id) {
  spans_[static_cast<usize>(id)].t1 = now_s();
  stack_.pop_back();
}

std::map<std::string, double> tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child[static_cast<usize>(s.parent)] += s.t1 - s.t0;
  }
  std::map<std::string, double> out;
  for (usize i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += (spans_[i].t1 - spans_[i].t0) - child[i];
  }
  return out;
}

double tracer::root_seconds() const {
  double s = 0;
  for (const auto& sp : spans_) {
    if (sp.parent < 0) s += sp.t1 - sp.t0;
  }
  return s;
}

void tracer::write_chrome_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const double base = spans_.empty() ? 0 : spans_.front().t0;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (usize i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f}%s\n",
                 s.name.c_str(), (s.t0 - base) * 1e6, (s.t1 - s.t0) * 1e6,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

void result::check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct) std::fprintf(stderr, "perfbench: DIVERGED from the oracle: %s\n", what.c_str());
  correct = false;
  ++failed;
}

void add_layer_busy(result& r, const tracer& tr) {
  static const std::vector<std::string> layers = {"decode", "pack",     "h2d",   "finder",
                                                  "comparer", "fetch", "format", "spill",
                                                  "merge"};
  for (const auto& [name, sec] : tr.self_seconds()) {
    const auto dot = name.find('.');
    const std::string layer = name.substr(0, dot);
    if (std::find(layers.begin(), layers.end(), layer) == layers.end()) continue;
    r.set(layer + ".busy_s" + (dot == std::string::npos ? "" : name.substr(dot)), sec);
  }
}

void add_fingerprint(result& r, const run_args& a) {
  const cof::engine_options eo;
  const cof::serve::server_options so;
  r.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.info["avx2"] = util::cpu().avx2 ? "true" : "false";
  r.info["simd_lanes_enabled"] = util::simd_lanes_enabled() ? "true" : "false";
  r.info["build_type"] = PERFBENCH_BUILD_TYPE;
  r.info["compiler"] = __VERSION__;
  r.info["seed"] = std::to_string(a.seed);
  r.info["workload"] = a.workload;
  r.info["comparer_variant"] = cof::comparer_variant_name(eo.variant);
  r.info["wg_size"] = std::to_string(eo.wg_size);
  r.info["max_chunk"] = std::to_string(eo.max_chunk);
  r.info["resident_bytes"] = std::to_string(eo.resident_bytes);
  r.info["num_queues"] = std::to_string(eo.num_queues);
  r.info["batch_window_us"] = std::to_string(so.batch_window_us);
  r.info["max_batch"] = std::to_string(so.max_batch);
}

const std::vector<facade>& facades() {
  static const std::vector<facade> f = {
      {cof::backend_kind::opencl, "opencl"},
      {cof::backend_kind::sycl, "sycl"},
      {cof::backend_kind::sycl_usm, "sycl-usm"},
      {cof::backend_kind::sycl_twobit, "sycl-2bit"},
  };
  return f;
}

const facade& default_facade() {
  for (const auto& f : facades()) {
    if (f.kind == cof::engine_options{}.backend) return f;
  }
  throw std::logic_error("the default backend is not a facade");
}

std::unique_ptr<cof::device_pipeline> make_facade_pipeline(cof::backend_kind k) {
  const cof::engine_options eo;
  cof::pipeline_options po;
  po.variant = eo.variant;
  po.wg_size = eo.wg_size;
  po.max_entries = eo.max_entries;
  switch (k) {
    case cof::backend_kind::opencl: return cof::make_opencl_pipeline(po);
    case cof::backend_kind::sycl_usm: return cof::make_sycl_usm_pipeline(po);
    case cof::backend_kind::sycl_twobit: return cof::make_sycl_twobit_pipeline(po);
    default: return cof::make_sycl_pipeline(po);
  }
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"decode.busy_s", "s"},  {"decode.bases", "count"}, {"pack.busy_s", "s"}};
    for (const auto& f : facades()) v.push_back({std::string("search_s.") + f.name, "s"});
    for (const auto& f : facades()) v.push_back({std::string("h2d.busy_s.") + f.name, "s"});
    for (const auto& f : facades()) v.push_back({std::string("h2d.bytes.") + f.name, "B"});
    for (const auto& f : facades()) v.push_back({std::string("finder.busy_s.") + f.name, "s"});
    v.insert(v.end(), {{"finder.loci", "count"},
                       {"finder.launches", "count"},
                       {"finder.yield", "fraction"}});
    for (const auto& f : facades()) v.push_back({std::string("comparer.busy_s.") + f.name, "s"});
    v.insert(v.end(), {{"comparer.entries", "count"},
                       {"comparer.launches", "count"},
                       {"comparer.yield", "fraction"}});
    for (const auto& f : facades()) v.push_back({std::string("fetch.busy_s.") + f.name, "s"});
    for (const auto& f : facades()) v.push_back({std::string("d2h.bytes.") + f.name, "B"});
    for (const auto& f : facades()) v.push_back({std::string("kernel.busy_s.") + f.name, "s"});
    v.insert(v.end(), {{"format.busy_s", "s"},
                       {"format.records", "count"},
                       {"spill.busy_s", "s"},
                       {"spill.runs", "count"},
                       {"merge.busy_s", "s"},
                       {"stage.decode_s", "s"},
                       {"stage.queue_wait_s", "s"},
                       {"stage.device_s", "s"},
                       {"stage.format_s", "s"},
                       {"stage.merge_s", "s"},
                       {"recover.retries", "count"},
                       {"index.build_s", "s"},
                       {"index.save_s", "s"},
                       {"index.load_s", "s"},
                       {"index.bytes", "B"},
                       {"residency.hits", "count"},
                       {"residency.misses", "count"},
                       {"residency.evictions", "count"},
                       {"residency.hit_ratio", "fraction"},
                       {"residency.bytes", "B"},
                       {"admit.busy_us.p50", "us"},
                       {"admit.busy_us.p99", "us"},
                       {"queue.wait_ms.p50", "ms"},
                       {"queue.wait_ms.p99", "ms"},
                       {"batch-wait.ms.p50", "ms"},
                       {"device.ms.p50", "ms"},
                       {"device.ms.p99", "ms"},
                       {"demux.ms.p50", "ms"},
                       {"batch.size.mean", "count"},
                       {"batch.count", "count"},
                       {"batch.retries", "count"},
                       {"generator.late_ms.p99", "ms"},
                       {"generator.late_ms.max", "ms"},
                       {"queue.depth.end", "count"},
                       {"served_rps", "req/s"},
                       {"serve.latency_p90_ms", "ms"},
                       {"serve.latency_p99_ms", "ms"}});
    for (const char* f : {"sycl", "opencl"}) {
      for (const char* k : {"finder_s", "comparer_s", "transfer_s", "elapsed_s"}) {
        v.push_back({std::string("modelled.") + k + "." + f, "s"});
      }
    }
    v.push_back({"trace.overhead_pct", "%"});
    return v;
  }();
  return m;
}

}  // namespace perfbench
