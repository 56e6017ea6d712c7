// The repository benchmark:
//
//   perfbench --workload cold_stream|serve_open --seed N
//             --seconds S --trace 0|1 --serve-rate R --work-dir D --trace-dir T
//
// Inputs are generated from --seed; every output is checked against the
// serial oracle. The last stdout line is one JSON object with `correct`,
// `attempted`, `failed` and `metrics` — the end-to-end metrics of an untraced
// run (--trace 0) or the per-layer metrics of a traced one (--trace 1). The
// line before it carries the machine fingerprint and resolved defaults.
// A divergence from the oracle, or an open-loop run that did not hold its
// schedule, exits non-zero without reporting a number.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "util/log.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload cold_stream|serve_open "
               "--seed N --seconds S --trace 0|1 --serve-rate R "
               "--work-dir DIR --trace-dir DIR\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  run_args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--serve-rate") a.serve_rate = std::strtod(v.c_str(), nullptr);
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-dir") a.trace_dir = v;
    else return usage(("unknown option " + k).c_str());
  }
  if (a.work_dir.empty() || a.trace_dir.empty()) return usage("missing --work-dir/--trace-dir");
  if (!(a.seconds > 0) || !(a.serve_rate > 0)) return usage("--seconds and --serve-rate must be > 0");
  util::set_log_level(util::log_level::warn);

  result r;
  const auto ticks0 = host_cpu_ticks();
  try {
    if (a.workload == "cold_stream") r = run_cold_stream(a);
    else if (a.workload == "serve_open") r = run_serve_open(a);
    else return usage(("unknown workload " + a.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(), e.what());
    return 1;
  }

  const auto ticks1 = host_cpu_ticks();
  if (ticks1.second > ticks0.second) {
    r.info["host_steal_pct"] = std::to_string(100.0 * (ticks1.first - ticks0.first) /
                                              (ticks1.second - ticks0.second));
  }
  std::string info = "{";
  for (const auto& [k, v] : r.info) {
    info += (info.size() > 1 ? ", \"" : "\"") + k + "\": \"" + json_escape(v) + "\"";
  }
  std::printf("%s}\n", info.c_str());

  if (r.invalid) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n", r.invalid_reason.c_str());
    return 3;
  }
  if (!r.correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu operations diverged from the oracle\n",
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted));
    return 4;
  }

  const auto& names = a.trace ? per_layer_metrics() : end_to_end_metrics();
  if (a.trace) {
    for (const auto& [name, v] : r.metrics) {
      bool listed = false;
      for (const auto& n : names) listed = listed || n.first == name;
      if (!listed) {
        std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n", name.c_str());
        return 5;
      }
    }
  }
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = r.metrics.find(name);
    // A layer a workload never calls did no work: 0. End-to-end metrics are
    // never 0, so a missing or zero one is a harness bug.
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v) || (!a.trace && !(v > 0))) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s is %g\n", name.c_str(), v);
      return 5;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
