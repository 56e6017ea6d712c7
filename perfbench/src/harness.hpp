// Shared machinery of the repository benchmark: seeded inputs, the serial
// oracle, sample statistics, the benchmark's own span recorder (spans are
// taken around calls into the program, never inside it), and the result
// record every workload fills in.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "genome/fasta.hpp"

namespace perfbench {

using util::u16;
using util::u32;
using util::u64;
using util::usize;

/// The command-line arguments.
struct run_args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  double serve_rate = 0;  // serve_open's offered load, requests per second
  std::string work_dir;   // scratch space for FASTA, .cofidx and spill files
  std::string trace_dir;  // where a traced run writes its Chrome trace JSON
};

/// hg19/256: ~12.1 Mbp, 24 chunks at the default 4 MiB max_chunk.
inline constexpr usize kGenomeScale = 256;
/// Mismatch budget of every guide, as in the upstream example input.
inline constexpr u16 kMaxMismatches = 5;
inline constexpr const char* kPatternNRG = "NNNNNNNNNNNNNNNNNNNNNRG";
inline constexpr const char* kPatternCGG = "NNNNNNNNNNNNNNNNNNNNCGG";

/// One workload's generated inputs: the genome (with planted off-target
/// copies of every guide), the guides and the serial oracle's records.
struct inputs {
  genome::genome_t g;
  cof::search_config cfg;  // pattern + guides (genome_path unused)
  std::vector<cof::ot_record> oracle;
  double generate_s = 0;  // genome + guides + planting
  double oracle_s = 0;
};

/// Synthetic hg19/kGenomeScale from `seed` and `guides` 20-mers, each
/// followed by an all-N PAM with budget kMaxMismatches, with four planted
/// copies of each at 1, 2, 3 and 4 mismatches. The first `repeat_guides`
/// come from the assembly's repeat family and have records at ~19k copies;
/// the rest are sampled by seed from unique sequence. Fixing that split keeps
/// the record count, and so the work, nearly the same on every seed. The
/// oracle is serial_search over guide groups on a few threads; it runs
/// outside every timed region.
inputs make_inputs(u64 seed, const std::string& pattern, usize guides,
                   usize repeat_guides);

/// The oracle's records of guide `q`, renumbered to query_index 0 (what a
/// served single-guide request must return).
std::vector<cof::ot_record> oracle_slice(const inputs& in, u32 q);

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

/// Samples as a space-separated list, for the result's info line.
std::string join(const std::vector<double>& v);

double now_s();
/// The host's cumulative steal and total CPU ticks (/proc/stat), to report how
/// much CPU a shared host took from this machine during a run.
std::pair<double, double> host_cpu_ticks();
/// Peak resident set of this process since the last reset_peak_rss(), in MiB
/// (VmHWM, which Linux resets through /proc/self/clear_refs).
void reset_peak_rss();
double peak_rss_mb();

// ---------------------------------------------------------------------------
// span recorder
// ---------------------------------------------------------------------------

/// Benchmark-side spans around calls into the program's layers. Kept in
/// memory, written as Chrome trace JSON when the run ends. A layer's number
/// is the sum of its spans' self time (duration minus child spans).
class tracer {
 public:
  struct span_rec {
    std::string name;
    double t0 = 0, t1 = 0;
    int parent = -1;
  };

  /// Time `fn` as a span named `name` (nested under the open span, if any).
  template <class Fn>
  decltype(auto) span(const std::string& name, Fn&& fn) {
    const int id = open(name);
    struct closer {
      tracer* t;
      int id;
      ~closer() { t->close(id); }
    } c{this, id};
    return fn();
  }

  /// Self seconds per span name.
  std::map<std::string, double> self_seconds() const;
  /// Total wall seconds of the root spans.
  double root_seconds() const;
  void write_chrome_json(const std::string& path) const;

 private:
  int open(const std::string& name);
  void close(int id);

  std::vector<span_rec> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// results
// ---------------------------------------------------------------------------

/// One run's outcome. `metrics` holds exactly the names BENCHMARK.json lists
/// for the requested mode (end-to-end untraced, per-layer traced).
struct result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;  // fingerprint + resolved config
  bool invalid = false;                     // open-loop schedule not held
  std::string invalid_reason;

  void set(const std::string& name, double v) { metrics[name] = v; }
  void add(const std::string& name, double v) { metrics[name] += v; }
  /// Record a divergence from the oracle: the run fails and reports no number.
  void check(bool ok, const std::string& what);
};

/// Sets `<layer>.busy_s` from the self time of spans named `<layer>`, and
/// `<layer>.busy_s.<facade>` from spans named `<layer>.<facade>`, for the
/// program's layers; spans of the benchmark's own bookkeeping are skipped.
void add_layer_busy(result& r, const tracer& tr);

/// Fingerprint of the host and build plus the engine/server defaults every
/// workload resolves (they are engine_options{} / server_options{}).
void add_fingerprint(result& r, const run_args& a);

/// The facades, in the order their per-facade metrics are named.
struct facade {
  cof::backend_kind kind;
  const char* name;  // metric suffix
};
const std::vector<facade>& facades();
/// The facade engine_options{} selects.
const facade& default_facade();

/// A facade's pipeline with the pipeline_options the engine resolves from
/// engine_options{}.
std::unique_ptr<cof::device_pipeline> make_facade_pipeline(cof::backend_kind k);

/// The workloads. Each fills end-to-end metrics (a.trace == false) or
/// per-layer metrics (a.trace == true).
result run_cold_stream(const run_args& a);
result run_serve_open(const run_args& a);

/// Unit of every metric, keyed by name; the order BENCHMARK.json lists.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
