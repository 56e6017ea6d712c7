// Deterministic fault-injection registry. Named sites are wired through the
// layers of the engine that can actually fail in production — device
// allocation and kernel launch in the host facades, mid-kernel work-group
// execution in the xpu executor, pipe-event completion, bounded-queue
// hand-off, spill-run I/O, the entry-capacity check, and mid-parse FASTA
// decode — and
// armed per run from the COF_FAULT environment variable, engine_options::
// faults, or the CLI's --fault flag.
//
// Modes (spec syntax `site=mode`, comma-separated):
//   always            fire on every hit
//   hit:N             fire on the Nth hit only (1-based) — deterministic
//   prob:P[:seed]     fire with probability P from a per-site xorshift
//                     stream seeded by `seed` (default 0) — reproducible
//   off               disarm the site (counters keep their values)
//
// Multi-device targeting: a site may carry an `@N` qualifier
// (`dev.launch@1=always`) that restricts it to threads bound to shard
// ordinal N (xpu::scoped_device publishes the ordinal via
// set_thread_shard). Unqualified specs keep firing on every thread; a
// qualified spec only fires where the ordinal matches — the handle the
// shard-degradation tests use to kill exactly one device of a set.
//
// When nothing is armed, every injection point is a single relaxed atomic
// load. Per-site hit/injected counters are mirrored into the obs metrics
// registry ("fault.hits.<site>" / "fault.injected.<site>") while the obs
// subsystem is enabled, so traces and metrics snapshots show exactly where
// faults landed.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace fault {

using util::u64;
using util::usize;

/// Thrown by inject_point when an armed site fires. what() names the site,
/// so the error a run surfaces is always attributable.
class injected_error : public std::runtime_error {
 public:
  explicit injected_error(const std::string& site)
      : std::runtime_error("fault injected at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// The registered site names. Each constant marks one injection point class;
/// known_sites() enumerates them for tests and tooling.
namespace site {
inline constexpr const char* dev_alloc = "dev.alloc";      // facade buffer allocation
inline constexpr const char* dev_launch = "dev.launch";    // finder/comparer launch
inline constexpr const char* pipe_event = "pipe.event";    // pipe_event::wait
inline constexpr const char* queue_push = "queue.push";    // producer chunk hand-off
inline constexpr const char* queue_pop = "queue.pop";      // consumer chunk take
inline constexpr const char* spill_write = "spill.write";  // spill-run append
inline constexpr const char* spill_merge = "spill.merge";  // k-way run merge
inline constexpr const char* entry_clamp = "entry.clamp";  // entry-capacity check
inline constexpr const char* exec_kernel = "exec.kernel";  // mid-kernel, per work-group
inline constexpr const char* fasta_parse = "fasta.parse";  // mid-parse, per line, not per read
inline constexpr const char* index_persist = "index.persist";  // .cofidx write, per chunk
inline constexpr const char* index_load = "index.load";        // .cofidx read, per chunk
inline constexpr const char* serve_admit = "serve.admit";      // request admission, per submit
inline constexpr const char* serve_batch = "serve.batch";      // coalesced batch dispatch
}  // namespace site

/// Every site the engine wires an injection point through.
const std::vector<std::string>& known_sites();

/// Arm sites from a comma-separated spec list ("site=mode[,site=mode...]").
/// Unknown sites or malformed modes die — an unparseable fault plan must
/// never silently run clean.
void configure(std::string_view specs);

/// Disarm every site and zero the per-site counters.
void reset();

/// True when at least one site is armed (one relaxed atomic load — the gate
/// every injection point checks first).
bool armed();

/// Bind/read the calling thread's shard ordinal (-1 = unbound). Set by
/// xpu::scoped_device; `site@N` specs only fire on threads whose ordinal
/// matches N.
void set_thread_shard(int ordinal);
int thread_shard();

/// Count a hit at `site` and report whether its armed mode fires. False
/// when nothing is armed. Sites with a bespoke failure path (entry.clamp
/// forces the overflow report) branch on this directly. Threads bound to
/// a shard ordinal additionally evaluate the qualified `site@N` entry.
bool should_fail(const char* site);

/// should_fail + throw injected_error — the common injection point.
void inject_point(const char* site);

struct site_stats {
  u64 hits = 0;      // times the point was evaluated while the site was armed
  u64 injected = 0;  // times it fired
};

/// Counters for one site (zero if never armed). Survive scope exit so tests
/// can assert on them after a run.
site_stats stats(std::string_view site);

/// Per-run lifetime. Scopes nest: the outermost one resets the registry,
/// applies COF_FAULT from the environment, then `specs`
/// (engine_options::faults / --fault) on top, and its exit disarms every
/// site but keeps the counters readable. A nested scope (an engine entry
/// point called inside a caller's scope) only adds its own non-empty
/// `specs` to the live plan, restarting the counters of the sites it names,
/// and its exit leaves the plan armed.
class scope {
 public:
  explicit scope(std::string_view specs);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;
};

}  // namespace fault
