// Flight recorder: an always-on, fixed-size ring of the most recent trace
// events (default 4096) that captures postmortem evidence WITHOUT full
// tracing being enabled. The serving daemon arms it for its lifetime; when
// a batch exhausts its retries, a fault site fires terminally, or the
// process reaches std::terminate, the ring plus a metrics-registry
// snapshot are dumped as `cof-postmortem-<pid>.json` — so a crashed batch
// leaves evidence even though nobody pre-enabled --trace-out.
//
// Cost model: while DISARMED every probe pays one extra relaxed atomic
// load next to the tracing check (obs::enabled()) — nothing else. While
// armed, each recorded event takes one short global mutex and one ring
// slot; serving batches are millisecond-scale, so the ring mutex is
// uncontended in practice. Arming nests (refcounted): overlapping servers
// or scopes each arm/disarm and the ring stays live until the last one.
//
// Dump triggers are explicit calls (serve::server wires terminal batch
// failures; the CLI wires fatal serve errors) plus an automatic
// std::terminate hook installed on first arm. Dumps are one-shot per
// cause but not rate-limited — each overwrites the site-named file with
// the freshest evidence.
#pragma once

#include <atomic>
#include <string>

#include "util/common.hpp"

namespace obs::flight {

using util::u64;
using util::usize;

/// Events retained in the ring (oldest overwritten first).
inline constexpr usize kCapacity = 4096;

namespace detail {
extern std::atomic<int> g_armed;
}

/// One relaxed atomic load — the gate every trace probe checks alongside
/// obs::enabled().
inline bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed) > 0;
}

/// Refcounted arm/disarm. The first arm() clears the ring and installs the
/// std::terminate hook (once per process); the last disarm() stops
/// recording but keeps the buffered events readable for a late dump.
void arm();
void disarm();

/// RAII arm/disarm guard.
class scope {
 public:
  scope() { arm(); }
  ~scope() { disarm(); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;
};

/// Directory postmortems are written into (default "."). The file name is
/// always cof-postmortem-<pid>.json.
void set_dump_dir(const std::string& dir);
std::string dump_path();

/// Write the postmortem JSON: {"postmortem": {pid, reason, site,
/// dumped_at_ns, events_dropped}, "events": [...], "metrics": {...}}.
/// `site` names the failing fault/serve site (may be empty). Returns false
/// (with a log line) on I/O failure. Safe to call disarmed — it dumps
/// whatever the ring last held.
bool dump(const std::string& reason, const std::string& site);

/// Postmortems written since process start (tests assert on this).
u64 dump_count();

/// Events currently buffered / overwritten since the last clear.
usize buffered();
u64 dropped();

/// Drop every buffered event (also done by the first arm()).
void clear();

}  // namespace obs::flight
