#include "fault/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace fault {

namespace {

enum class mode_t { off, always, hit, prob };

struct site_state {
  mode_t mode = mode_t::off;
  u64 hit_n = 0;   // hit mode: fire on this (1-based) hit
  double p = 0.0;  // prob mode
  u64 rng = 0;     // prob mode: per-site deterministic stream
  u64 hits = 0;
  u64 injected = 0;
};

struct registry_t {
  std::mutex mu;
  std::map<std::string, site_state, std::less<>> sites;
  std::atomic<usize> armed{0};
  usize scope_depth = 0;  // open fault::scopes
};

registry_t& reg() {
  static registry_t r;
  return r;
}

/// splitmix64 finaliser: spreads small seeds into a full-width rng state.
u64 mix(u64 s) {
  s += 0x9E3779B97F4A7C15ull;
  s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9ull;
  s = (s ^ (s >> 27)) * 0x94D049BB133111EBull;
  return s ^ (s >> 31);
}

/// xorshift64* — cheap, deterministic, and good enough for fault dice.
u64 next_rand(u64& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1Dull;
}

usize count_armed(const registry_t& r) {
  usize n = 0;
  for (const auto& [name, st] : r.sites) {
    if (st.mode != mode_t::off) ++n;
  }
  return n;
}

/// Shard ordinal of the current thread (-1 = unbound). Published by
/// xpu::scoped_device so `site@N` specs can target one device of a set.
thread_local int tl_shard = -1;

/// Parse and apply one "site=mode" spec. The site may carry an `@N`
/// shard qualifier; the base name must still be a known site. Caller
/// holds the registry mutex.
void apply_one(registry_t& r, std::string_view spec) {
  const auto eq = spec.find('=');
  COF_CHECK_MSG(eq != std::string_view::npos,
                "fault spec must be site=mode: " + std::string(spec));
  const std::string name(util::trim(spec.substr(0, eq)));
  const std::string mode(util::trim(spec.substr(eq + 1)));
  std::string base = name;
  const auto at = name.find('@');
  if (at != std::string::npos) {
    base = name.substr(0, at);
    unsigned long long ordinal = 0;
    COF_CHECK_MSG(util::parse_u64(name.substr(at + 1), ordinal),
                  "site@N needs an integer shard ordinal: " + name);
  }
  bool known = false;
  for (const auto& s : known_sites()) known = known || s == base;
  COF_CHECK_MSG(known, "unknown fault site: " + base);

  site_state st;
  if (mode == "always") {
    st.mode = mode_t::always;
  } else if (mode == "off") {
    st.mode = mode_t::off;
  } else if (util::starts_with(mode, "hit:")) {
    st.mode = mode_t::hit;
    unsigned long long n = 0;
    COF_CHECK_MSG(util::parse_u64(mode.substr(4), n) && n >= 1,
                  "hit:N needs an integer N >= 1: " + mode);
    st.hit_n = n;
  } else if (util::starts_with(mode, "prob:")) {
    st.mode = mode_t::prob;
    const char* cur = mode.c_str() + 5;
    char* end = nullptr;
    st.p = std::strtod(cur, &end);
    COF_CHECK_MSG(end != cur && st.p >= 0.0 && st.p <= 1.0,
                  "prob:P needs P in [0,1]: " + mode);
    unsigned long long seed = 0;
    if (*end == ':') {
      COF_CHECK_MSG(util::parse_u64(end + 1, seed),
                    "prob:P:seed needs an integer seed: " + mode);
    }
    st.rng = mix(seed ^ std::hash<std::string>{}(name));
  } else {
    util::die("unknown fault mode (always|off|hit:N|prob:P[:seed]): " + mode);
  }
  r.sites[name] = st;  // re-arming a site restarts its counters
}

}  // namespace

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      site::dev_alloc,  site::dev_launch,  site::pipe_event,  site::queue_push,
      site::queue_pop,  site::spill_write, site::spill_merge, site::entry_clamp,
      site::exec_kernel, site::fasta_parse, site::index_persist,
      site::index_load,  site::serve_admit, site::serve_batch};
  return sites;
}

void configure(std::string_view specs) {
  auto& r = reg();
  std::lock_guard lock(r.mu);
  usize begin = 0;
  while (begin <= specs.size()) {
    usize end = specs.find(',', begin);
    if (end == std::string_view::npos) end = specs.size();
    const std::string_view tok = util::trim(specs.substr(begin, end - begin));
    if (!tok.empty()) apply_one(r, tok);
    begin = end + 1;
  }
  r.armed.store(count_armed(r), std::memory_order_release);
}

void reset() {
  auto& r = reg();
  std::lock_guard lock(r.mu);
  r.sites.clear();
  r.armed.store(0, std::memory_order_release);
}

bool armed() {
  return reg().armed.load(std::memory_order_relaxed) != 0;
}

namespace {

/// Evaluate one armed registry entry under `key`. Caller holds the mutex.
bool eval_armed(registry_t& r, std::string_view key) {
  const auto it = r.sites.find(key);
  if (it == r.sites.end() || it->second.mode == mode_t::off) return false;
  site_state& st = it->second;
  ++st.hits;
  bool fire = false;
  switch (st.mode) {
    case mode_t::always: fire = true; break;
    case mode_t::hit: fire = st.hits == st.hit_n; break;
    case mode_t::prob:
      fire = static_cast<double>(next_rand(st.rng) >> 11) * 0x1.0p-53 < st.p;
      break;
    case mode_t::off: break;
  }
  if (fire) ++st.injected;
  if (obs::enabled()) {
    auto& mreg = obs::metrics_registry::global();
    mreg.counter("fault.hits." + std::string(key)).add(1);
    if (fire) mreg.counter("fault.injected." + std::string(key)).add(1);
  }
  return fire;
}

}  // namespace

void set_thread_shard(int ordinal) { tl_shard = ordinal; }

int thread_shard() { return tl_shard; }

bool should_fail(const char* site) {
  auto& r = reg();
  if (r.armed.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard lock(r.mu);
  bool fire = eval_armed(r, std::string_view(site));
  if (tl_shard >= 0) {
    // A site@N spec targets only threads bound to shard ordinal N.
    const std::string qualified =
        std::string(site) + "@" + std::to_string(tl_shard);
    fire = eval_armed(r, qualified) || fire;
  }
  return fire;
}

void inject_point(const char* site) {
  if (should_fail(site)) throw injected_error(site);
}

site_stats stats(std::string_view site) {
  auto& r = reg();
  std::lock_guard lock(r.mu);
  const auto it = r.sites.find(site);
  if (it == r.sites.end()) return {};
  return {it->second.hits, it->second.injected};
}

scope::scope(std::string_view specs) {
  bool outermost = false;
  {
    auto& r = reg();
    std::lock_guard lock(r.mu);
    outermost = r.scope_depth++ == 0;
  }
  if (outermost) {
    reset();
    if (const char* env = std::getenv("COF_FAULT")) configure(env);
  }
  if (!specs.empty()) configure(specs);
}

scope::~scope() {
  auto& r = reg();
  std::lock_guard lock(r.mu);
  if (--r.scope_depth != 0) return;
  // Disarm (no leakage into the next run) but keep the counters readable.
  for (auto& [name, st] : r.sites) st.mode = mode_t::off;
  r.armed.store(0, std::memory_order_release);
}

}  // namespace fault
