#include "race/lockdep.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "base/config.hpp"

namespace strt::race {

namespace {

struct Held {
  LockId id;
  SiteId site;
};

/// Sites an edge was recorded with: the holder's acquisition site and
/// the new acquisition's site, kept for witness messages (the graph
/// itself is keyed by lock instance).
struct EdgeSites {
  SiteId held;
  SiteId acquired;
};

/// Global analyzer state, leaked deliberately: mutex hooks may fire
/// during static destruction of other translation units.
struct State {
  std::mutex mu;
  std::vector<std::string> site_names;
  std::unordered_map<std::string, SiteId> site_by_content;
  std::vector<std::vector<LockId>> adj;      // edges: lock -> locks
  std::unordered_set<std::uint64_t> edges;   // packed (a << 32) | b
  std::unordered_map<std::uint64_t, EdgeSites> edge_sites;
  std::vector<LockCycle> cycles;
  std::unordered_set<std::uint64_t> cycle_keys;  // closing edges seen
  void (*cycle_hook)(const LockCycle&) = nullptr;

  std::atomic<std::uint32_t> next_lock{0};
  std::atomic<std::uint64_t> acquisitions{0};
  std::atomic<std::uint64_t> n_edges{0};
  std::atomic<std::uint64_t> n_cycles{0};
};

State& state() {
  static State* s = new State;  // leaked: see struct comment
  return *s;
}

/// Per-thread held stack plus caches that keep the steady-state hook
/// path free of the global mutex (sites and edges already seen by this
/// thread skip straight through).
struct TlState {
  std::vector<Held> held;
  std::unordered_map<std::uint64_t, SiteId> site_cache;
  std::unordered_set<std::uint64_t> edge_cache;
};

// The per-thread state must survive being *asked for* after its own
// destruction: thread-storage objects are destroyed before static ones,
// and later thread-storage and static destructors (histogram shard
// hand-back, obs registries) still lock Mutexes on the way out.  A trivially-destructible pointer + flag pair
// stays readable forever; once the owner is destroyed, tls() returns
// nullptr and the hooks degrade to counting-only behavior.
thread_local TlState* tl_ptr = nullptr;
thread_local bool tl_destroyed = false;

TlState* tls() {
  if (tl_ptr != nullptr) return tl_ptr;
  if (tl_destroyed) return nullptr;
  struct Owner {
    TlState s;
    ~Owner() {
      tl_ptr = nullptr;
      tl_destroyed = true;
    }
  };
  thread_local Owner owner;
  tl_ptr = &owner.s;
  return tl_ptr;
}

std::atomic<bool> g_enabled_override{false};
std::atomic<int> g_enabled_value{-1};  // -1 unresolved, else 0/1

constexpr std::uint64_t pack_edge(LockId a, LockId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// DFS path from `from` to `to` over the adjacency lists; fills `path`
/// (excluding `from`) and returns true when reachable.  Called with the
/// state mutex held, only when a new edge appears -- not hot.
bool find_path(const State& s, LockId from, LockId to,
               std::vector<LockId>& path, std::vector<char>& seen) {
  if (from == to) return true;
  seen[from] = 1;
  for (const LockId next : s.adj[from]) {
    if (next == to) {
      // Check the target *before* the seen set: the caller pre-marks
      // the cycle's start node so the path cannot revisit it mid-way,
      // which must not stop the closing edge from terminating here.
      path.push_back(next);
      return true;
    }
    if (seen[next]) continue;
    path.push_back(next);
    if (find_path(s, next, to, path, seen)) return true;
    path.pop_back();
  }
  return false;
}

std::string site_label(const State& s, SiteId id) {
  return s.site_names[id];
}

/// Builds the Diagnostic-style message for a witness chain of edge
/// sites a -> b -> ... -> a (chain closed by the caller).
std::string cycle_message(const State& s, const std::vector<SiteId>& chain) {
  std::string msg = "error[race.lock-cycle] lock-order inversion (";
  msg += std::to_string(chain.size() - 1);
  msg += " sites): ";
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    if (i != 0) msg += "; ";
    msg += site_label(s, chain[i + 1]);
    msg += " acquired while holding ";
    msg += site_label(s, chain[i]);
  }
  msg += " -- the held-set order cycles, so two threads interleaving "
         "these acquisitions can deadlock";
  return msg;
}

void record_cycle(State& s, const std::vector<SiteId>& chain,
                  std::uint64_t closing_key) {
  if (!s.cycle_keys.insert(closing_key).second) return;  // seen
  LockCycle c;
  c.chain = chain;
  c.chain_names.reserve(chain.size());
  for (const SiteId id : chain) c.chain_names.push_back(site_label(s, id));
  c.message = cycle_message(s, chain);
  s.cycles.push_back(c);
  s.n_cycles.fetch_add(1, std::memory_order_relaxed);
  if (s.cycle_hook != nullptr) s.cycle_hook(s.cycles.back());
}

/// Inserts the instance edge a->b if new; on insertion, checks for a
/// b ->* a path and records the witness cycle as the chain of the
/// edges' acquisition sites.
void add_edge(LockId a, SiteId a_site, LockId b, SiteId b_site) {
  State& s = state();
  const std::uint64_t key = pack_edge(a, b);
  const std::lock_guard<std::mutex> lock(s.mu);
  if (!s.edges.insert(key).second) return;
  if (s.adj.size() <= static_cast<std::size_t>(a) ||
      s.adj.size() <= static_cast<std::size_t>(b)) {
    s.adj.resize(static_cast<std::size_t>(std::max(a, b)) + 1);
  }
  s.adj[a].push_back(b);
  s.edge_sites.emplace(key, EdgeSites{a_site, b_site});
  s.n_edges.fetch_add(1, std::memory_order_relaxed);
  if (a == b) {
    // Relocking the held instance: deadlock (std::mutex relock is UB).
    record_cycle(s, {a_site, b_site}, key);
    return;
  }
  std::vector<LockId> locks{a, b};
  std::vector<char> seen(s.adj.size(), 0);
  seen[a] = 1;  // a path revisiting `a` before the end is a sub-cycle
  if (!find_path(s, b, a, locks, seen)) return;
  // locks = a, b, ..., a; name the cycle by its edges' sites.
  std::vector<SiteId> chain;
  chain.reserve(locks.size());
  chain.push_back(a_site);
  chain.push_back(b_site);
  for (std::size_t i = 1; i + 1 < locks.size(); ++i) {
    const auto it = s.edge_sites.find(pack_edge(locks[i], locks[i + 1]));
    chain.push_back(it != s.edge_sites.end() ? it->second.acquired
                                             : a_site);
  }
  record_cycle(s, chain, key);
}

}  // namespace

SiteId lockdep_site(const std::source_location& loc, const char* label) {
  const std::uint64_t ptr_key =
      (reinterpret_cast<std::uint64_t>(
           label != nullptr ? static_cast<const void*>(label)
                            : static_cast<const void*>(loc.file_name())) *
       0x9E3779B97F4A7C15ULL) ^
      loc.line();
  TlState* t = tls();
  if (t != nullptr) {
    if (const auto it = t->site_cache.find(ptr_key);
        it != t->site_cache.end()) {
      return it->second;
    }
  }
  // Content key: explicit label, or file basename + line.
  std::string name;
  if (label != nullptr) {
    name = label;
  } else {
    std::string_view file = loc.file_name();
    if (const std::size_t slash = file.rfind('/');
        slash != std::string_view::npos) {
      file.remove_prefix(slash + 1);
    }
    name = std::string(file) + ":" + std::to_string(loc.line());
  }
  State& s = state();
  SiteId id = 0;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    const auto [it, inserted] =
        s.site_by_content.emplace(name, static_cast<SiteId>(s.site_names.size()));
    if (inserted) {
      s.site_names.push_back(name);
    }
    id = it->second;
  }
  if (t != nullptr) t->site_cache.emplace(ptr_key, id);
  return id;
}

LockId lockdep_register() {
  return state().next_lock.fetch_add(1, std::memory_order_relaxed);
}

void lockdep_forget(LockId id) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (static_cast<std::size_t>(id) < s.adj.size()) s.adj[id].clear();
  // Incoming edges become dead ends (id is never reused); the packed
  // keys stay in `edges` only to keep re-insertion cheaply idempotent.
}

void lockdep_acquire(LockId id, SiteId site) {
  state().acquisitions.fetch_add(1, std::memory_order_relaxed);
  TlState* t = tls();
  if (t == nullptr) return;  // thread teardown: count only
  for (const Held& h : t->held) {
    if (h.site == site && h.id != id) {
      // Two different instances nested under one site: the mirrored
      // instance order is reachable from this same line, so this is an
      // inversion without needing to see the second thread.  Dedup by
      // site (the instances involved vary run to run).
      State& s = state();
      const std::lock_guard<std::mutex> lock(s.mu);
      record_cycle(s, {site, site},
                   0x8000000000000000ULL | static_cast<std::uint64_t>(site));
      continue;
    }
    const std::uint64_t key = pack_edge(h.id, id);
    if (t->edge_cache.insert(key).second) {
      add_edge(h.id, h.site, id, site);
    }
  }
  t->held.push_back({id, site});
}

void lockdep_try_acquire(LockId id, SiteId site) {
  // The try_lock exemption: no edges -- a try_lock cannot block, so it
  // cannot be the waiting half of a deadlock.
  state().acquisitions.fetch_add(1, std::memory_order_relaxed);
  TlState* t = tls();
  if (t != nullptr) t->held.push_back({id, site});
}

void lockdep_release(LockId id) {
  TlState* t = tls();
  if (t == nullptr) return;
  std::vector<Held>& held = t->held;
  for (std::size_t i = held.size(); i-- > 0;) {
    if (held[i].id == id) {
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

bool lockdep_enabled() noexcept {
  if (g_enabled_override.load(std::memory_order_relaxed)) {
    return g_enabled_value.load(std::memory_order_relaxed) == 1;
  }
  int v = g_enabled_value.load(std::memory_order_relaxed);
  if (v < 0) {
    // strt::cfg's core is header-inline (and its registry uses a plain
    // std::mutex), so this resolves without linking strt_base and
    // without re-entering the lockdep runtime.
    v = cfg::get_bool("STRT_LOCKDEP", /*def=*/true) ? 1 : 0;
    g_enabled_value.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void lockdep_set_enabled(bool on) noexcept {
  g_enabled_value.store(on ? 1 : 0, std::memory_order_relaxed);
  g_enabled_override.store(true, std::memory_order_relaxed);
}

LockdepStats lockdep_stats() {
  State& s = state();
  LockdepStats out;
  out.acquisitions = s.acquisitions.load(std::memory_order_relaxed);
  out.edges = s.n_edges.load(std::memory_order_relaxed);
  out.cycles = s.n_cycles.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(s.mu);
  out.sites = s.site_names.size();
  return out;
}

std::vector<LockCycle> lockdep_cycles() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.cycles;
}

void lockdep_set_cycle_hook(void (*hook)(const LockCycle&)) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.cycle_hook = hook;
}

std::string lockdep_report() {
  const LockdepStats st = lockdep_stats();
  std::string out = "lockdep: " + std::to_string(st.acquisitions) +
                    " acquisitions, " + std::to_string(st.sites) +
                    " sites, " + std::to_string(st.edges) + " edges, " +
                    std::to_string(st.cycles) + " cycle(s)\n";
  for (const LockCycle& c : lockdep_cycles()) {
    out += "  ";
    out += c.message;
    out += "\n";
  }
  return out;
}

void lockdep_reset() {
  State& s = state();
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    for (auto& a : s.adj) a.clear();
    s.edges.clear();
    s.edge_sites.clear();
    s.cycles.clear();
    s.cycle_keys.clear();
    s.n_edges.store(0, std::memory_order_relaxed);
    s.n_cycles.store(0, std::memory_order_relaxed);
    s.acquisitions.store(0, std::memory_order_relaxed);
  }
  if (TlState* t = tls(); t != nullptr) {
    t->held.clear();
    t->edge_cache.clear();
  }
}

}  // namespace strt::race
