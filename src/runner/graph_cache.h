// GraphCache — thread-safe interning of graph instances by id.
//
// Every scenario spec names its topology as a registry id string
// ("grid:512x512", "ring:6@77"), and ids are canonical: equal ids build
// equal graphs (make_graph is a pure function of the id). Before this
// cache, every scenario in a sweep rebuilt its graph from the id, so a
// 10k-scenario sweep on one topology constructed that topology 10k times —
// harmless on toy rings, prohibitive in the large-graph regime where one
// instance is tens of megabytes of CSR arrays.
//
// resolve(id) interns: the first caller constructs the graph (exactly once
// per id, even under concurrent misses — losers of the map race block on
// the winner's entry and receive the same handle), every later caller gets
// the shared immutable GraphHandle back. Graph is deeply immutable, so one
// instance can serve every worker thread of a sweep simultaneously.
//
// Construction failures are NOT interned: the failing attempt rethrows,
// its entry is discarded, and waiters (as well as later resolves) retry
// from scratch — so a transient failure (bad_alloc on a huge instance)
// does not poison the cache, while deterministic id errors simply
// re-throw identically on every attempt.
//
// stats() exposes the counters the acceptance tests and CI gate on:
// a sweep of S scenarios over T distinct topologies must show
// builds == T and hits == S - T (runner/pipeline.h threads one cache
// through all workers and snapshots the stats into its report).
//
// Eviction: a resident process (the asyncrvd daemon, src/service/) interns
// graphs for its whole lifetime, so the cache also keeps least-recently-
// used bookkeeping — resolve() touches an id, evict()/evict_until() drop
// interned instances in LRU order to honor a memory cap. Eviction is safe
// by shared ownership: outstanding handles stay valid, and the next
// resolve of an evicted id simply rebuilds (exactly once, the normal
// interning election). Stats gain `evictions` and a `resident_bytes_hwm`
// high-water mark so reports can show both current and peak footprint.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "graph/graph.h"

namespace asyncrv::runner {

class GraphCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;  ///< resolve() calls that returned a handle
    std::uint64_t hits = 0;     ///< served an already-interned instance
    std::uint64_t builds = 0;   ///< constructions actually performed
    std::uint64_t evictions = 0;        ///< instances dropped by evict*()
    std::uint64_t resident_graphs = 0;  ///< distinct interned instances
    std::uint64_t resident_bytes = 0;   ///< sum of Graph::memory_bytes()
    std::uint64_t resident_bytes_hwm = 0;  ///< peak of resident_bytes
  };

  GraphCache() = default;
  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// The interned graph for this registry id, building it on first use.
  /// Thread-safe; exactly one construction per id (and exactly one REbuild
  /// per eviction, however many threads race the miss). Touches the id's
  /// LRU position. Throws whatever make_graph throws (std::logic_error on
  /// malformed/unknown ids).
  GraphHandle resolve(const std::string& id);

  /// Drops the interned instance of this id, if one is resident. Returns
  /// whether anything was evicted (an unknown or still-building id is not).
  /// Outstanding handles stay valid; the next resolve rebuilds.
  bool evict(const std::string& id);

  /// Evicts least-recently-used instances until resident_bytes <=
  /// `max_bytes` (0 = evict everything resident). Returns the number of
  /// instances evicted. Instances mid-construction are not counted as
  /// resident and are never evicted here.
  std::uint64_t evict_until(std::uint64_t max_bytes);

  /// Counter snapshot (thread-safe).
  Stats stats() const;

 private:
  struct Entry {
    std::mutex build_mutex;
    GraphHandle graph;  ///< set exactly once, under build_mutex
    /// Position in lru_ while interned (most recent at front); only valid
    /// when in_lru (set when the build commits, cleared on evict).
    std::list<std::string>::iterator lru_it;
    bool in_lru = false;
  };

  /// Drops `it`'s interned instance (mutex_ held; entry must be in_lru).
  void evict_locked(std::unordered_map<std::string,
                                       std::shared_ptr<Entry>>::iterator it);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::list<std::string> lru_;  ///< interned ids, most recently used first
  Stats stats_;
};

}  // namespace asyncrv::runner
