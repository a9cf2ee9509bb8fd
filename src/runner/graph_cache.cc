#include "runner/graph_cache.h"

#include "obs/metrics.h"
#include "runner/registry.h"

namespace asyncrv::runner {

namespace {

/// Process-wide mirror of the per-instance Stats (DESIGN.md §11): event
/// counters sum across every GraphCache in the process; the residency
/// gauges track the most recent instance to change (each instance's exact
/// residency stays available via stats()).
struct GraphCacheInstruments {
  obs::Counter& lookups = obs::metrics().counter("graphcache.lookups");
  obs::Counter& hits = obs::metrics().counter("graphcache.hits");
  obs::Counter& builds = obs::metrics().counter("graphcache.builds");
  obs::Counter& evictions = obs::metrics().counter("graphcache.evictions");
  obs::Gauge& resident_graphs =
      obs::metrics().gauge("graphcache.resident_graphs");
  obs::Gauge& resident_bytes =
      obs::metrics().gauge("graphcache.resident_bytes");

  static GraphCacheInstruments& get() {
    static GraphCacheInstruments& in = *new GraphCacheInstruments();
    return in;
  }
};

}  // namespace

GraphHandle GraphCache::resolve(const std::string& id) {
  while (true) {
    std::shared_ptr<Entry> entry;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      auto& slot = entries_[id];
      if (!slot) slot = std::make_shared<Entry>();
      entry = slot;
    }

    // Build (or wait for the builder) outside the map lock: a slow
    // construction of one topology must not serialize resolves of others.
    const std::lock_guard<std::mutex> build_lock(entry->build_mutex);
    if (entry->graph) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.lookups;
      ++stats_.hits;
      GraphCacheInstruments::get().lookups.add(1);
      GraphCacheInstruments::get().hits.add(1);
      // Touch for LRU — unless a concurrent eviction already removed the
      // entry (the handle stays servable either way).
      if (entry->in_lru) lru_.splice(lru_.begin(), lru_, entry->lru_it);
      return entry->graph;
    }
    {
      // Unbuilt entry: either we created it just now, or we waited on a
      // builder that failed and discarded it. Only the entry still
      // registered in the map may be built into — a discarded one restarts
      // the resolve so accounting stays exact.
      const std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(id);
      if (it == entries_.end() || it->second != entry) continue;
    }
    try {
      GraphHandle built = std::make_shared<const Graph>(make_graph(id));
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.lookups;
      ++stats_.builds;
      GraphCacheInstruments::get().lookups.add(1);
      GraphCacheInstruments::get().builds.add(1);
      // Still the registered entry: eviction drops only built entries and
      // a failed build erases only its own, so nothing can have removed it
      // while we held its build lock. Intern and account for residency.
      entry->graph = std::move(built);
      lru_.push_front(id);
      entry->lru_it = lru_.begin();
      entry->in_lru = true;
      ++stats_.resident_graphs;
      stats_.resident_bytes += entry->graph->memory_bytes();
      if (stats_.resident_bytes > stats_.resident_bytes_hwm) {
        stats_.resident_bytes_hwm = stats_.resident_bytes;
      }
      GraphCacheInstruments::get().resident_graphs.set(stats_.resident_graphs);
      GraphCacheInstruments::get().resident_bytes.set(stats_.resident_bytes);
      return entry->graph;
    } catch (...) {
      // Never intern a failure: discard the entry so later resolves (and
      // any threads that were waiting on this attempt) retry, and rethrow.
      const std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(id);
      if (it != entries_.end() && it->second == entry) entries_.erase(it);
      throw;
    }
  }
}

void GraphCache::evict_locked(
    std::unordered_map<std::string, std::shared_ptr<Entry>>::iterator it) {
  Entry& entry = *it->second;
  stats_.resident_bytes -= entry.graph->memory_bytes();
  --stats_.resident_graphs;
  ++stats_.evictions;
  GraphCacheInstruments::get().evictions.add(1);
  GraphCacheInstruments::get().resident_graphs.set(stats_.resident_graphs);
  GraphCacheInstruments::get().resident_bytes.set(stats_.resident_bytes);
  lru_.erase(entry.lru_it);
  entry.in_lru = false;
  // Removing the map registration is what makes the next resolve rebuild
  // (and makes any in-flight waiter on this entry restart cleanly — the
  // same discipline failed builds use). The entry object itself stays
  // alive as long as someone holds its shared_ptr.
  entries_.erase(it);
}

bool GraphCache::evict(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end() || !it->second->graph || !it->second->in_lru) {
    return false;  // unknown, or still building: nothing resident to drop
  }
  evict_locked(it);
  return true;
}

std::uint64_t GraphCache::evict_until(std::uint64_t max_bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t evicted = 0;
  while (stats_.resident_bytes > max_bytes && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    // Every id on the LRU list is a registered, built entry by invariant.
    evict_locked(it);
    ++evicted;
  }
  return evicted;
}

GraphCache::Stats GraphCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace asyncrv::runner
