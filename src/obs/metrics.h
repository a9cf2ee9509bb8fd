// Process-wide metrics registry (DESIGN.md §11).
//
// A MetricsRegistry is a name -> instrument map of three instrument kinds:
//
//  * Counter   — monotonically increasing u64 (events, cells, bytes);
//  * Gauge     — last-written u64 level (resident bytes, queue depth);
//  * Histogram — fixed-bucket base-2 exponential histogram of u64 samples
//                (durations in ns, sizes in bytes).
//
// Hot-path discipline: every increment/observe is a relaxed atomic RMW on
// pre-resolved storage — no locks, no allocation, no branches beyond the
// RMW itself. Callers resolve an instrument ONCE (registry lookup under a
// mutex, typically through a function-local static struct of references)
// and then hammer the returned reference; instrument addresses are stable
// for the life of the process.
//
// snapshot() is a consistent point-in-time copy in the per-instrument
// sense: each value read is some value the instrument actually held during
// the call (relaxed loads of independent atomics — never a torn word).
// Snapshots serialize to a versioned `asyncrv.metrics.v1` key=value text
// form (the METRICS wire response and each shard worker's pipe) and to JSON;
// from_text() + merge() turn per-process snapshots into fleet totals.
//
// Byte-identity guarantee: nothing in this module feeds spec fingerprints,
// outcome encoding, or sink bytes — metrics observe the run, they never
// enter it (gated by tests/obs_test.cc).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace asyncrv::obs {

inline constexpr char kMetricsVersion[] = "asyncrv.metrics.v1";

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Base-2 exponential histogram: bucket 0 holds the sample 0; bucket i in
/// [1, 62] holds samples in [2^(i-1), 2^i); bucket 63 holds everything
/// from 2^62 up. 64 buckets cover the full u64 range, so nanosecond
/// timings and byte sizes share one shape with no configuration.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// The bucket index of a sample (total function, never out of range).
  static int bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    const int b = 64 - std::countl_zero(v);
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Smallest sample landing in bucket b (0, 1, 2, 4, 8, ...).
  static std::uint64_t bucket_floor(int b) {
    if (b <= 0) return 0;
    return std::uint64_t{1} << (b - 1);
  }

  void observe(std::uint64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// One histogram's values inside a Snapshot.
struct HistogramValue {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t buckets[Histogram::kBuckets] = {};
};

/// A point-in-time copy of every registered instrument, name-sorted.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::map<std::string, HistogramValue> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// The versioned text form:
  ///
  ///   asyncrv.metrics.v1
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   hist <name> count=<c> sum=<s> b<i>=<n> ...
  ///   end
  ///
  /// Name-sorted within each kind; only nonzero histogram buckets are
  /// listed. Every line ends with '\n'; names contain no spaces.
  std::string to_text() const;

  /// Exact inverse of to_text(); nullopt on any malformation (wrong
  /// version line, bad tokens, missing trailer).
  static std::optional<Snapshot> from_text(const std::string& text);

  /// The same data as one JSON object, schema-tagged:
  /// {"schema":"asyncrv.metrics.v1","counters":{...},"gauges":{...},
  ///  "histograms":{"name":{"count":c,"sum":s,"buckets":{"i":n,...}}}}
  std::string to_json() const;

  /// Folds another process's snapshot into this one: counters and
  /// histograms add, gauges take the max (levels across a fleet are only
  /// comparable as a high-water mark).
  void merge(const Snapshot& other);
};

/// The process-wide instrument registry. Instruments are created on first
/// use of a name and live forever at a stable address; counter()/gauge()/
/// histogram() take a mutex (resolve once, not per increment).
class MetricsRegistry {
 public:
  /// The global registry (deliberately leaked: instrument references stay
  /// valid through static destruction).
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  Snapshot snapshot() const;

  /// Zeroes every registered instrument (names stay registered). For
  /// forked shard workers — a child must not re-report counts the parent
  /// accumulated — and for tests.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace asyncrv::obs
