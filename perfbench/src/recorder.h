// The benchmark's own span recorder and per-layer attribution.
//
// Deliberately NOT obs::Tracer: the program's internal spans stay off in
// every measured run, and the benchmark records spans only around the
// calls it makes into each layer's public functions. Spans are kept in
// memory (one mutex-guarded vector; a span costs two clock reads and one
// append) and written out when the run ends.
//
// Attribution turns possibly-parallel spans into wall-clock shares that
// sum to the traced wall time exactly:
//
//   * a span that fans work out to a pool declares `fanout` = pool size;
//     its children (on the pool threads) cover child.duration / fanout of
//     its interval, and each child's wall share is weighted 1 / fanout;
//   * self(span) = duration − Σ children's covered time;
//   * wall share(span) = self(span) × weight(span), weight(root) = 1,
//     weight(child) = weight(parent) / fanout(parent).
//
// Every span is tagged with the layer it times; spans tagged with no layer
// (the benchmark's own loop, a pool's idle capacity) add up to the
// `residual` row. Σ layers + residual = Σ root durations, by construction,
// so that identity checks nothing. What can go wrong is a span set that
// contradicts itself — children that cover more than their parent (a
// pool narrower than declared, stage sums a child process reported that
// exceed the span they split) — or spans that explain too little of the
// wall time; attribution_errors() names both.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< the layer tag, or a glue name ("run", ...)
  std::uint64_t start_ns = 0, end_ns = 0;
  std::uint32_t thread = 0;  ///< small per-run thread number
  std::uint32_t fanout = 1;  ///< pool width of this span's children
  std::uint64_t request = 0; ///< request / iteration id shared by a tree
};

class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// RAII span. A disabled recorder hands out inert scopes (no clock
  /// reads), so one code path serves traced and untraced runs.
  class Scope {
   public:
    Scope(Recorder* rec, const char* name, std::uint64_t parent,
          std::uint64_t request, std::uint32_t fanout);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return span_.id; }

   private:
    Recorder* rec_;
    Span span_;
    std::uint64_t saved_current_ = 0;
  };

  /// Opens a span whose parent is the calling thread's innermost open span
  /// (or `parent`, when non-zero — pool workers pass their fan-out span).
  Scope span(const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0, std::uint32_t fanout = 1) {
    return Scope(enabled_ ? this : nullptr, name, parent, request, fanout);
  }

  /// Records an already-measured interval (a stage time a child process
  /// reported back) as a span under `parent`.
  void record(const char* name, std::uint64_t parent, std::uint64_t request,
              std::uint64_t start_ns, std::uint64_t end_ns);

  std::vector<Span> spans() const;

 private:
  friend class Scope;
  std::uint32_t thread_number();

  const bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint32_t> threads_;  ///< hashed tid -> number
};

/// Wall-clock attribution of a span set (see the file comment).
struct Attribution {
  double wall_s = 0;      ///< Σ root durations
  double residual_s = 0;  ///< wall share of untagged spans
  std::map<std::string, double> layer_s;    ///< wall share per layer tag
  std::map<std::string, double> busy_s;     ///< raw Σ durations per tag
  std::map<std::string, std::uint64_t> calls;
  std::map<std::string, double> max_call_s;
  std::uint64_t negative_spans = 0;  ///< spans whose self time is < 0
  double min_self_s = 0;             ///< the most negative self time
};

/// At most this share of the traced wall time may go unattributed.
inline constexpr double kMaxResidualFrac = 0.5;

/// Layer tags are the span names containing a '.' ("graph.resolve",
/// "cache.lookup", ...); other names are glue and count as residual.
Attribution attribute(const std::vector<Span>& spans);

/// The inconsistencies of an attribution (empty = consistent): spans or
/// layers with a negative self time, a residual beyond kMaxResidualFrac.
std::vector<std::string> attribution_errors(const Attribution& a);

/// Writes every span as one JSON object per line.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::string& meta_json);

/// Reads a file write_spans() wrote. Span names point into `names`, which
/// must outlive the spans. Returns false on a malformed line.
bool read_spans(const std::string& path, std::vector<Span>* spans,
                std::deque<std::string>* names);

}  // namespace perfbench
