// The persistent sweep cache — content-addressed experiment outcomes.
//
// A sweep re-run after an interrupt, or with an enlarged grid, should only
// pay for the cells it has not already computed. Because every
// ExperimentSpec has a stable 128-bit fingerprint of its canonical form
// (runner/spec.h), an outcome can be stored on disk under that fingerprint
// and substituted for a live run later: run_experiment is a pure function
// of the spec, so the substitution is exact — the pipeline's reports are
// byte-identical whether a cell was executed or loaded.
//
// Writes append to a log-structured PACK segment (`*.cachepack`, format
// `asyncrv.cachepack.v1`, DESIGN.md §10): framed entries, fsynced once
// per group-commit flush() instead of once per cell, one private segment
// per cache object so concurrent processes never interleave appends. A
// segment has no index: open() walks its frames in large buffered reads
// and keeps every record before the first damaged byte, so a segment cut
// short by a crash (torn tail) loads like a closed one — corruption
// degrades to misses for the torn tail only.
//
// Pack segments are the only representation read. A `*.outcome` file —
// the one-file-per-cell layout of older releases — is ignored: its cell is
// a miss, re-executes once and lands in a pack.
//
// Visibility: open() loads the fingerprint→offset map of every segment
// present at that moment, and the object's own appends join the map as
// they land. Segments that other processes append to later are NOT seen
// until the cache is reopened — a running daemon picks up a concurrent
// local run's cells only after it restarts.
//
// Robustness contract: the cache is best-effort and NEVER an error source.
//  * a missing, truncated, corrupted or version-mismatched entry is a miss
//    (the cell simply runs again and the entry is re-appended);
//  * the stored canonical spec is compared against the probe on every hit,
//    so a fingerprint collision (or a foreign file) degrades to a miss;
//  * store() failures (read-only dir, disk full, a failed fsync) never
//    reach the caller, but they are loud: each failed append or fsync
//    bumps `sweepcache.write_failures` / `sweepcache.fsync_failures`, the
//    first one per cache object prints a `warning:` line on stderr, and
//    the active segment takes no further appends (an fsync is never
//    retried — after a failed one the kernel may have dropped the data
//    while a retry reports success);
//  * a record is COMMITTED once flush() has fsynced it — kill -9 loses at
//    most the unflushed tail, and those cells simply re-execute.
//
// Entries are versioned (`asyncrv.cache.v<N>`): bumping kFormatVersion —
// required whenever the outcome serialization or simulator semantics
// change — invalidates every existing entry wholesale.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runner/outcome.h"
#include "runner/spec.h"

namespace asyncrv::runner {

/// Exact text serialization of an outcome (everything reports may render:
/// status, costs, rendezvous result + schedule, SGL run result). SGL
/// applications are not stored — they are re-derived from the cached run
/// result, which is why decode_outcome takes the spec.
std::string encode_outcome(const ExperimentSpec& spec,
                           const ExperimentOutcome& outcome,
                           std::uint32_t format_version);

/// Parses an encoded entry; nullopt on ANY malformation (truncation, bad
/// header, wrong version, spec mismatch). Exact inverse of encode_outcome
/// for well-formed input — pinned by tests/cache_test.cc.
std::optional<ExperimentOutcome> decode_outcome(const ExperimentSpec& spec,
                                                const std::string& bytes,
                                                std::uint32_t format_version);

struct SweepCacheOptions {
  /// No effect; every writer packs; delete with the next benchmark change
  /// (the benchmark still sets it).
  bool packed = true;

  /// Auto-group-commit after this many appended records (bounds the
  /// re-execution window of a crash between pipeline flushes). 0 = only
  /// explicit flush() calls commit.
  std::uint64_t flush_every = 1024;
};

class SweepCache {
 public:
  /// The on-disk format version baked into this build. Test-only overrides
  /// below simulate cross-release invalidation.
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Creates `dir` (and parents) if needed and loads the fingerprint map
  /// of every pack segment already in it. Throws only when the directory
  /// cannot be created at all — everything later is best-effort.
  explicit SweepCache(std::string dir, SweepCacheOptions options,
                      std::uint32_t format_version = kFormatVersion);
  explicit SweepCache(std::string dir,
                      std::uint32_t format_version = kFormatVersion)
      : SweepCache(std::move(dir), SweepCacheOptions{}, format_version) {}

  /// Flushes this cache's own segment (group commit of the pending tail)
  /// and closes every segment.
  ~SweepCache();
  SweepCache(const SweepCache&) = delete;
  SweepCache& operator=(const SweepCache&) = delete;

  /// The cached outcome of this spec, or nullopt on any kind of miss.
  /// Thread-safe.
  std::optional<ExperimentOutcome> lookup(const ExperimentSpec& spec) const;

  /// Appends the outcome to this cache's pack segment under the spec's
  /// fingerprint (best-effort, thread-safe). Durable once flush() returns.
  void store(const ExperimentSpec& spec,
             const ExperimentOutcome& outcome) const;

  /// Group commit: fsyncs this cache's pack segment. One call per run is
  /// the whole point — ExperimentPipeline::run calls it once at the end,
  /// and anything stored before a flush() returned is crash-durable
  /// ("committed"). No-op when nothing is pending.
  void flush() const;

  const std::string& dir() const { return dir_; }

  // Counters: each cache event (lookup, hit, store, fsync, segment load,
  // failure) is counted once, in the process metrics registry under
  // `sweepcache.*` (DESIGN.md §11). There is no per-object view; a caller
  // that wants one object's figures reads registry deltas across its life.

  /// Offline compaction (`rv_cli cache pack`): rewrites every readable
  /// record of every pack segment into ONE fresh segment, in fingerprint
  /// order and through the same append path as store(), then deletes the
  /// superseded segments (any other file is left alone). Safe against
  /// crashes (the new segment and the directory are fsynced before anything
  /// is deleted; on failure nothing is); NOT safe against concurrent
  /// writers of the same directory — compact quiesced caches only. Returns
  /// what was merged (all zero on failure).
  struct CompactStats {
    std::uint64_t records = 0;        ///< records in the new segment
    std::uint64_t bytes = 0;          ///< payload bytes in the new segment
    std::uint64_t segments_merged = 0;///< old segments folded in + deleted
  };
  CompactStats compact() const;

 private:
  struct Loc {
    std::uint32_t segment = 0;  ///< index into segments_
    std::uint64_t offset = 0;   ///< payload byte offset within the segment
    std::uint32_t length = 0;   ///< payload byte length
  };
  struct FpHash {
    std::size_t operator()(const Fingerprint& f) const {
      return static_cast<std::size_t>(f.hi * 0x9e3779b97f4a7c15ULL ^ f.lo);
    }
  };
  struct Segment {
    std::string path;
    int fd = -1;  ///< O_RDONLY for loaded segments; O_RDWR for the active one
  };

  void load_segments_locked() const;
  bool load_one_segment_locked(const std::string& path) const;
  bool ensure_active_locked() const;
  void flush_locked() const;
  void fail_locked(bool fsync) const;

  std::string dir_;
  std::uint32_t format_version_;
  SweepCacheOptions options_;

  mutable std::mutex mu_;
  mutable std::vector<Segment> segments_;
  mutable std::unordered_map<Fingerprint, Loc, FpHash> index_;
  mutable std::int32_t active_segment_ = -1;  ///< index into segments_
  mutable std::uint64_t active_offset_ = 0;
  mutable std::uint64_t pending_records_ = 0;  ///< appended since last fsync
  mutable bool active_broken_ = false;  ///< append/fsync failed; stop packing
  mutable bool warned_ = false;  ///< the one stderr warning was printed
};

}  // namespace asyncrv::runner
