#include "runner/cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string_view>

#include "obs/metrics.h"
#include "runner/encoding.h"
#include "sim/position.h"

namespace asyncrv::runner {

namespace {

/// The sweep cache's only tally (DESIGN.md §11): process-wide counters,
/// summed across every SweepCache in the process, bumped once per event.
struct SweepCacheInstruments {
  obs::Counter& lookups = obs::metrics().counter("sweepcache.lookups");
  obs::Counter& hits = obs::metrics().counter("sweepcache.hits");
  obs::Counter& stores = obs::metrics().counter("sweepcache.stores");
  obs::Counter& store_bytes = obs::metrics().counter("sweepcache.store_bytes");
  obs::Counter& fsyncs = obs::metrics().counter("sweepcache.fsyncs");
  obs::Counter& segments = obs::metrics().counter("sweepcache.segments");
  obs::Counter& pack_records =
      obs::metrics().counter("sweepcache.pack_records");
  obs::Counter& write_failures =
      obs::metrics().counter("sweepcache.write_failures");
  obs::Counter& fsync_failures =
      obs::metrics().counter("sweepcache.fsync_failures");
};

SweepCacheInstruments& sc_in() {
  static SweepCacheInstruments& in = *new SweepCacheInstruments();
  return in;
}

// A record's first line is kVersionPrefix followed by the format version.
constexpr const char kVersionPrefix[] = "asyncrv.cache.v";

void encode_pos(std::string& out, const Pos& p) {
  if (p.kind == Pos::Kind::Node) {
    out += "meeting=node:";
    append_decimal(out, p.node);
  } else {
    out += "meeting=edge:";
    append_decimal(out, p.eid);
    out += ':';
    append_decimal(out, p.off);
  }
  out += '\n';
}

// The strict line-oriented reader lives in runner/encoding.h (LineReader),
// shared with the canonical-spec parser and the service protocol.
using Reader = LineReader;

std::optional<Pos> decode_pos(const std::string& v) {
  const auto parts = split(v, ':');
  if (parts.size() >= 2 && parts[0] == "node") {
    const auto node = parse_u64(parts[1]);
    if (parts.size() != 2 || !node || *node > 0xffffffffULL) return std::nullopt;
    return Pos::at_node(static_cast<Node>(*node));
  }
  if (parts.size() == 3 && parts[0] == "edge") {
    const auto eid = parse_u64(parts[1]);
    const auto off = Reader::parse_i64(parts[2]);
    if (!eid || *eid > 0xffffffffULL || !off || *off <= 0 ||
        *off >= kEdgeUnits) {
      return std::nullopt;
    }
    return Pos::on_edge(static_cast<std::uint32_t>(*eid), *off);
  }
  return std::nullopt;
}

std::optional<RendezvousOutcome> decode_rendezvous(Reader& in) {
  RendezvousOutcome res;
  const auto met = in.flag("met");
  if (!met) return std::nullopt;
  res.result.met = *met;
  const auto meeting = in.field("meeting");
  if (!meeting) return std::nullopt;
  const auto pos = decode_pos(*meeting);
  if (!pos) return std::nullopt;
  res.result.meeting_point = *pos;
  const auto ta = in.u64("ta"), tb = in.u64("tb");
  if (!ta || !tb) return std::nullopt;
  res.result.traversals_a = *ta;
  res.result.traversals_b = *tb;
  const auto rv_budget = in.flag("rv_budget");
  if (!rv_budget) return std::nullopt;
  res.result.budget_exhausted = *rv_budget;
  const auto sched = in.field("schedule");
  if (!sched) return std::nullopt;
  if (!sched->empty()) {
    for (const std::string& step : split(*sched, ',')) {
      const auto parts = split(step, ':');
      if (parts.size() != 2) return std::nullopt;
      const auto agent = Reader::parse_i64(parts[0]);
      const auto delta = Reader::parse_i64(parts[1]);
      if (!agent || *agent < 0 || *agent > 0x7fffffff || !delta) {
        return std::nullopt;
      }
      res.schedule.steps.push_back({static_cast<int>(*agent), *delta});
    }
  }
  return res;
}

std::optional<SglOutcome> decode_sgl(const ExperimentSpec& spec, Reader& in) {
  SglOutcome res;
  const auto completed = in.flag("completed");
  const auto budget = in.flag("sgl_budget");
  const auto stuck = in.flag("stuck");
  const auto total = in.u64("total");
  if (!completed || !budget || !stuck || !total) return std::nullopt;
  res.run.completed = *completed;
  res.run.budget_exhausted = *budget;
  res.run.stuck = *stuck;
  res.run.total_traversals = *total;
  const auto per_agent = in.field("per_agent");
  if (!per_agent) return std::nullopt;
  const auto traversals = Reader::u64_list(*per_agent);
  if (!traversals) return std::nullopt;
  res.run.traversals_per_agent = *traversals;
  const auto states = in.field("states");
  if (!states) return std::nullopt;
  const auto state_ints = Reader::u64_list(*states);
  if (!state_ints) return std::nullopt;
  for (const std::uint64_t s : *state_ints) {
    if (s > static_cast<std::uint64_t>(SglState::Ghost)) return std::nullopt;
    res.run.final_states.push_back(static_cast<SglState>(s));
  }
  const auto n_outputs = in.u64("outputs");
  if (!n_outputs || *n_outputs > 1'000'000) return std::nullopt;
  for (std::uint64_t i = 0; i < *n_outputs; ++i) {
    const auto bag_line = in.field("output." + std::to_string(i));
    if (!bag_line) return std::nullopt;
    Bag bag;
    if (!bag_line->empty()) {
      for (const std::string& entry : split(*bag_line, ',')) {
        const auto parts = split(entry, ':');
        if (parts.size() != 2) return std::nullopt;
        const auto label = parse_u64(parts[0]);
        const auto value = percent_unescape(parts[1]);
        if (!label || !value) return std::nullopt;
        bag[*label] = *value;
      }
    }
    res.run.outputs.push_back(std::move(bag));
  }
  if (res.run.completed) {
    // Applications are derived, not stored: recompute them against the same
    // effective team the executor used.
    res.apps = derive_applications(res.run, effective_sgl_team(*spec.sgl()));
  }
  return res;
}

std::optional<SearchOutcome> decode_search(Reader& in) {
  SearchOutcome res;
  const auto genome = in.field("best_genome");
  if (!genome) return std::nullopt;
  const auto unescaped = percent_unescape(*genome);
  if (!unescaped) return std::nullopt;
  res.best_genome = *unescaped;
  const auto score = in.u64("best_score");
  const auto cost = in.u64("best_cost");
  const auto phase = in.u64("best_phase");
  const auto met = in.flag("best_met");
  const auto bound = in.u64("bound");
  const auto violations = in.u64("violations");
  const auto best_violation = in.flag("best_violation");
  const auto evaluations = in.u64("evaluations");
  const auto improvements = in.u64("improvements");
  if (!score || !cost || !phase || !met || !bound || !violations ||
      !best_violation || !evaluations || !improvements) {
    return std::nullopt;
  }
  res.best_score = *score;
  res.best_cost = *cost;
  res.best_phase = *phase;
  res.best_met = *met;
  res.bound = *bound;
  res.violations = *violations;
  res.best_violation = *best_violation;
  res.evaluations = *evaluations;
  res.improvements = *improvements;
  return res;
}

// ---------------------------------------------------------------------------
// Pack segment helpers (format `asyncrv.cachepack.v1`, DESIGN.md §10).
//
// Layout:
//   asyncrv.cachepack.v1\n
//   rec <fp_hex> <len>\n            } repeated; <len> payload bytes follow
//   <payload: encode_outcome bytes> }  the frame line immediately
//   ...
//
// There is no index or footer: open() walks the frames and stops at the
// first one that does not parse or whose payload is short, so everything
// before a tear stays servable. Segments of older releases end in an
// `idx`/`footer` trailer; its first line fails the frame parse, which ends
// the walk right after the last record.

constexpr const char kPackHeader[] = "asyncrv.cachepack.v1\n";
constexpr std::size_t kPackHeaderLen = sizeof(kPackHeader) - 1;
constexpr const char kPackSuffix[] = ".cachepack";
// A single outcome entry is a few hundred bytes; anything claiming more
// than this is a corrupt frame, not a record.
constexpr std::uint64_t kMaxRecordLen = 64ULL * 1024 * 1024;
// Longest well-formed frame line: "rec " + 32 hex + " " + 20 digits + "\n".
constexpr std::size_t kMaxFrameLine = 4 + 32 + 1 + 20 + 1;
// open() reads a segment in windows of this many bytes.
constexpr std::size_t kScanWindow = std::size_t{1} << 20;

std::optional<Fingerprint> parse_fp_hex(std::string_view s) {
  if (s.size() != 32) return std::nullopt;
  Fingerprint fp;
  for (int i = 0; i < 32; ++i) {
    const char c = s[static_cast<std::size_t>(i)];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    else return std::nullopt;
    if (i < 16) fp.hi = fp.hi << 4 | nibble;
    else fp.lo = fp.lo << 4 | nibble;
  }
  return fp;
}

struct Frame {
  Fingerprint fp;
  std::uint64_t len = 0;
  std::size_t line_len = 0;  ///< frame line bytes, '\n' included
};

// Parses the frame line "rec <fp_hex> <len>\n" at the start of `s`;
// nullopt unless the whole line, newline included, is in `s` and well
// formed with 0 < len <= kMaxRecordLen.
std::optional<Frame> parse_frame(std::string_view s) {
  const std::size_t nl = s.substr(0, kMaxFrameLine).find('\n');
  if (nl == std::string_view::npos || s.substr(0, 4) != "rec ") {
    return std::nullopt;
  }
  const std::string_view line = s.substr(4, nl - 4);
  if (line.size() < 34 || line[32] != ' ') return std::nullopt;
  const auto fp = parse_fp_hex(line.substr(0, 32));
  const auto len = parse_u64(std::string(line.substr(33)));
  if (!fp || !len || *len == 0 || *len > kMaxRecordLen) return std::nullopt;
  return Frame{*fp, *len, nl + 1};
}

bool write_all(int fd, const char* p, std::size_t left) {
  while (left > 0) {
    const ::ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

// The one writer of the frame format: appends the record `fp` → `payload`
// to the segment open (O_APPEND) on `fd`, frame line and payload in ONE
// write so a crash tears at most this record. Returns the frame line's
// size — the payload starts that many bytes past the segment's old end —
// or 0 if the write failed (errno set).
std::size_t append_record(int fd, const Fingerprint& fp,
                          const std::string& payload) {
  std::string buf;
  buf.reserve(kMaxFrameLine + payload.size());
  buf += "rec ";
  buf += fp.hex();
  buf += ' ';
  append_decimal(buf, payload.size());
  buf += '\n';
  const std::size_t frame = buf.size();
  buf += payload;
  return write_all(fd, buf.data(), buf.size()) ? frame : 0;
}

// pread exactly `len` bytes at `off`; false on EOF-before-len or error.
bool pread_all(int fd, std::uint64_t off, char* p, std::size_t len) {
  while (len > 0) {
    const ::ssize_t n = ::pread(fd, p, len, static_cast<::off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_dir(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return false;
  const bool ok = ::fsync(dfd) == 0;
  ::close(dfd);
  return ok;
}

// Creates a fresh segment `seg-<pid>-<n>.cachepack` in `dir` and writes
// its header. O_EXCL makes the name private to this call, so concurrent
// processes and cache objects never interleave appends within a file.
// Returns the O_APPEND fd and sets `path`, or -1 with errno set.
int create_segment(const std::string& dir, std::string& path) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    path = (std::filesystem::path(dir) /
            ("seg-" + std::to_string(::getpid()) + "-" +
             std::to_string(attempt) + kPackSuffix))
               .string();
    const int fd = ::open(path.c_str(),
                          O_RDWR | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC,
                          0644);
    if (fd < 0) {
      if (errno == EEXIST) continue;
      return -1;
    }
    if (!write_all(fd, kPackHeader, kPackHeaderLen)) {
      const int err = errno;
      ::close(fd);
      ::unlink(path.c_str());
      errno = err;
      return -1;
    }
    return fd;
  }
  return -1;  // errno is EEXIST from the last attempt
}

// The record of `outcome` for the spec whose canonical form is `canonical`
// (encode_outcome's bytes), built by appends into one buffer.
std::string encode_record(std::string_view canonical,
                          const ExperimentOutcome& outcome,
                          std::uint32_t format_version) {
  std::string out;
  out.reserve(canonical.size() + 256);
  out += kVersionPrefix;
  append_decimal(out, format_version);
  out += '\n';
  append_u64_field(out, "spec-bytes", canonical.size());
  out += canonical;  // ends with '\n' by construction
  out += outcome.status == RunStatus::Ok           ? "status=ok\n"
         : outcome.status == RunStatus::Unresolved ? "status=unresolved\n"
                                                   : "status=error\n";
  append_u64_field(out, "budget_exhausted", outcome.budget_exhausted ? 1 : 0);
  append_u64_field(out, "cost", outcome.cost);
  append_escaped_field(out, "error", outcome.error);
  if (const RendezvousOutcome* rv = outcome.rendezvous()) {
    out += "kind=rendezvous\n";
    append_u64_field(out, "met", rv->result.met ? 1 : 0);
    encode_pos(out, rv->result.meeting_point);
    append_u64_field(out, "ta", rv->result.traversals_a);
    append_u64_field(out, "tb", rv->result.traversals_b);
    append_u64_field(out, "rv_budget", rv->result.budget_exhausted ? 1 : 0);
    out += "schedule=";
    for (std::size_t i = 0; i < rv->schedule.steps.size(); ++i) {
      if (i) out += ',';
      append_decimal(out, rv->schedule.steps[i].agent);
      out += ':';
      append_decimal(out, rv->schedule.steps[i].delta);
    }
    out += '\n';
  } else if (const SglOutcome* sgl = outcome.sgl()) {
    out += "kind=sgl\n";
    append_u64_field(out, "completed", sgl->run.completed ? 1 : 0);
    append_u64_field(out, "sgl_budget", sgl->run.budget_exhausted ? 1 : 0);
    append_u64_field(out, "stuck", sgl->run.stuck ? 1 : 0);
    append_u64_field(out, "total", sgl->run.total_traversals);
    append_list_field(out, "per_agent", sgl->run.traversals_per_agent);
    append_list_field(out, "states", sgl->run.final_states);
    append_u64_field(out, "outputs", sgl->run.outputs.size());
    for (std::size_t i = 0; i < sgl->run.outputs.size(); ++i) {
      out += "output.";
      append_decimal(out, i);
      out += '=';
      std::size_t j = 0;
      for (const auto& [label, value] : sgl->run.outputs[i]) {
        if (j++) out += ',';
        append_decimal(out, label);
        out += ':';
        append_percent_escaped(out, value);
      }
      out += '\n';
    }
  } else if (const SearchOutcome* se = outcome.search()) {
    out += "kind=search\n";
    append_escaped_field(out, "best_genome", se->best_genome);
    append_u64_field(out, "best_score", se->best_score);
    append_u64_field(out, "best_cost", se->best_cost);
    append_u64_field(out, "best_phase", se->best_phase);
    append_u64_field(out, "best_met", se->best_met ? 1 : 0);
    append_u64_field(out, "bound", se->bound);
    append_u64_field(out, "violations", se->violations);
    append_u64_field(out, "best_violation", se->best_violation ? 1 : 0);
    append_u64_field(out, "evaluations", se->evaluations);
    append_u64_field(out, "improvements", se->improvements);
  } else {
    out += "kind=none\n";
  }
  out += "end\n";
  return out;
}

// decode_outcome against an already rendered `canonical` == spec.canonical().
std::optional<ExperimentOutcome> decode_record(const ExperimentSpec& spec,
                                               std::string_view canonical,
                                               std::string_view bytes,
                                               std::uint32_t format_version) {
  try {
    Reader in(bytes);
    if (!in.skip(kVersionPrefix) ||
        in.line() != std::to_string(format_version)) {
      return std::nullopt;
    }
    // The stored canonical spec must match the probe byte-for-byte — a
    // colliding fingerprint or a foreign file is a miss, never a wrong hit.
    const auto spec_bytes = in.u64("spec-bytes");
    if (!spec_bytes || *spec_bytes != canonical.size() ||
        !in.skip(canonical)) {
      return std::nullopt;
    }
    ExperimentOutcome out;
    const auto status = in.field("status");
    if (!status) return std::nullopt;
    if (*status == "ok") out.status = RunStatus::Ok;
    else if (*status == "unresolved") out.status = RunStatus::Unresolved;
    else if (*status == "error") out.status = RunStatus::Error;
    else return std::nullopt;
    const auto budget = in.flag("budget_exhausted");
    if (!budget) return std::nullopt;
    out.budget_exhausted = *budget;
    const auto cost = in.u64("cost");
    if (!cost) return std::nullopt;
    out.cost = *cost;
    const auto error = in.field("error");
    if (!error) return std::nullopt;
    const auto unescaped = percent_unescape(*error);
    if (!unescaped) return std::nullopt;
    out.error = *unescaped;
    const auto kind = in.field("kind");
    if (!kind) return std::nullopt;
    if (*kind == "rendezvous") {
      auto res = decode_rendezvous(in);
      if (!res) return std::nullopt;
      out.result = std::move(*res);
    } else if (*kind == "sgl") {
      auto res = decode_sgl(spec, in);
      if (!res) return std::nullopt;
      out.result = std::move(*res);
    } else if (*kind == "search") {
      auto res = decode_search(in);
      if (!res) return std::nullopt;
      out.result = std::move(*res);
    } else if (*kind != "none") {
      return std::nullopt;
    }
    // Strict trailer: the exact line "end", a final newline, and nothing
    // after it — any shorter prefix of a valid entry is a miss.
    const auto trailer = in.line();
    if (!trailer || *trailer != "end") return std::nullopt;  // truncated
    if (bytes.empty() || bytes.back() != '\n') return std::nullopt;
    if (in.line()) return std::nullopt;  // trailing garbage
    return out;
  } catch (const std::exception&) {
    return std::nullopt;  // any malformation is a miss, never an error
  }
}

}  // namespace

std::string encode_outcome(const ExperimentSpec& spec,
                           const ExperimentOutcome& outcome,
                           std::uint32_t format_version) {
  return encode_record(spec.canonical(), outcome, format_version);
}

std::optional<ExperimentOutcome> decode_outcome(const ExperimentSpec& spec,
                                                const std::string& bytes,
                                                std::uint32_t format_version) {
  return decode_record(spec, spec.canonical(), bytes, format_version);
}

// ---------------------------------------------------------------------------
// SweepCache

SweepCache::SweepCache(std::string dir, SweepCacheOptions options,
                       std::uint32_t format_version)
    : dir_(std::move(dir)), format_version_(format_version), options_(options) {
  std::filesystem::create_directories(dir_);
  std::lock_guard<std::mutex> lock(mu_);
  load_segments_locked();
}

SweepCache::~SweepCache() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
  for (const Segment& seg : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
}

void SweepCache::load_segments_locked() const {
  try {
    std::vector<std::string> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.size() > sizeof(kPackSuffix) &&
          name.compare(name.size() - (sizeof(kPackSuffix) - 1),
                       sizeof(kPackSuffix) - 1, kPackSuffix) == 0) {
        paths.push_back(entry.path().string());
      }
    }
    // Deterministic load order so duplicate fingerprints resolve the same
    // way in every process (last loaded wins in the map).
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) load_one_segment_locked(path);
  } catch (const std::exception&) {
    // An unreadable directory is just a cache that misses.
  }
}

bool SweepCache::load_one_segment_locked(const std::string& path) const {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct ::stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return false;
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  // The segment is read in kScanWindow windows; a new one starts at the
  // next frame whenever that frame's line might cross the current
  // window's end. Payloads are skipped by offset, never parsed.
  std::string window;
  std::uint64_t window_off = 0;
  const auto fill = [&](std::uint64_t off) {
    window.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(kScanWindow, file_size - off)));
    window_off = off;
    return pread_all(fd, off, window.data(), window.size());
  };
  if (!fill(0) || !std::string_view(window).starts_with(kPackHeader)) {
    ::close(fd);  // foreign or empty file wearing our suffix — ignore it
    return false;
  }
  const auto seg_index = static_cast<std::uint32_t>(segments_.size());
  std::uint64_t records = 0;
  for (std::uint64_t pos = kPackHeaderLen; pos < file_size;) {
    const std::uint64_t window_end = window_off + window.size();
    if (window_end < file_size && pos + kMaxFrameLine > window_end &&
        !fill(pos)) {
      break;
    }
    const auto frame =
        parse_frame(std::string_view(window).substr(pos - window_off));
    if (!frame) break;  // legacy idx line, torn frame, or garbage: stop here
    const std::uint64_t payload_off = pos + frame->line_len;
    if (payload_off + frame->len > file_size) break;  // torn payload
    index_[frame->fp] = Loc{seg_index, payload_off,
                            static_cast<std::uint32_t>(frame->len)};
    ++records;
    pos = payload_off + frame->len;
  }

  segments_.push_back(Segment{path, fd});
  sc_in().segments.add(1);
  sc_in().pack_records.add(records);
  return true;
}

std::optional<ExperimentOutcome> SweepCache::lookup(
    const ExperimentSpec& spec) const {
  // One render of the spec serves the key and the stored-spec compare.
  const std::string canonical = spec.canonical();
  const Fingerprint fp = fingerprint_bytes(canonical);
  std::lock_guard<std::mutex> lock(mu_);
  sc_in().lookups.add(1);
  const auto it = index_.find(fp);
  if (it == index_.end()) return std::nullopt;
  const Loc loc = it->second;
  const int fd = segments_[loc.segment].fd;
  std::string bytes(loc.length, '\0');
  if (fd < 0 || !pread_all(fd, loc.offset, bytes.data(), bytes.size())) {
    return std::nullopt;
  }
  // A collision or a damaged payload decodes to nullopt: a miss.
  auto out = decode_record(spec, canonical, bytes, format_version_);
  if (out) sc_in().hits.add(1);
  return out;
}

void SweepCache::fail_locked(bool fsync) const {
  const int err = errno;
  active_broken_ = true;
  (fsync ? sc_in().fsync_failures : sc_in().write_failures).add(1);
  if (!warned_) {
    warned_ = true;
    std::cerr << "warning: sweep cache " << dir_ << ": "
              << (fsync ? "fsync" : "write") << " failed ("
              << std::strerror(err)
              << "); this cache stores nothing more until it is reopened\n";
  }
}

bool SweepCache::ensure_active_locked() const {
  if (active_broken_) return false;
  if (active_segment_ >= 0) return true;
  std::string path;
  const int fd = create_segment(dir_, path);
  if (fd < 0) {
    fail_locked(/*fsync=*/false);
    return false;
  }
  active_segment_ = static_cast<std::int32_t>(segments_.size());
  segments_.push_back(Segment{path, fd});
  active_offset_ = kPackHeaderLen;
  sc_in().segments.add(1);
  return true;
}

void SweepCache::store(const ExperimentSpec& spec,
                       const ExperimentOutcome& outcome) const {
  try {
    // One render of the spec serves the key and the record.
    const std::string canonical = spec.canonical();
    const Fingerprint fp = fingerprint_bytes(canonical);
    const std::string bytes =
        encode_record(canonical, outcome, format_version_);
    std::lock_guard<std::mutex> lock(mu_);
    if (!ensure_active_locked()) return;
    const int fd = segments_[static_cast<std::size_t>(active_segment_)].fd;
    const std::size_t frame = append_record(fd, fp, bytes);
    if (frame == 0) {
      // A half-written tail is unrecoverable through this fd's bookkeeping;
      // stop appending (readers degrade the tear to misses) but keep
      // serving.
      fail_locked(/*fsync=*/false);
      return;
    }
    index_[fp] = Loc{static_cast<std::uint32_t>(active_segment_),
                     active_offset_ + frame,
                     static_cast<std::uint32_t>(bytes.size())};
    active_offset_ += frame + bytes.size();
    ++pending_records_;
    sc_in().stores.add(1);
    sc_in().store_bytes.add(bytes.size());
    sc_in().pack_records.add(1);
    if (options_.flush_every > 0 &&
        pending_records_ >= options_.flush_every) {
      flush_locked();
    }
  } catch (const std::exception&) {
    // Best-effort: a cache that cannot write is just a cache that misses.
  }
}

void SweepCache::flush() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

void SweepCache::flush_locked() const {
  if (pending_records_ > 0 && active_segment_ >= 0 && !active_broken_) {
    const int fd = segments_[static_cast<std::size_t>(active_segment_)].fd;
    if (::fsync(fd) != 0) {
      // Final: on Linux a failed fsync may already have dropped the dirty
      // pages, so a retry could report success for lost records.
      fail_locked(/*fsync=*/true);
      return;
    }
    sc_in().fsyncs.add(1);
    pending_records_ = 0;
  }
}

SweepCache::CompactStats SweepCache::compact() const {
  std::lock_guard<std::mutex> lock(mu_);
  try {
    if (segments_.empty()) return {};
    // Deterministic output order: fingerprint-sorted.
    std::vector<std::pair<Fingerprint, Loc>> order(index_.begin(),
                                                   index_.end());
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    // Write the replacement segment fully and fsync it BEFORE deleting
    // anything, so a crash at any point leaves every record readable from
    // either the old files or the new one.
    std::string new_path;
    const int fd = create_segment(dir_, new_path);
    if (fd < 0) return {};
    CompactStats cs;
    bool ok = true;
    std::string bytes;
    for (const auto& [fp, loc] : order) {
      bytes.resize(loc.length);
      if (!pread_all(segments_[loc.segment].fd, loc.offset, bytes.data(),
                     bytes.size())) {
        continue;
      }
      if (append_record(fd, fp, bytes) == 0) {
        ok = false;
        break;
      }
      ++cs.records;
      cs.bytes += bytes.size();
    }
    ok = ok && ::fsync(fd) == 0;
    ::close(fd);
    if (!ok) {
      ::unlink(new_path.c_str());
      return {};
    }
    sc_in().fsyncs.add(1);
    if (fsync_dir(dir_)) sc_in().fsyncs.add(1);

    // Now the old files are redundant: drop them and settle the directory.
    for (Segment& seg : segments_) {
      if (seg.fd >= 0) ::close(seg.fd);
      seg.fd = -1;
      std::error_code ec;
      std::filesystem::remove(seg.path, ec);
      ++cs.segments_merged;
    }
    if (fsync_dir(dir_)) sc_in().fsyncs.add(1);

    // Reload from disk: exactly one segment now. Records still pending in
    // the old active segment are durable in the new one.
    segments_.clear();
    index_.clear();
    active_segment_ = -1;
    active_offset_ = 0;
    pending_records_ = 0;
    active_broken_ = false;
    load_segments_locked();
    return cs;
  } catch (const std::exception&) {
    return {};  // best-effort like every other cache path
  }
}

}  // namespace asyncrv::runner
