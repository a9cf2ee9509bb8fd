// asyncrv.proto.v1 — the wire protocol of the resident experiment service.
//
// A line-oriented text protocol over a local Unix-domain socket, in the
// pvdd tradition: human-debuggable with `nc -U`, trivially scriptable, and
// versioned so daemon and client can never silently disagree. Every
// request begins with the protocol version token; a daemon that does not
// speak the client's version rejects the frame instead of misparsing it.
//
// Request grammar (one frame per request; '\n'-terminated lines, an
// optional trailing '\r' is tolerated for netcat/telnet clients):
//
//   asyncrv.proto.v1 PING
//   asyncrv.proto.v1 STATUS
//   asyncrv.proto.v1 METRICS
//   asyncrv.proto.v1 RUN <escaped-canonical-spec>
//   asyncrv.proto.v1 SWEEP          \n spec <escaped-canonical-spec> ... \n end
//   asyncrv.proto.v1 SEARCH <graph> [objective] [optimizer] [evals] [seed]
//   asyncrv.proto.v1 SUBSCRIBE
//   asyncrv.proto.v1 EVICT [max-bytes]
//   asyncrv.proto.v1 DRAIN
//   asyncrv.proto.v1 SHUTDOWN
//
// <escaped-canonical-spec> is ExperimentSpec::canonical() percent-escaped
// through runner/encoding.h — the SAME canonical form and escaping the
// sweep cache and the spec fingerprints use, so a request submitted over
// the wire fingerprints (and therefore caches) identically to the same
// spec run by a batch binary. The daemon re-canonicalizes after parsing
// and rejects any text that is not an exact canonical form.
//
// Response grammar (line-oriented; every line is written atomically):
//
//   ok <info>                        single-line success
//   err <code> <message>             any failure; the connection stays
//                                    usable (codes: bad-version,
//                                    bad-request, bad-spec, too-large,
//                                    busy, draining, internal)
//   ok status \n key=value ... \n end            (STATUS)
//   ok metrics \n <asyncrv.metrics.v1 lines> \n end    (METRICS) — the
//                                    daemon's live obs::MetricsRegistry
//                                    snapshot, in its to_text() form
//   ok run|sweep|search id=<j> specs=<n>         (job accepted) followed by
//     row <jsonl>                     one per scenario, in spec order; the
//                                     payload is byte-identical to the
//                                     JsonlSink line of the same row
//     end scenarios=<n> ok=.. unresolved=.. errors=.. cache_hits=..
//         executed=.. batched=..      job complete
//   ok subscribed                     (SUBSCRIBE) followed by
//     event job=<j> index=<i> of=<n> status=<s> fingerprint=<hex>
//                                     as outcomes complete (any order), and
//     event job=<j> done              when a job finishes; the stream ends
//                                     only when the connection closes or
//                                     the daemon drains (end drained).
//
// RequestParser is the daemon side: an incremental, per-connection state
// machine that consumes raw bytes and yields complete requests or typed
// errors. It is deliberately paranoid — oversized lines, bad escapes,
// truncated multi-line frames and wrong version tags all surface as clean
// errors after which the connection remains usable (tests/protocol_test.cc
// fuzzes exactly this contract).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/spec.h"

namespace asyncrv::service {

inline constexpr char kProtoVersion[] = "asyncrv.proto.v1";

/// Longest accepted request line. Canonical specs are tiny (hundreds of
/// bytes); a megabyte line is a confused or hostile client, not a sweep.
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Most specs accepted in one SWEEP frame.
inline constexpr std::size_t kMaxSweepSpecs = 100'000;

enum class Verb {
  Ping,
  Status,
  Metrics,
  Run,
  Sweep,
  Search,
  Subscribe,
  Evict,
  Drain,
  Shutdown,
};

/// One complete, validated request.
struct Request {
  Verb verb = Verb::Ping;
  /// RUN: exactly 1; SWEEP: 1..kMaxSweepSpecs; SEARCH: the 1 spec built
  /// from the command arguments. Empty for the control verbs.
  std::vector<runner::ExperimentSpec> specs{};
  bool has_bytes = false;      ///< EVICT carried an explicit byte cap
  std::uint64_t bytes = 0;     ///< the EVICT cap (0 = evict everything)
};

/// Machine-readable error category of a rejected frame.
enum class ErrCode {
  BadVersion,  ///< first token is not kProtoVersion
  BadRequest,  ///< unknown verb, malformed arguments, truncated frame
  BadSpec,     ///< spec payload is not an exact canonical form
  TooLarge,    ///< line over kMaxLineBytes or sweep over kMaxSweepSpecs
  Busy,        ///< admission queue full (server-side)
  Draining,    ///< daemon no longer admits work (server-side)
  Internal,    ///< server-side failure
};

/// The wire token of an error code ("bad-version", "busy", ...).
const char* err_code_label(ErrCode code);

struct WireError {
  ErrCode code = ErrCode::BadRequest;
  std::string message;  ///< single-line, human-readable
};

/// Incremental request parser — one per connection. feed() raw bytes as
/// they arrive, then drain next() until it returns nullopt (more bytes
/// needed). Every yielded event is either a complete request or an error;
/// after any error the parser has resynchronized (at the next line
/// boundary, or at the end of the offending frame) and keeps parsing.
class RequestParser {
 public:
  struct Event {
    std::optional<Request> request;
    std::optional<WireError> error;  ///< set iff request is not
  };

  void feed(std::string_view bytes);

  /// The next complete request or error, if the buffered bytes contain
  /// one; nullopt when more input is needed.
  std::optional<Event> next();

  /// True while inside a multi-line frame (a SWEEP body) — a connection
  /// that closes in this state sent a truncated request.
  bool mid_request() const { return mode_ == Mode::SweepBody; }

 private:
  enum class Mode {
    Header,     ///< expecting a "asyncrv.proto.v1 VERB ..." line
    SweepBody,  ///< collecting "spec ..." lines until "end"
  };

  std::optional<std::string> take_line();
  Event header_event(const std::string& line);
  Event error_event(ErrCode code, std::string message);

  std::string buffer_;
  bool discarding_line_ = false;  ///< inside an oversized line, drop to '\n'
  Mode mode_ = Mode::Header;
  Request pending_;               ///< the SWEEP being collected
  bool sweep_failed_ = false;     ///< body error seen; reported at frame end
  WireError sweep_error_;
};

// --- client-side frame builders ---------------------------------------------
//
// Exact request frames (every returned string ends with '\n'); the client
// library sends these verbatim and the parser tests round-trip them.

std::string ping_request();
std::string status_request();
std::string metrics_request();
std::string run_request(const runner::ExperimentSpec& spec);
std::string sweep_request(const std::vector<runner::ExperimentSpec>& specs);
std::string search_request(const std::string& graph,
                           const std::string& objective,
                           const std::string& optimizer,
                           std::uint64_t evaluations, std::uint64_t seed);
std::string subscribe_request();
std::string evict_request(std::optional<std::uint64_t> max_bytes);
std::string drain_request();
std::string shutdown_request();

// --- server-side response builders ------------------------------------------

/// "ok <info>\n" (or "ok\n" for empty info).
std::string ok_line(const std::string& info);

/// "err <code> <message>\n"; newlines in the message are flattened so the
/// frame stays line-atomic.
std::string err_line(ErrCode code, const std::string& message);

}  // namespace asyncrv::service
