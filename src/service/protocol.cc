#include "service/protocol.h"

#include <algorithm>

#include "runner/encoding.h"

namespace asyncrv::service {

namespace {

/// First whitespace-delimited token and the remainder (leading spaces of
/// the remainder stripped).
std::pair<std::string, std::string> take_token(const std::string& s) {
  const std::size_t sp = s.find(' ');
  if (sp == std::string::npos) return {s, ""};
  std::size_t rest = s.find_first_not_of(' ', sp);
  if (rest == std::string::npos) rest = s.size();
  return {s.substr(0, sp), s.substr(rest)};
}

/// Decodes one percent-escaped canonical spec payload. The round-trip
/// through spec_from_canonical is the whole validation story: anything
/// that is not an exact canonical form is a bad spec.
std::optional<runner::ExperimentSpec> decode_spec(const std::string& escaped) {
  const auto text = runner::percent_unescape(escaped);
  if (!text) return std::nullopt;
  return runner::spec_from_canonical(*text);
}

/// SEARCH argument defaults mirror the rv_cli search mode: esst-phase
/// needs a smaller per-evaluation budget to keep interactive latency.
runner::SearchSpec search_spec(const std::string& graph,
                               const std::string& objective,
                               const std::string& optimizer,
                               std::uint64_t evaluations, std::uint64_t seed) {
  runner::SearchSpec spec;
  spec.graph = graph;
  spec.objective = objective;
  spec.optimizer = optimizer;
  spec.labels = {5, 12};
  spec.budget = objective == "esst-phase" ? 25'000 : 40'000;
  spec.evaluations = evaluations;
  spec.seed = seed;
  return spec;
}

bool known_objective(const std::string& s) {
  return s == "rv-cost" || s == "esst-phase" || s == "pi-margin";
}

bool known_optimizer(const std::string& s) {
  return s == "random" || s == "hill" || s == "anneal";
}

}  // namespace

const char* err_code_label(ErrCode code) {
  switch (code) {
    case ErrCode::BadVersion: return "bad-version";
    case ErrCode::BadRequest: return "bad-request";
    case ErrCode::BadSpec: return "bad-spec";
    case ErrCode::TooLarge: return "too-large";
    case ErrCode::Busy: return "busy";
    case ErrCode::Draining: return "draining";
    case ErrCode::Internal: return "internal";
  }
  return "internal";
}

void RequestParser::feed(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

std::optional<std::string> RequestParser::take_line() {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (discarding_line_) {
      // Inside an oversized line (already reported): drop bytes until its
      // terminating newline shows up.
      if (nl == std::string::npos) {
        buffer_.clear();
        return std::nullopt;
      }
      buffer_.erase(0, nl + 1);
      discarding_line_ = false;
      continue;
    }
    if (nl == std::string::npos) return std::nullopt;
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
  }
}

RequestParser::Event RequestParser::error_event(ErrCode code,
                                                std::string message) {
  Event ev;
  ev.error = WireError{code, std::move(message)};
  return ev;
}

RequestParser::Event RequestParser::header_event(const std::string& line) {
  auto [version, rest] = take_token(line);
  if (version != kProtoVersion) {
    return error_event(ErrCode::BadVersion,
                       "expected " + std::string(kProtoVersion));
  }
  auto [verb, args] = take_token(rest);

  const auto simple = [&](Verb v) {
    if (!args.empty()) {
      return error_event(ErrCode::BadRequest, verb + " takes no arguments");
    }
    Event ev;
    ev.request = Request{.verb = v};
    return ev;
  };
  if (verb == "PING") return simple(Verb::Ping);
  if (verb == "STATUS") return simple(Verb::Status);
  if (verb == "METRICS") return simple(Verb::Metrics);
  if (verb == "SUBSCRIBE") return simple(Verb::Subscribe);
  if (verb == "DRAIN") return simple(Verb::Drain);
  if (verb == "SHUTDOWN") return simple(Verb::Shutdown);

  if (verb == "RUN") {
    if (args.empty()) {
      return error_event(ErrCode::BadRequest, "RUN needs a spec");
    }
    auto spec = decode_spec(args);
    if (!spec) {
      return error_event(ErrCode::BadSpec, "not a canonical spec form");
    }
    Event ev;
    ev.request = Request{.verb = Verb::Run, .specs = {std::move(*spec)}};
    return ev;
  }

  if (verb == "SWEEP") {
    if (!args.empty()) {
      return error_event(ErrCode::BadRequest,
                         "SWEEP takes spec lines, not arguments");
    }
    mode_ = Mode::SweepBody;
    pending_ = Request{.verb = Verb::Sweep};
    sweep_failed_ = false;
    return Event{};  // nothing to report yet; next() keeps consuming
  }

  if (verb == "SEARCH") {
    // SEARCH <graph> [objective] [optimizer] [evals] [seed]
    std::vector<std::string> toks;
    std::string remaining = args;
    while (!remaining.empty()) {
      auto [tok, rest2] = take_token(remaining);
      toks.push_back(tok);
      remaining = rest2;
    }
    if (toks.empty() || toks.size() > 5) {
      return error_event(
          ErrCode::BadRequest,
          "SEARCH <graph> [objective] [optimizer] [evals] [seed]");
    }
    const std::string objective = toks.size() > 1 ? toks[1] : "rv-cost";
    const std::string optimizer = toks.size() > 2 ? toks[2] : "hill";
    if (!known_objective(objective)) {
      return error_event(ErrCode::BadRequest,
                         "unknown objective: " + objective);
    }
    if (!known_optimizer(optimizer)) {
      return error_event(ErrCode::BadRequest,
                         "unknown optimizer: " + optimizer);
    }
    std::uint64_t evaluations = 200, seed = 42;
    if (toks.size() > 3) {
      const auto v = parse_u64(toks[3]);
      if (!v) return error_event(ErrCode::BadRequest, "bad evals: " + toks[3]);
      evaluations = *v;
    }
    if (toks.size() > 4) {
      const auto v = parse_u64(toks[4]);
      if (!v) return error_event(ErrCode::BadRequest, "bad seed: " + toks[4]);
      seed = *v;
    }
    Event ev;
    ev.request = Request{.verb = Verb::Search};
    ev.request->specs.push_back(runner::ExperimentSpec{
        .name = "",
        .scenario = search_spec(toks[0], objective, optimizer, evaluations,
                                seed)});
    return ev;
  }

  if (verb == "EVICT") {
    Request req{.verb = Verb::Evict};
    if (!args.empty()) {
      const auto v = parse_u64(args);
      if (!v) {
        return error_event(ErrCode::BadRequest, "bad byte cap: " + args);
      }
      req.has_bytes = true;
      req.bytes = *v;
    }
    Event ev;
    ev.request = std::move(req);
    return ev;
  }

  if (verb.empty()) {
    return error_event(ErrCode::BadRequest, "missing verb");
  }
  return error_event(ErrCode::BadRequest, "unknown verb: " + verb);
}

std::optional<RequestParser::Event> RequestParser::next() {
  while (true) {
    // Oversized-line guard BEFORE waiting for the newline: a client that
    // streams an endless line must be rejected without buffering it all
    // (and a complete-but-huge line is rejected the same way).
    const std::size_t nl = buffer_.find('\n');
    const std::size_t first_line =
        nl == std::string::npos ? buffer_.size() : nl;
    if (!discarding_line_ && first_line > kMaxLineBytes) {
      discarding_line_ = true;
      if (mode_ == Mode::SweepBody) {
        // The frame is already doomed; remember why, report at its end.
        if (!sweep_failed_) {
          sweep_failed_ = true;
          sweep_error_ = {ErrCode::TooLarge, "line exceeds limit"};
        }
        continue;
      }
      return error_event(ErrCode::TooLarge, "line exceeds limit");
    }

    const auto line = take_line();
    if (!line) return std::nullopt;

    if (mode_ == Mode::Header) {
      if (line->empty()) continue;  // blank lines between frames are fine
      Event ev = header_event(*line);
      if (!ev.request && !ev.error) continue;  // SWEEP header: body follows
      return ev;
    }

    // SweepBody.
    if (*line == "end") {
      mode_ = Mode::Header;
      if (sweep_failed_) {
        return error_event(sweep_error_.code, sweep_error_.message);
      }
      if (pending_.specs.empty()) {
        return error_event(ErrCode::BadRequest, "empty sweep");
      }
      Event ev;
      ev.request = std::move(pending_);
      pending_ = Request{};
      return ev;
    }
    // A new version header inside a body means the previous frame was
    // truncated: report that, then reparse this line as a fresh header so
    // the connection resynchronizes without losing the new request.
    if (line->rfind(std::string(kProtoVersion) + " ", 0) == 0 ||
        *line == kProtoVersion) {
      mode_ = Mode::Header;
      buffer_.insert(0, *line + "\n");
      return error_event(ErrCode::BadRequest,
                         "truncated sweep: new request before 'end'");
    }
    if (sweep_failed_) continue;  // already doomed; just seek the frame end
    auto [tag, payload] = take_token(*line);
    if (tag != "spec" || payload.empty()) {
      sweep_failed_ = true;
      sweep_error_ = {ErrCode::BadRequest,
                      "expected 'spec <escaped-canonical>' or 'end'"};
      continue;
    }
    if (pending_.specs.size() >= kMaxSweepSpecs) {
      sweep_failed_ = true;
      sweep_error_ = {ErrCode::TooLarge, "sweep exceeds spec limit"};
      continue;
    }
    auto spec = decode_spec(payload);
    if (!spec) {
      sweep_failed_ = true;
      sweep_error_ = {ErrCode::BadSpec, "not a canonical spec form"};
      continue;
    }
    pending_.specs.push_back(std::move(*spec));
  }
}

// --- client-side frame builders ---------------------------------------------

namespace {
std::string header(const std::string& rest) {
  return std::string(kProtoVersion) + " " + rest + "\n";
}
}  // namespace

std::string ping_request() { return header("PING"); }
std::string status_request() { return header("STATUS"); }
std::string metrics_request() { return header("METRICS"); }

std::string run_request(const runner::ExperimentSpec& spec) {
  return header("RUN " + runner::percent_escape(spec.canonical()));
}

std::string sweep_request(const std::vector<runner::ExperimentSpec>& specs) {
  std::string frame = header("SWEEP");
  for (const auto& spec : specs) {
    frame += "spec " + runner::percent_escape(spec.canonical()) + "\n";
  }
  frame += "end\n";
  return frame;
}

std::string search_request(const std::string& graph,
                           const std::string& objective,
                           const std::string& optimizer,
                           std::uint64_t evaluations, std::uint64_t seed) {
  return header("SEARCH " + graph + " " + objective + " " + optimizer + " " +
                std::to_string(evaluations) + " " + std::to_string(seed));
}

std::string subscribe_request() { return header("SUBSCRIBE"); }

std::string evict_request(std::optional<std::uint64_t> max_bytes) {
  if (!max_bytes) return header("EVICT");
  return header("EVICT " + std::to_string(*max_bytes));
}

std::string drain_request() { return header("DRAIN"); }
std::string shutdown_request() { return header("SHUTDOWN"); }

// --- server-side response builders ------------------------------------------

std::string ok_line(const std::string& info) {
  if (info.empty()) return "ok\n";
  return "ok " + info + "\n";
}

std::string err_line(ErrCode code, const std::string& message) {
  std::string flat = message;
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  std::replace(flat.begin(), flat.end(), '\r', ' ');
  return "err " + std::string(err_code_label(code)) + " " + flat + "\n";
}

}  // namespace asyncrv::service
