// The wire-protocol parser contract (service/protocol.h): every malformed
// input — wrong version tags, unknown verbs, oversized lines, bad escapes,
// truncated multi-line frames, garbage bytes — yields a clean typed error
// after which the SAME parser keeps accepting requests. A daemon must
// never crash, hang, or desynchronize because one client sent nonsense.
#include "service/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runner/encoding.h"
#include "runner/registry.h"
#include "runner/spec.h"

namespace asyncrv {
namespace {

using service::ErrCode;
using service::Request;
using service::RequestParser;
using service::Verb;

runner::ExperimentSpec rv_spec(std::uint64_t seed = 42) {
  runner::RendezvousSpec rv;
  rv.graph = "ring:6";
  rv.adversary = "random50";
  rv.labels = {5, 12};
  rv.budget = 1'000'000;
  rv.seed = seed;
  return {.name = "", .scenario = std::move(rv)};
}

/// Feeds bytes and drains every complete event.
std::vector<RequestParser::Event> pump(RequestParser& parser,
                                       const std::string& bytes) {
  parser.feed(bytes);
  std::vector<RequestParser::Event> events;
  while (auto ev = parser.next()) events.push_back(std::move(*ev));
  return events;
}

/// Asserts the parser still works: a PING parses to a Ping request.
void expect_usable(RequestParser& parser) {
  const auto events = pump(parser, service::ping_request());
  ASSERT_EQ(events.size(), 1u) << "parser desynchronized";
  ASSERT_TRUE(events[0].request.has_value());
  EXPECT_EQ(events[0].request->verb, Verb::Ping);
}

TEST(Protocol, ClientBuildersRoundTripThroughTheParser) {
  RequestParser parser;

  auto events = pump(parser, service::ping_request() +
                                 service::status_request() +
                                 service::metrics_request() +
                                 service::subscribe_request() +
                                 service::drain_request() +
                                 service::shutdown_request() +
                                 service::evict_request(std::nullopt) +
                                 service::evict_request(1 << 20));
  ASSERT_EQ(events.size(), 8u);
  const Verb expected[] = {Verb::Ping,     Verb::Status, Verb::Metrics,
                           Verb::Subscribe, Verb::Drain,  Verb::Shutdown,
                           Verb::Evict,     Verb::Evict};
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(events[i].request.has_value()) << "frame " << i;
    EXPECT_EQ(events[i].request->verb, expected[i]) << "frame " << i;
  }
  EXPECT_FALSE(events[6].request->has_bytes);
  EXPECT_TRUE(events[7].request->has_bytes);
  EXPECT_EQ(events[7].request->bytes, 1u << 20);

  // RUN and SWEEP carry specs that must round-trip exactly — equal
  // canonical forms mean equal fingerprints, the whole point of shipping
  // canonical specs over the wire.
  const runner::ExperimentSpec spec = rv_spec();
  events = pump(parser, service::run_request(spec));
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].request.has_value());
  ASSERT_EQ(events[0].request->specs.size(), 1u);
  EXPECT_EQ(events[0].request->specs[0].canonical(), spec.canonical());

  const std::vector<runner::ExperimentSpec> sweep = {rv_spec(1), rv_spec(2),
                                                     rv_spec(3)};
  events = pump(parser, service::sweep_request(sweep));
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].request.has_value());
  EXPECT_EQ(events[0].request->verb, Verb::Sweep);
  ASSERT_EQ(events[0].request->specs.size(), 3u);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(events[0].request->specs[i].fingerprint().hex(),
              sweep[i].fingerprint().hex());
  }

  events = pump(parser, service::search_request("petersen", "rv-cost", "hill",
                                                120, 7));
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].request.has_value());
  EXPECT_EQ(events[0].request->verb, Verb::Search);
  ASSERT_EQ(events[0].request->specs.size(), 1u);
  const runner::SearchSpec* se = events[0].request->specs[0].search();
  ASSERT_NE(se, nullptr);
  EXPECT_EQ(se->graph, "petersen");
  EXPECT_EQ(se->evaluations, 120u);
  EXPECT_EQ(se->seed, 7u);
}

TEST(Protocol, ByteAtATimeDeliveryParsesIdentically) {
  const std::string frames =
      service::ping_request() + service::run_request(rv_spec()) +
      service::sweep_request({rv_spec(1), rv_spec(2)});
  RequestParser parser;
  std::vector<RequestParser::Event> events;
  for (const char c : frames) {
    parser.feed(std::string_view(&c, 1));
    while (auto ev = parser.next()) events.push_back(std::move(*ev));
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].request->verb, Verb::Ping);
  EXPECT_EQ(events[1].request->verb, Verb::Run);
  ASSERT_EQ(events[2].request->specs.size(), 2u);
}

TEST(Protocol, WrongVersionTagIsRejectedAndTheConnectionSurvives) {
  RequestParser parser;
  for (const std::string bad :
       {"asyncrv.proto.v2 PING\n", "PING\n", "GET / HTTP/1.1\n",
        "asyncrv.proto. PING\n", " asyncrv.proto.v1 PING\n"}) {
    const auto events = pump(parser, bad);
    ASSERT_EQ(events.size(), 1u) << bad;
    ASSERT_TRUE(events[0].error.has_value()) << bad;
    EXPECT_EQ(events[0].error->code, ErrCode::BadVersion) << bad;
    expect_usable(parser);
  }
}

TEST(Protocol, UnknownVerbsAndMalformedArgumentsAreBadRequests) {
  RequestParser parser;
  const std::string v = service::kProtoVersion;
  for (const std::string& bad :
       {v + " FROBNICATE\n", v + "\n", v + " PING extra-arg\n",
        v + " RUN\n", v + " EVICT not-a-number\n", v + " EVICT -3\n",
        v + " SEARCH\n", v + " SEARCH ring:6 bad-objective\n",
        v + " SEARCH ring:6 rv-cost bad-optimizer\n",
        v + " SEARCH ring:6 rv-cost hill nan\n",
        v + " SWEEP trailing\n", v + " METRICS extra\n",
        v + " METRICS 0 1 2\n", v + " metrics\n",
        v + " METRICS \xff\xfe\n"}) {
    const auto events = pump(parser, bad);
    ASSERT_EQ(events.size(), 1u) << bad;
    ASSERT_TRUE(events[0].error.has_value()) << bad;
    EXPECT_EQ(events[0].error->code, ErrCode::BadRequest) << bad;
    expect_usable(parser);
  }
}

TEST(Protocol, BadEscapesAndNonCanonicalSpecsAreBadSpecs) {
  RequestParser parser;
  const std::string v = service::kProtoVersion;
  const std::string good = runner::percent_escape(rv_spec().canonical());
  for (const std::string& payload :
       {std::string("%zz"), std::string("%"), std::string("%2"),
        good + "%",                      // trailing malformed escape
        good + "trailing-bytes",         // valid prefix, junk suffix
        std::string("asyncrv.spec.v1%0A"),          // header only
        std::string("totally-not-a-spec")}) {
    const auto events = pump(parser, v + " RUN " + payload + "\n");
    ASSERT_EQ(events.size(), 1u) << payload;
    ASSERT_TRUE(events[0].error.has_value()) << payload;
    EXPECT_EQ(events[0].error->code, ErrCode::BadSpec) << payload;
    expect_usable(parser);
  }

  // Non-canonical variants of a VALID spec are rejected too: the daemon
  // must never run something whose fingerprint differs from its text.
  std::string canonical = rv_spec().canonical();
  const std::string reordered = "seed=42\n" + canonical;
  for (const std::string& text : {canonical + "x", reordered}) {
    const auto events =
        pump(parser, v + " RUN " + runner::percent_escape(text) + "\n");
    ASSERT_EQ(events.size(), 1u);
    ASSERT_TRUE(events[0].error.has_value());
    EXPECT_EQ(events[0].error->code, ErrCode::BadSpec);
    expect_usable(parser);
  }
}

TEST(Protocol, OversizedLinesAreDiscardedWithoutBufferingOrCrashing) {
  RequestParser parser;
  // Stream an endless line in chunks: the parser must reject it while the
  // line is still incomplete (bounded memory), then skip the rest.
  const std::string chunk(256 * 1024, 'x');
  parser.feed(service::kProtoVersion + std::string(" RUN "));
  std::vector<RequestParser::Event> events;
  for (int i = 0; i < 8 && events.empty(); ++i) {
    parser.feed(chunk);
    while (auto ev = parser.next()) events.push_back(std::move(*ev));
  }
  ASSERT_EQ(events.size(), 1u) << "must reject before buffering 2 MB";
  ASSERT_TRUE(events[0].error.has_value());
  EXPECT_EQ(events[0].error->code, ErrCode::TooLarge);

  // The tail of the monster line (and its newline) is swallowed; the next
  // frame parses normally.
  events = pump(parser, chunk + "\n");
  EXPECT_TRUE(events.empty());
  expect_usable(parser);

  // A complete-but-huge line arriving in one read is rejected the same way.
  const auto one_shot = pump(
      parser, std::string(service::kMaxLineBytes + 10, 'y') + "\n");
  ASSERT_EQ(one_shot.size(), 1u);
  ASSERT_TRUE(one_shot[0].error.has_value());
  EXPECT_EQ(one_shot[0].error->code, ErrCode::TooLarge);
  expect_usable(parser);
}

TEST(Protocol, TruncatedSweepResynchronizesOnTheNextHeader) {
  RequestParser parser;
  const std::string spec_line =
      "spec " + runner::percent_escape(rv_spec().canonical()) + "\n";

  // A SWEEP whose body is interrupted by a fresh request header: the
  // truncated frame errors, and the interrupting request still parses.
  auto events = pump(parser, service::kProtoVersion + std::string(" SWEEP\n") +
                                 spec_line + service::ping_request());
  ASSERT_EQ(events.size(), 2u);
  ASSERT_TRUE(events[0].error.has_value());
  EXPECT_EQ(events[0].error->code, ErrCode::BadRequest);
  ASSERT_TRUE(events[1].request.has_value());
  EXPECT_EQ(events[1].request->verb, Verb::Ping);

  // Mid-body garbage dooms the frame but the error is deferred to the
  // frame's end, so the body is consumed exactly once.
  events = pump(parser, service::kProtoVersion + std::string(" SWEEP\n") +
                            spec_line + "not-a-spec-line\n" + spec_line +
                            "end\n");
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].error.has_value());
  EXPECT_EQ(events[0].error->code, ErrCode::BadRequest);
  expect_usable(parser);

  // An empty sweep is loudly rejected, not silently accepted.
  events = pump(parser,
                service::kProtoVersion + std::string(" SWEEP\nend\n"));
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].error.has_value());
  EXPECT_EQ(events[0].error->code, ErrCode::BadRequest);
  expect_usable(parser);

  // A bad spec inside the body surfaces as BadSpec at the frame end.
  events = pump(parser, service::kProtoVersion + std::string(" SWEEP\n") +
                            "spec %zz\n" + spec_line + "end\n");
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].error.has_value());
  EXPECT_EQ(events[0].error->code, ErrCode::BadSpec);
  expect_usable(parser);

  // An unterminated body is visible to the server for EOF handling.
  RequestParser truncated;
  pump(truncated, service::kProtoVersion + std::string(" SWEEP\n") +
                      spec_line);
  EXPECT_TRUE(truncated.mid_request());
}

TEST(Protocol, GarbageBytesNeverCrashAndAlwaysRecover) {
  RequestParser parser;
  // A deterministic xorshift byte soup, newline-seasoned so lines appear.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  std::string soup;
  for (int i = 0; i < 20'000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    char c = static_cast<char>(state & 0xFF);
    if (c == '\0') c = 'x';
    soup += (i % 97 == 0) ? '\n' : c;
  }
  parser.feed(soup + "\n");
  int errors = 0;
  while (auto ev = parser.next()) {
    ASSERT_TRUE(ev->error.has_value()) << "garbage must never parse";
    ++errors;
  }
  EXPECT_GT(errors, 0);
  expect_usable(parser);

  // CRLF clients are tolerated (the \r is stripped, not part of the verb).
  const auto events =
      pump(parser, service::kProtoVersion + std::string(" PING\r\n"));
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].request.has_value());
  EXPECT_EQ(events[0].request->verb, Verb::Ping);
}

TEST(Protocol, ErrCodeLabelsAreStableWireTokens) {
  EXPECT_STREQ(service::err_code_label(ErrCode::BadVersion), "bad-version");
  EXPECT_STREQ(service::err_code_label(ErrCode::BadRequest), "bad-request");
  EXPECT_STREQ(service::err_code_label(ErrCode::BadSpec), "bad-spec");
  EXPECT_STREQ(service::err_code_label(ErrCode::TooLarge), "too-large");
  EXPECT_STREQ(service::err_code_label(ErrCode::Busy), "busy");
  EXPECT_STREQ(service::err_code_label(ErrCode::Draining), "draining");
  EXPECT_STREQ(service::err_code_label(ErrCode::Internal), "internal");
  EXPECT_EQ(service::err_line(ErrCode::Busy, "queue\nfull"),
            "err busy queue full\n");
  EXPECT_EQ(service::ok_line(""), "ok\n");
  EXPECT_EQ(service::ok_line("pong"), "ok pong\n");
}

}  // namespace
}  // namespace asyncrv
