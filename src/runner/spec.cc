#include "runner/spec.h"

#include "runner/encoding.h"
#include "util/prng.h"

namespace asyncrv::runner {

namespace {

// --- canonical form ---------------------------------------------------------
//
// Line-based `key=value` text with a versioned header. Strings are
// percent-escaped (runner/encoding.h) so that separators (newline, comma,
// colon, '%') occurring in user data (e.g. SGL payload values) cannot forge
// field boundaries; everything else is emitted verbatim to keep the form
// human-readable. Built by appends into one buffer: the form is rendered
// for every cache key, so it is on the per-cell path of every sweep.

const char kSpecVersion[] = "asyncrv.spec.v1";

void canonicalize(std::string& out, const RendezvousSpec& s) {
  out += "kind=rendezvous\n";
  append_escaped_field(out, "graph", s.graph);
  append_escaped_field(out, "adversary", s.adversary);
  out += s.algo == RouteAlgo::Baseline ? "algo=baseline\n"
                                       : "algo=rv-asynch-poly\n";
  append_list_field(out, "labels", s.labels);
  append_list_field(out, "starts", s.starts);
  append_u64_field(out, "budget", s.budget);
  append_u64_field(out, "seed", s.seed);
  append_escaped_field(out, "ppoly", s.ppoly);
  append_u64_field(out, "kit_seed", s.kit_seed);
  append_u64_field(out, "record_schedule", s.record_schedule ? 1 : 0);
}

void canonicalize(std::string& out, const SglSpec& s) {
  out += "kind=sgl\n";
  append_escaped_field(out, "graph", s.graph);
  append_list_field(out, "labels", s.labels);
  append_list_field(out, "starts", s.starts);
  append_u64_field(out, "budget", s.budget);
  append_u64_field(out, "seed", s.seed);
  append_escaped_field(out, "ppoly", s.ppoly);
  append_u64_field(out, "kit_seed", s.kit_seed);
  append_u64_field(out, "robust_phase3", s.robust_phase3 ? 1 : 0);
  append_u64_field(out, "team", s.team.size());
  for (std::size_t i = 0; i < s.team.size(); ++i) {
    const SglAgentSpec& a = s.team[i];
    out += "team.";
    append_decimal(out, i);
    out += '=';
    append_decimal(out, a.start);
    out += ':';
    append_decimal(out, a.label);
    out += ':';
    append_percent_escaped(out, a.value);
    out += a.initially_awake ? ":1:" : ":0:";
    append_decimal(out, a.wake_after_units);
    out += '\n';
  }
}

void canonicalize(std::string& out, const SearchSpec& s) {
  out += "kind=search\n";
  append_escaped_field(out, "graph", s.graph);
  append_escaped_field(out, "objective", s.objective);
  append_escaped_field(out, "optimizer", s.optimizer);
  append_list_field(out, "labels", s.labels);
  append_list_field(out, "starts", s.starts);
  append_u64_field(out, "budget", s.budget);
  append_u64_field(out, "evaluations", s.evaluations);
  append_u64_field(out, "genome_len", s.genome_len);
  append_u64_field(out, "seed", s.seed);
  append_escaped_field(out, "ppoly", s.ppoly);
  append_u64_field(out, "kit_seed", s.kit_seed);
}

}  // namespace

std::string Fingerprint::hex() const {
  static const char digits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t half = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);
    const auto byte = static_cast<unsigned>((half >> shift) & 0xff);
    out[static_cast<std::size_t>(2 * i)] = digits[byte >> 4];
    out[static_cast<std::size_t>(2 * i + 1)] = digits[byte & 0xf];
  }
  return out;
}

Fingerprint fingerprint_bytes(const std::string& bytes) {
  // FNV-1a-128 with the standard offset basis and prime. Frozen: the golden
  // fingerprints in tests/spec_test.cc pin this exact function. The prime
  // is 2^88 + 0x13b, so h * prime = h * 0x13b + (h << 88) mod 2^128: one
  // 64x64->128 multiply of the low word, a 64-bit multiply of the high
  // word, and the low word shifted into the high one (spec_test checks
  // this against the full 128-bit multiply).
  std::uint64_t hi = 0x6c62272e07bb0142ULL;
  std::uint64_t lo = 0x62b821756295c58dULL;
  for (const char c : bytes) {
    lo ^= static_cast<unsigned char>(c);
    const u128 low_product = static_cast<u128>(lo) * 0x13b;
    hi = hi * 0x13b + (lo << 24) +
         static_cast<std::uint64_t>(low_product >> 64);
    lo = static_cast<std::uint64_t>(low_product);
  }
  return Fingerprint{.hi = hi, .lo = lo};
}

std::vector<std::uint64_t> ExperimentSpec::labels() const {
  if (const RendezvousSpec* rv = rendezvous()) return rv->labels;
  if (const SearchSpec* se = search()) return se->labels;
  const SglSpec& sgl = *this->sgl();
  if (!sgl.labels.empty() || sgl.team.empty()) return sgl.labels;
  std::vector<std::uint64_t> out;
  out.reserve(sgl.team.size());
  for (const SglAgentSpec& a : sgl.team) out.push_back(a.label);
  return out;
}

std::string ExperimentSpec::display() const {
  if (!name.empty()) return name;
  std::string s;
  if (const RendezvousSpec* rv = rendezvous()) {
    s = rv->graph + " " + rv->adversary;
    if (rv->algo == RouteAlgo::Baseline) s += " baseline";
  } else if (const SearchSpec* se = search()) {
    s = se->graph + " " + se->objective + "/" + se->optimizer;
  } else {
    s = sgl()->graph;
  }
  const std::vector<std::uint64_t> ls = labels();
  for (std::size_t i = 0; i < ls.size(); ++i) {
    s += (i == 0 ? " L" : "/L") + std::to_string(ls[i]);
  }
  return s;
}

std::string ExperimentSpec::canonical() const {
  std::string out;
  out.reserve(256);  // a typical form is ~190 bytes: one allocation
  out += kSpecVersion;
  out += '\n';
  std::visit([&out](const auto& payload) { canonicalize(out, payload); },
             scenario);
  return out;
}

namespace {

// --- canonical-form parsing -------------------------------------------------
//
// One reader per kind, mirroring the canonicalize() writers above field for
// field. The parsers may accept slightly non-canonical numerals ("07"); the
// re-render check in spec_from_canonical rejects those wholesale, so the
// exact-inverse contract never depends on parser strictness.

std::optional<std::vector<Node>> node_list(const std::string& s) {
  const auto raw = LineReader::u64_list(s);
  if (!raw) return std::nullopt;
  std::vector<Node> out;
  out.reserve(raw->size());
  for (const std::uint64_t v : *raw) {
    if (v > 0xffffffffULL) return std::nullopt;
    out.push_back(static_cast<Node>(v));
  }
  return out;
}

std::optional<std::string> unescaped_field(LineReader& in, const char* key) {
  const auto v = in.field(key);
  if (!v) return std::nullopt;
  return percent_unescape(*v);
}

std::optional<RendezvousSpec> parse_rendezvous(LineReader& in) {
  RendezvousSpec s;
  const auto graph = unescaped_field(in, "graph");
  const auto adversary = unescaped_field(in, "adversary");
  const auto algo = in.field("algo");
  if (!graph || !adversary || !algo) return std::nullopt;
  s.graph = *graph;
  s.adversary = *adversary;
  if (*algo == "baseline") s.algo = RouteAlgo::Baseline;
  else if (*algo == "rv-asynch-poly") s.algo = RouteAlgo::RvAsynchPoly;
  else return std::nullopt;
  const auto labels = in.field("labels");
  const auto starts = in.field("starts");
  if (!labels || !starts) return std::nullopt;
  const auto label_list = LineReader::u64_list(*labels);
  const auto start_list = node_list(*starts);
  if (!label_list || !start_list) return std::nullopt;
  s.labels = *label_list;
  s.starts = *start_list;
  const auto budget = in.u64("budget");
  const auto seed = in.u64("seed");
  const auto ppoly = unescaped_field(in, "ppoly");
  const auto kit_seed = in.u64("kit_seed");
  const auto record = in.flag("record_schedule");
  if (!budget || !seed || !ppoly || !kit_seed || !record) return std::nullopt;
  s.budget = *budget;
  s.seed = *seed;
  s.ppoly = *ppoly;
  s.kit_seed = *kit_seed;
  s.record_schedule = *record;
  return s;
}

std::optional<SglSpec> parse_sgl(LineReader& in) {
  SglSpec s;
  const auto graph = unescaped_field(in, "graph");
  const auto labels = in.field("labels");
  const auto starts = in.field("starts");
  if (!graph || !labels || !starts) return std::nullopt;
  s.graph = *graph;
  const auto label_list = LineReader::u64_list(*labels);
  const auto start_list = node_list(*starts);
  if (!label_list || !start_list) return std::nullopt;
  s.labels = *label_list;
  s.starts = *start_list;
  const auto budget = in.u64("budget");
  const auto seed = in.u64("seed");
  const auto ppoly = unescaped_field(in, "ppoly");
  const auto kit_seed = in.u64("kit_seed");
  const auto robust = in.flag("robust_phase3");
  const auto team_size = in.u64("team");
  if (!budget || !seed || !ppoly || !kit_seed || !robust || !team_size ||
      *team_size > 1'000'000) {
    return std::nullopt;
  }
  s.budget = *budget;
  s.seed = *seed;
  s.ppoly = *ppoly;
  s.kit_seed = *kit_seed;
  s.robust_phase3 = *robust;
  for (std::uint64_t i = 0; i < *team_size; ++i) {
    const auto line = in.field("team." + std::to_string(i));
    if (!line) return std::nullopt;
    const auto parts = split(*line, ':');
    if (parts.size() != 5) return std::nullopt;
    const auto start = parse_u64(parts[0]);
    const auto label = parse_u64(parts[1]);
    const auto value = percent_unescape(parts[2]);
    const auto wake = parse_u64(parts[4]);
    if (!start || *start > 0xffffffffULL || !label || !value || !wake ||
        (parts[3] != "0" && parts[3] != "1")) {
      return std::nullopt;
    }
    SglAgentSpec a;
    a.start = static_cast<Node>(*start);
    a.label = *label;
    a.value = *value;
    a.initially_awake = parts[3] == "1";
    a.wake_after_units = *wake;
    s.team.push_back(std::move(a));
  }
  return s;
}

std::optional<SearchSpec> parse_search(LineReader& in) {
  SearchSpec s;
  const auto graph = unescaped_field(in, "graph");
  const auto objective = unescaped_field(in, "objective");
  const auto optimizer = unescaped_field(in, "optimizer");
  if (!graph || !objective || !optimizer) return std::nullopt;
  s.graph = *graph;
  s.objective = *objective;
  s.optimizer = *optimizer;
  const auto labels = in.field("labels");
  const auto starts = in.field("starts");
  if (!labels || !starts) return std::nullopt;
  const auto label_list = LineReader::u64_list(*labels);
  const auto start_list = node_list(*starts);
  if (!label_list || !start_list) return std::nullopt;
  s.labels = *label_list;
  s.starts = *start_list;
  const auto budget = in.u64("budget");
  const auto evaluations = in.u64("evaluations");
  const auto genome_len = in.u64("genome_len");
  const auto seed = in.u64("seed");
  const auto ppoly = unescaped_field(in, "ppoly");
  const auto kit_seed = in.u64("kit_seed");
  if (!budget || !evaluations || !genome_len || !seed || !ppoly || !kit_seed) {
    return std::nullopt;
  }
  s.budget = *budget;
  s.evaluations = *evaluations;
  s.genome_len = *genome_len;
  s.seed = *seed;
  s.ppoly = *ppoly;
  s.kit_seed = *kit_seed;
  return s;
}

}  // namespace

std::optional<ExperimentSpec> spec_from_canonical(const std::string& text) {
  LineReader in(text);
  const auto header = in.line();
  if (!header || *header != kSpecVersion) return std::nullopt;
  const auto kind = in.field("kind");
  if (!kind) return std::nullopt;
  ExperimentSpec out;
  if (*kind == "rendezvous") {
    auto s = parse_rendezvous(in);
    if (!s) return std::nullopt;
    out.scenario = std::move(*s);
  } else if (*kind == "sgl") {
    auto s = parse_sgl(in);
    if (!s) return std::nullopt;
    out.scenario = std::move(*s);
  } else if (*kind == "search") {
    auto s = parse_search(in);
    if (!s) return std::nullopt;
    out.scenario = std::move(*s);
  } else {
    return std::nullopt;
  }
  // Exact-inverse gate: anything the writers would not emit — trailing
  // garbage, reordered fields, "07"-style numerals — re-renders differently
  // and is rejected, so parse(text).fingerprint() can never drift from the
  // fingerprint of an equal batch-built spec.
  if (out.canonical() != text) return std::nullopt;
  return out;
}

std::vector<ExperimentSpec> rendezvous_grid(
    const std::vector<std::string>& graph_ids,
    const std::vector<std::string>& adversaries,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& label_pairs,
    std::uint64_t budget, std::uint64_t seed) {
  std::vector<ExperimentSpec> specs;
  for (const std::string& g : graph_ids) {
    for (const auto& [la, lb] : label_pairs) {
      for (const std::string& adv : adversaries) {
        RendezvousSpec rv;
        rv.graph = g;
        rv.adversary = adv;
        rv.labels = {la, lb};
        rv.budget = budget;
        // Independent, reproducible schedule per cell (the same derivation
        // the legacy rendezvous_sweep used, so historical tables hold).
        rv.seed = splitmix64(seed ^ (specs.size() + 1));
        specs.push_back({.name = "", .scenario = std::move(rv)});
      }
    }
  }
  return specs;
}

}  // namespace asyncrv::runner
