#include "runner/spec.h"

#include <sstream>

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
// human-readable.

const char kSpecVersion[] = "asyncrv.spec.v1";

template <typename T>
void field_list(std::ostream& os, const char* key, const std::vector<T>& v) {
  os << key << '=';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << static_cast<std::uint64_t>(v[i]);
  }
  os << '\n';
}

void canonicalize(std::ostream& os, const RendezvousSpec& s) {
  os << "kind=rendezvous\n";
  os << "graph=" << percent_escape(s.graph) << '\n';
  os << "adversary=" << percent_escape(s.adversary) << '\n';
  os << "algo=" << (s.algo == RouteAlgo::Baseline ? "baseline" : "rv-asynch-poly")
     << '\n';
  field_list(os, "labels", s.labels);
  field_list(os, "starts", s.starts);
  os << "budget=" << s.budget << '\n';
  os << "seed=" << s.seed << '\n';
  os << "ppoly=" << percent_escape(s.ppoly) << '\n';
  os << "kit_seed=" << s.kit_seed << '\n';
  os << "record_schedule=" << (s.record_schedule ? 1 : 0) << '\n';
}

void canonicalize(std::ostream& os, const SglSpec& s) {
  os << "kind=sgl\n";
  os << "graph=" << percent_escape(s.graph) << '\n';
  field_list(os, "labels", s.labels);
  field_list(os, "starts", s.starts);
  os << "budget=" << s.budget << '\n';
  os << "seed=" << s.seed << '\n';
  os << "ppoly=" << percent_escape(s.ppoly) << '\n';
  os << "kit_seed=" << s.kit_seed << '\n';
  os << "robust_phase3=" << (s.robust_phase3 ? 1 : 0) << '\n';
  os << "team=" << s.team.size() << '\n';
  for (std::size_t i = 0; i < s.team.size(); ++i) {
    const SglAgentSpec& a = s.team[i];
    os << "team." << i << '=' << a.start << ':' << a.label << ':'
       << percent_escape(a.value) << ':' << (a.initially_awake ? 1 : 0) << ':'
       << a.wake_after_units << '\n';
  }
}

void canonicalize(std::ostream& os, const SearchSpec& s) {
  os << "kind=search\n";
  os << "graph=" << percent_escape(s.graph) << '\n';
  os << "objective=" << percent_escape(s.objective) << '\n';
  os << "optimizer=" << percent_escape(s.optimizer) << '\n';
  field_list(os, "labels", s.labels);
  field_list(os, "starts", s.starts);
  os << "budget=" << s.budget << '\n';
  os << "evaluations=" << s.evaluations << '\n';
  os << "genome_len=" << s.genome_len << '\n';
  os << "seed=" << s.seed << '\n';
  os << "ppoly=" << percent_escape(s.ppoly) << '\n';
  os << "kit_seed=" << s.kit_seed << '\n';
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
  // fingerprints in tests/spec_test.cc pin this exact function.
  u128 h = (u128{0x6c62272e07bb0142ULL} << 64) | 0x62b821756295c58dULL;
  const u128 prime = (u128{0x0000000001000000ULL} << 64) | 0x000000000000013bULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= prime;
  }
  Fingerprint fp;
  fp.hi = static_cast<std::uint64_t>(h >> 64);
  fp.lo = static_cast<std::uint64_t>(h);
  return fp;
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
  std::ostringstream os;
  os << kSpecVersion << '\n';
  std::visit([&os](const auto& payload) { canonicalize(os, payload); },
             scenario);
  return os.str();
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
