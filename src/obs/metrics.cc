#include "obs/metrics.h"

#include <sstream>

#include "util/text.h"

namespace asyncrv::obs {

namespace {

/// "key=<u64>" with exactly this key; nullopt otherwise.
std::optional<std::uint64_t> keyed_u64(const std::string& tok,
                                       const std::string& key) {
  if (tok.rfind(key + "=", 0) != 0) return std::nullopt;
  return parse_u64(tok.substr(key.size() + 1));
}

}  // namespace

std::string Snapshot::to_text() const {
  std::ostringstream os;
  os << kMetricsVersion << '\n';
  for (const auto& [name, v] : counters) {
    os << "counter " << name << ' ' << v << '\n';
  }
  for (const auto& [name, v] : gauges) {
    os << "gauge " << name << ' ' << v << '\n';
  }
  for (const auto& [name, h] : histograms) {
    os << "hist " << name << " count=" << h.count << " sum=" << h.sum;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets[b] != 0) os << " b" << b << '=' << h.buckets[b];
    }
    os << '\n';
  }
  os << "end\n";
  return os.str();
}

std::optional<Snapshot> Snapshot::from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMetricsVersion) return std::nullopt;
  Snapshot snap;
  bool ended = false;
  while (std::getline(in, line)) {
    if (ended) return std::nullopt;  // trailing garbage
    if (line == "end") {
      ended = true;
      continue;
    }
    const auto toks = split(line, ' ');
    if (toks.size() < 3 || toks[1].empty()) return std::nullopt;
    if (toks[0] == "counter" || toks[0] == "gauge") {
      if (toks.size() != 3) return std::nullopt;
      const auto v = parse_u64(toks[2]);
      if (!v) return std::nullopt;
      auto& dst = toks[0] == "counter" ? snap.counters : snap.gauges;
      dst[toks[1]] = *v;
      continue;
    }
    if (toks[0] != "hist" || toks.size() < 4) return std::nullopt;
    HistogramValue h;
    const auto count = keyed_u64(toks[2], "count");
    const auto sum = keyed_u64(toks[3], "sum");
    if (!count || !sum) return std::nullopt;
    h.count = *count;
    h.sum = *sum;
    for (std::size_t i = 4; i < toks.size(); ++i) {
      const std::size_t eq = toks[i].find('=');
      if (eq == std::string::npos || toks[i].empty() || toks[i][0] != 'b') {
        return std::nullopt;
      }
      const auto bucket = parse_u64(toks[i].substr(1, eq - 1));
      const auto v = parse_u64(toks[i].substr(eq + 1));
      if (!bucket ||
          *bucket >= static_cast<std::uint64_t>(Histogram::kBuckets) || !v) {
        return std::nullopt;
      }
      h.buckets[static_cast<std::size_t>(*bucket)] = *v;
    }
    snap.histograms[toks[1]] = h;
  }
  if (!ended) return std::nullopt;  // truncated
  return snap;
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"" << kMetricsVersion << "\",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "" : ",") << '"' << json_escape(name) << "\":" << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "" : ",") << '"' << json_escape(name) << "\":" << v;
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "" : ",") << '"' << json_escape(name)
       << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"buckets\":{";
    bool bfirst = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      os << (bfirst ? "" : ",") << '"' << b << "\":" << h.buckets[b];
      bfirst = false;
    }
    os << "}}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void Snapshot::merge(const Snapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) {
    auto& slot = gauges[name];
    if (v > slot) slot = v;
  }
  for (const auto& [name, h] : other.histograms) {
    HistogramValue& dst = histograms[name];
    dst.count += h.count;
    dst.sum += h.sum;
    for (int b = 0; b < Histogram::kBuckets; ++b) dst.buckets[b] += h.buckets[b];
  }
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: hot paths hold bare references into the registry,
  // and instruments must outlive every static destructor that might still
  // bump one.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Snapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramValue v;
    v.count = h->count();
    v.sum = h->sum();
    for (int b = 0; b < Histogram::kBuckets; ++b) v.buckets[b] = h->bucket(b);
    snap.histograms[name] = v;
  }
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

}  // namespace asyncrv::obs
