#include "recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {
thread_local std::uint64_t tl_current = 0;
}  // namespace

Recorder::Scope::Scope(Recorder* rec, const char* name, std::uint64_t parent,
                       std::uint64_t request, std::uint32_t fanout)
    : rec_(rec) {
  if (!rec_) return;
  span_.id = rec_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent != 0 ? parent : tl_current;
  span_.name = name;
  span_.request = request;
  span_.fanout = fanout == 0 ? 1 : fanout;
  saved_current_ = tl_current;
  tl_current = span_.id;
  span_.start_ns = now_ns();
}

Recorder::Scope::~Scope() {
  if (!rec_) return;
  span_.end_ns = now_ns();
  tl_current = saved_current_;
  const std::lock_guard<std::mutex> lock(rec_->mu_);
  span_.thread = rec_->thread_number();
  rec_->spans_.push_back(span_);
}

std::uint32_t Recorder::thread_number() {
  const std::uint64_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] =
      threads_.emplace(tid, static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

void Recorder::record(const char* name, std::uint64_t parent,
                      std::uint64_t request, std::uint64_t start_ns,
                      std::uint64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.name = name;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  const std::lock_guard<std::mutex> lock(mu_);
  span.thread = thread_number();
  spans_.push_back(span);
}

std::vector<Span> Recorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Attribution attribute(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;

  const auto seconds = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  };
  // Covered time per span (its children's durations over its fan-out).
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto p = by_id.find(s.parent);
    if (p == by_id.end()) continue;
    covered[p->second] += seconds(s) / spans[p->second].fanout;
  }
  // Weight = product of 1/fanout along the ancestor chain (memoized).
  std::vector<double> weight(spans.size(), -1.0);
  const std::function<double(std::size_t)> weight_of = [&](std::size_t i) {
    if (weight[i] >= 0) return weight[i];
    double w = 1.0;
    if (spans[i].parent != 0) {
      const auto p = by_id.find(spans[i].parent);
      if (p != by_id.end()) {
        w = weight_of(p->second) / spans[p->second].fanout;
      }
    }
    return weight[i] = w;
  };

  Attribution a;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = seconds(s);
    if (s.parent == 0 || by_id.find(s.parent) == by_id.end()) a.wall_s += dur;
    const double self = dur - covered[i];
    // A nanosecond of slack: a child clocked by a pool thread may end a
    // clock tick after its parent.
    if (self < -1e-9) {
      ++a.negative_spans;
      a.min_self_s = std::min(a.min_self_s, self);
    }
    const double share = self * weight_of(i);
    const std::string name = s.name;
    if (name.find('.') == std::string::npos) {
      a.residual_s += share;
      continue;
    }
    a.layer_s[name] += share;
    a.busy_s[name] += dur;
    ++a.calls[name];
    if (dur > a.max_call_s[name]) a.max_call_s[name] = dur;
  }
  return a;
}

std::vector<std::string> attribution_errors(const Attribution& a) {
  std::vector<std::string> errors;
  if (a.negative_spans > 0) {
    errors.push_back(std::to_string(a.negative_spans) +
                     " spans have a negative self time (down to " +
                     std::to_string(a.min_self_s) + " s)");
  }
  for (const auto& [layer, s] : a.layer_s) {
    if (s < 0) errors.push_back("layer " + layer + " has a negative share");
  }
  if (a.wall_s <= 0) {
    errors.push_back("no traced wall time");
  } else if (a.residual_s > kMaxResidualFrac * a.wall_s) {
    errors.push_back("residual " + std::to_string(a.residual_s / a.wall_s) +
                     " of the traced wall time exceeds " +
                     std::to_string(kMaxResidualFrac));
  }
  return errors;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::string& meta_json) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"meta\":%s}\n", meta_json.c_str());
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"thread\":%u,\"fanout\":%u,\"request\":%llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.thread, s.fanout,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

bool read_spans(const std::string& path, std::vector<Span>* spans,
                std::deque<std::string>* names) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return false;
  char line[1024];
  bool ok = true;
  while (ok && std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "{\"meta\":", 8) == 0) continue;
    unsigned long long id, parent, start, end, request;
    unsigned thread, fanout;
    char name[256];
    ok = std::sscanf(line,
                     "{\"id\":%llu,\"parent\":%llu,\"name\":\"%255[^\"]\","
                     "\"start_ns\":%llu,\"end_ns\":%llu,\"thread\":%u,"
                     "\"fanout\":%u,\"request\":%llu}",
                     &id, &parent, name, &start, &end, &thread, &fanout,
                     &request) == 8 &&
         end >= start;
    if (!ok) break;
    names->emplace_back(name);
    spans->push_back({.id = id, .parent = parent, .name = names->back().c_str(),
                      .start_ns = start, .end_ns = end, .thread = thread,
                      .fanout = fanout == 0 ? 1 : fanout, .request = request});
  }
  std::fclose(f);
  return ok;
}

}  // namespace perfbench
