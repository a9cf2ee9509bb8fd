// Shared low-level text encoding for the runner's serialized forms — the
// canonical spec layout (runner/spec.cc), the cache entry format
// (runner/cache.cc), the registry id grammar (runner/registry.cc) and the
// service wire protocol (service/protocol.cc) must all agree on escaping
// and tokenization, so there is exactly one implementation of each (the
// splitting and number parsing they share with obs/ live in util/text.h).
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/text.h"

namespace asyncrv::runner {

/// Percent-escapes control characters and the separator alphabet of the
/// line/comma/colon oriented formats ('%', ',', ':', DEL). Deterministic;
/// the escaped form contains no newlines and no bare separators.
std::string percent_escape(const std::string& s);

/// Exact inverse of percent_escape; nullopt on a malformed '%' sequence.
std::optional<std::string> percent_unescape(const std::string& s);

/// Line-oriented reader with strict key matching, shared by every consumer
/// of the `key=value` formats (cache entries, canonical specs, STATUS
/// responses). Every accessor returns nullopt on the slightest mismatch —
/// wrong key, non-numeric digits, EOF — so malformed input degrades to a
/// parse failure, never to a wrong value.
class LineReader {
 public:
  explicit LineReader(const std::string& bytes) : in_(bytes) {}

  /// Next line verbatim; fails permanently at EOF.
  std::optional<std::string> line() {
    std::string l;
    if (!std::getline(in_, l)) return std::nullopt;
    return l;
  }

  /// A "key=value" line with exactly this key; nullopt otherwise.
  std::optional<std::string> field(const std::string& key) {
    const auto l = line();
    if (!l) return std::nullopt;
    if (l->rfind(key + "=", 0) != 0) return std::nullopt;
    return l->substr(key.size() + 1);
  }

  std::optional<std::uint64_t> u64(const std::string& key) {
    const auto v = field(key);
    if (!v) return std::nullopt;
    return parse_u64(*v);
  }

  std::optional<bool> flag(const std::string& key) {
    const auto v = field(key);
    if (!v || (*v != "0" && *v != "1")) return std::nullopt;
    return *v == "1";
  }

  /// Strict decimal i64 with an optional leading '-'.
  static std::optional<std::int64_t> parse_i64(const std::string& s);

  /// Comma-separated u64 list; empty string = empty list.
  static std::optional<std::vector<std::uint64_t>> u64_list(
      const std::string& s);

 private:
  std::istringstream in_;
};

}  // namespace asyncrv::runner
