// Shared low-level text encoding for the runner's serialized forms — the
// canonical spec layout (runner/spec.cc), the cache entry format
// (runner/cache.cc), the registry id grammar (runner/registry.cc) and the
// service wire protocol (service/protocol.cc) must all agree on escaping
// and tokenization, so there is exactly one implementation of each (the
// splitting and number parsing they share with obs/ live in util/text.h).
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/text.h"

namespace asyncrv::runner {

/// Percent-escapes control characters and the separator alphabet of the
/// line/comma/colon oriented formats ('%', ',', ':', DEL). Deterministic;
/// the escaped form contains no newlines and no bare separators.
std::string percent_escape(const std::string& s);

/// Appends percent_escape(s) to `out` — the form the canonical-spec and
/// cache-record writers use to build a whole text in one buffer.
void append_percent_escaped(std::string& out, std::string_view s);

/// Appends the decimal digits of `v` (a leading '-' when negative) — the
/// bytes `std::ostream << v` writes for an integer.
template <typename Int>
void append_decimal(std::string& out, Int v) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), v).ptr);
}

/// Line writers of the `key=value` formats, the inverses of LineReader's
/// accessors: "<key>=<v>\n" with `v` in decimal, percent-escaped, or as a
/// comma-separated decimal list.
inline void append_u64_field(std::string& out, std::string_view key,
                             std::uint64_t v) {
  out += key;
  out += '=';
  append_decimal(out, v);
  out += '\n';
}

inline void append_escaped_field(std::string& out, std::string_view key,
                                 std::string_view v) {
  out += key;
  out += '=';
  append_percent_escaped(out, v);
  out += '\n';
}

template <typename T>
void append_list_field(std::string& out, std::string_view key,
                       const std::vector<T>& v) {
  out += key;
  out += '=';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    append_decimal(out, static_cast<std::uint64_t>(v[i]));
  }
  out += '\n';
}

/// Exact inverse of percent_escape; nullopt on a malformed '%' sequence.
std::optional<std::string> percent_unescape(const std::string& s);

/// Line-oriented reader with strict key matching, shared by every consumer
/// of the `key=value` formats (cache entries, canonical specs, STATUS
/// responses). Every accessor returns nullopt on the slightest mismatch —
/// wrong key, non-numeric digits, EOF — so malformed input degrades to a
/// parse failure, never to a wrong value. A line ends at '\n' or at the
/// end of the input; every other byte ('\r' included) is kept verbatim.
/// Each accessor consumes one line, matched or not.
class LineReader {
 public:
  /// Reads `bytes` in place: they must outlive the reader.
  explicit LineReader(std::string_view bytes) : bytes_(bytes) {}

  /// Next line verbatim; fails permanently at EOF.
  std::optional<std::string> line() {
    const auto l = next_line();
    if (!l) return std::nullopt;
    return std::string(*l);
  }

  /// A "key=value" line with exactly this key; nullopt otherwise.
  std::optional<std::string> field(std::string_view key) {
    const auto v = value(key);
    if (!v) return std::nullopt;
    return std::string(*v);
  }

  /// A field holding a strict decimal u64 (parse_u64's grammar).
  std::optional<std::uint64_t> u64(std::string_view key);

  /// A field holding exactly "0" or "1".
  std::optional<bool> flag(std::string_view key) {
    const auto v = value(key);
    if (!v || (*v != "0" && *v != "1")) return std::nullopt;
    return *v == "1";
  }

  /// Consumes `bytes` — newlines included — if the input continues with
  /// exactly them; false (nothing consumed) otherwise.
  bool skip(std::string_view bytes) {
    if (pos_ > bytes_.size() || bytes_.substr(pos_, bytes.size()) != bytes) {
      return false;
    }
    pos_ += bytes.size();
    return true;
  }

  /// Strict decimal i64 with an optional leading '-'.
  static std::optional<std::int64_t> parse_i64(const std::string& s);

  /// Comma-separated u64 list; empty string = empty list.
  static std::optional<std::vector<std::uint64_t>> u64_list(
      const std::string& s);

 private:
  std::optional<std::string_view> next_line() {
    if (pos_ >= bytes_.size()) return std::nullopt;
    const std::size_t nl = bytes_.find('\n', pos_);
    const std::size_t end = nl == std::string_view::npos ? bytes_.size() : nl;
    const std::string_view l = bytes_.substr(pos_, end - pos_);
    pos_ = end + 1;  // past the '\n', or past the end: EOF from now on
    return l;
  }

  /// The value of the next line if it is "<key>=<value>".
  std::optional<std::string_view> value(std::string_view key) {
    const auto l = next_line();
    if (!l || l->size() <= key.size() || l->compare(0, key.size(), key) != 0 ||
        (*l)[key.size()] != '=') {
      return std::nullopt;
    }
    return l->substr(key.size() + 1);
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace asyncrv::runner
