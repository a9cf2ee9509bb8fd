#include "runner/encoding.h"

#include <limits>

namespace asyncrv::runner {

std::string percent_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_percent_escaped(out, s);
  return out;
}

void append_percent_escaped(std::string& out, std::string_view s) {
  static const char hex[] = "0123456789abcdef";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || c == '%' || c == ',' || c == ':' || c == 0x7f) {
      out.push_back('%');
      out.push_back(hex[u >> 4]);
      out.push_back(hex[u & 0xf]);
    } else {
      out.push_back(c);
    }
  }
}

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

std::optional<std::string> percent_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out.push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) return std::nullopt;
    const int hi = hex_digit(s[i + 1]), lo = hex_digit(s[i + 2]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

std::optional<std::uint64_t> LineReader::u64(std::string_view key) {
  // std::from_chars over the whole value has parse_u64's grammar: digits
  // only (no sign, no space), leading zeros allowed, overflow rejected.
  const auto v = value(key);
  if (!v) return std::nullopt;
  std::uint64_t out = 0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

std::optional<std::int64_t> LineReader::parse_i64(const std::string& s) {
  const bool neg = !s.empty() && s[0] == '-';
  const auto mag = parse_u64(neg ? s.substr(1) : s);
  if (!mag || *mag > static_cast<std::uint64_t>(
                         std::numeric_limits<std::int64_t>::max())) {
    return std::nullopt;
  }
  const auto v = static_cast<std::int64_t>(*mag);
  return neg ? -v : v;
}

std::optional<std::vector<std::uint64_t>> LineReader::u64_list(
    const std::string& s) {
  std::vector<std::uint64_t> out;
  if (s.empty()) return out;
  for (const std::string& part : split(s, ',')) {
    const auto v = parse_u64(part);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

}  // namespace asyncrv::runner
