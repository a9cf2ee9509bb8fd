// Small text helpers shared by every serialized form in the repo: the
// canonical spec and cache entry formats (runner/), the metrics snapshot
// text (obs/), the sinks' JSON and the service wire protocol. One copy of
// each, below every library in the link graph.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace asyncrv {

/// Splits on every occurrence of `sep` (no trimming; "a::b" -> {"a","","b"},
/// "" -> {""}).
std::vector<std::string> split(const std::string& s, char sep);

/// Strict decimal u64: accepts exactly the all-digit strings whose value
/// fits a u64 (no sign, no space; leading zeros allowed — canonical-form
/// parsers that must reject them compare the re-rendered value against the
/// input). Never throws.
std::optional<std::uint64_t> parse_u64(const std::string& s);

/// JSON string-body escaping (quotes, backslash, control characters).
std::string json_escape(const std::string& s);

}  // namespace asyncrv
