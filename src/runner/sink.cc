#include "runner/sink.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>

#include "util/check.h"
#include "util/text.h"

namespace asyncrv::runner {

namespace {

bool is_numeric(ColumnType t) {
  return t == ColumnType::U64 || t == ColumnType::I64 || t == ColumnType::F64;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += '"';
  return out;
}

/// JSON literal for a value (numbers/bools bare, strings quoted+escaped).
std::string json_value(const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) {
    std::string out = "\"";
    out += json_escape(*s);
    out += '"';
    return out;
  }
  if (const auto* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  return render_value(v);
}

}  // namespace

std::string render_value(const Value& v) {
  struct Renderer {
    std::string operator()(std::uint64_t u) const { return std::to_string(u); }
    std::string operator()(std::int64_t i) const { return std::to_string(i); }
    std::string operator()(double d) const {
      // Shortest round-trip form: byte-stable for equal doubles, readable
      // for the log-scale columns the harnesses report.
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      double back = 0;
      for (int prec = 1; prec <= 16; ++prec) {
        char probe[32];
        std::snprintf(probe, sizeof probe, "%.*g", prec, d);
        if (std::sscanf(probe, "%lf", &back) == 1 && back == d) {
          return probe;
        }
      }
      return buf;
    }
    std::string operator()(bool b) const { return b ? "1" : "0"; }
    std::string operator()(const std::string& s) const { return s; }
  };
  return std::visit(Renderer{}, v);
}

// --- ConsoleSink ------------------------------------------------------------

ConsoleSink::ConsoleSink() : os_(&std::cout) {}
ConsoleSink::ConsoleSink(std::ostream& os) : os_(&os) {}

void ConsoleSink::begin(const Schema& schema) {
  schema_ = schema;
  rows_.clear();
}

void ConsoleSink::row(const Row& row) { rows_.push_back(row); }

void ConsoleSink::end() {
  std::vector<std::size_t> width(schema_.size());
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    width[c] = schema_[c].name.size();
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows_.size());
  for (const Row& r : rows_) {
    ASYNCRV_CHECK(r.size() == schema_.size());
    std::vector<std::string> line;
    line.reserve(r.size());
    for (std::size_t c = 0; c < r.size(); ++c) {
      line.push_back(render_value(r[c]));
      width[c] = std::max(width[c], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  const auto put = [&](const std::string& s, std::size_t c) {
    const std::string pad(width[c] - s.size(), ' ');
    const bool right = is_numeric(schema_[c].type);
    if (c) *os_ << "  ";
    *os_ << (right ? pad + s : s + pad);
  };
  for (std::size_t c = 0; c < schema_.size(); ++c) put(schema_[c].name, c);
  *os_ << '\n';
  for (const auto& line : cells) {
    for (std::size_t c = 0; c < line.size(); ++c) put(line[c], c);
    *os_ << '\n';
  }
  os_->flush();
}

// --- CsvSink ----------------------------------------------------------------

CsvSink::CsvSink(const std::string& path) : file_(path), os_(&file_) {
  if (!file_) throw std::runtime_error("cannot open CSV output: " + path);
}
CsvSink::CsvSink(std::ostream& os) : os_(&os) {}

void CsvSink::begin(const Schema& schema) {
  schema_ = schema;
  if (!first_table_) *os_ << '\n';
  first_table_ = false;
  for (std::size_t c = 0; c < schema.size(); ++c) {
    if (c) *os_ << ',';
    *os_ << csv_escape(schema[c].name);
  }
  *os_ << '\n';
}

void CsvSink::row(const Row& row) {
  ASYNCRV_CHECK(row.size() == schema_.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (c) *os_ << ',';
    *os_ << csv_escape(render_value(row[c]));
  }
  *os_ << '\n';
}

void CsvSink::end() { os_->flush(); }

std::string jsonl_line(const Schema& schema, const Row& row) {
  ASYNCRV_CHECK(row.size() == schema.size());
  std::string out = "{";
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (c) out += ',';
    out += '"';
    out += json_escape(schema[c].name);
    out += "\":";
    out += json_value(row[c]);
  }
  out += "}\n";
  return out;
}

// --- JsonlSink --------------------------------------------------------------

JsonlSink::JsonlSink(const std::string& path) : file_(path), os_(&file_) {
  if (!file_) throw std::runtime_error("cannot open JSONL output: " + path);
}
JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

void JsonlSink::begin(const Schema& schema) { schema_ = schema; }

void JsonlSink::row(const Row& row) { *os_ << jsonl_line(schema_, row); }

void JsonlSink::end() { os_->flush(); }

// --- CollectorSink ----------------------------------------------------------

void CollectorSink::begin(const Schema& schema) {
  tables_.push_back({schema, {}});
}
void CollectorSink::row(const Row& row) {
  ASYNCRV_CHECK(!tables_.empty());
  tables_.back().rows.push_back(row);
}
void CollectorSink::end() {}

const CollectorSink::Table& CollectorSink::last() const {
  ASYNCRV_CHECK(!tables_.empty());
  return tables_.back();
}

// --- helpers ----------------------------------------------------------------

void emit(ResultSink& sink, const Schema& schema, const std::vector<Row>& rows) {
  sink.begin(schema);
  for (const Row& r : rows) sink.row(r);
  sink.end();
}

const Value& cell(const Schema& schema, const Row& row,
                  const std::string& name) {
  for (std::size_t c = 0; c < schema.size(); ++c) {
    if (schema[c].name == name) {
      ASYNCRV_CHECK(c < row.size());
      return row[c];
    }
  }
  ASYNCRV_CHECK_MSG(false, "unknown column: " + name);
  return row.front();  // unreachable
}

std::pair<Schema, std::vector<Row>> select(
    const Schema& schema, const std::vector<Row>& rows,
    const std::vector<std::string>& columns) {
  std::vector<std::size_t> picked;
  Schema out_schema;
  for (const std::string& name : columns) {
    bool found = false;
    for (std::size_t c = 0; c < schema.size(); ++c) {
      if (schema[c].name == name) {
        picked.push_back(c);
        out_schema.push_back(schema[c]);
        found = true;
        break;
      }
    }
    ASYNCRV_CHECK_MSG(found, "unknown column: " + name);
  }
  std::vector<Row> out_rows;
  out_rows.reserve(rows.size());
  for (const Row& r : rows) {
    Row row;
    row.reserve(picked.size());
    for (const std::size_t c : picked) row.push_back(r[c]);
    out_rows.push_back(std::move(row));
  }
  return {std::move(out_schema), std::move(out_rows)};
}

Pivot pivot(const Schema& schema, const std::vector<Row>& rows,
            const std::string& row_col, const std::string& col_col,
            const std::function<std::string(const Row&)>& cell) {
  std::size_t ri = schema.size(), ci = schema.size();
  for (std::size_t c = 0; c < schema.size(); ++c) {
    if (schema[c].name == row_col) ri = c;
    if (schema[c].name == col_col) ci = c;
  }
  ASYNCRV_CHECK_MSG(ri < schema.size() && ci < schema.size(),
                    "pivot: unknown column");

  std::vector<std::string> row_keys, col_keys;
  std::map<std::string, std::size_t> row_idx, col_idx;
  for (const Row& r : rows) {
    const std::string rk = render_value(r[ri]);
    const std::string ck = render_value(r[ci]);
    if (row_idx.emplace(rk, row_keys.size()).second) row_keys.push_back(rk);
    if (col_idx.emplace(ck, col_keys.size()).second) col_keys.push_back(ck);
  }

  Pivot out;
  out.schema.push_back({row_col, ColumnType::Str});
  for (const std::string& ck : col_keys) {
    out.schema.push_back({ck, ColumnType::Str});
  }
  out.rows.assign(row_keys.size(), Row(out.schema.size(), std::string()));
  for (std::size_t i = 0; i < row_keys.size(); ++i) out.rows[i][0] = row_keys[i];
  for (const Row& r : rows) {
    const std::size_t i = row_idx[render_value(r[ri])];
    const std::size_t j = col_idx[render_value(r[ci])];
    out.rows[i][j + 1] = cell(r);
  }
  return out;
}

std::function<std::string(const Row&)> cost_or_status(
    const Schema& schema, const std::string& fallback) {
  // Capture by value: the formatter may outlive the caller's schema.
  return [schema, fallback](const Row& r) {
    const std::string status = render_value(cell(schema, r, "status"));
    if (status == "ok") return render_value(cell(schema, r, "cost"));
    return fallback.empty() ? status : fallback;
  };
}

void banner(const std::string& experiment, const std::string& artifact,
            const std::string& what) {
  std::cout << "==================================================================\n";
  std::cout << experiment << " — reproduces: " << artifact << "\n";
  std::cout << what << "\n";
  std::cout << "==================================================================\n";
}

}  // namespace asyncrv::runner
