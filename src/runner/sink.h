// Pluggable result sinks — where experiment reports go.
//
// A report is a typed table: a Schema of named, typed columns and one Row
// of Values per scenario (or per aggregate group). The pipeline emits the
// sweep table to every configured sink in spec order, so what a sink
// receives is bit-identical across thread counts and across cached vs.
// executed runs. Sinks:
//
//  * ConsoleSink   — aligned human-readable table (buffers, renders at end);
//  * CsvSink       — RFC-4180-style CSV with a header row;
//  * JsonlSink     — one JSON object per row (the machine interchange and
//                    cache-verification format: byte-stable for equal rows);
//  * CollectorSink — in-memory schema+rows, for tests and programmatic use.
//
// To send one sweep to several sinks, list them all in
// PipelineOptions::sinks; the pipeline fans each emission out itself.
//
// A sink may receive several tables over its lifetime (begin/rows/end per
// table) — e.g. a sweep table followed by aggregate rollups. The free
// helpers at the bottom (emit, pivot, banner) are the conveniences that let
// experiment harnesses produce every table through this one interface
// instead of hand-formatting with iostream manipulators.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace asyncrv::runner {

enum class ColumnType { U64, I64, F64, Bool, Str };

struct Column {
  std::string name;
  ColumnType type = ColumnType::Str;
};
using Schema = std::vector<Column>;

/// One typed cell. The alternative must match the column's declared type
/// (Bool is carried as the `bool` alternative, strings as std::string).
using Value = std::variant<std::uint64_t, std::int64_t, double, bool,
                           std::string>;
using Row = std::vector<Value>;

/// Renders a value the way every sink prints it (doubles via a fixed
/// shortest-round-trip format, bools as 0/1) — one definition so console,
/// CSV and JSONL cells can never disagree.
std::string render_value(const Value& v);

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void begin(const Schema& schema) = 0;
  virtual void row(const Row& row) = 0;
  virtual void end() = 0;
};

/// Aligned plain-text table on an ostream (default std::cout). Buffers rows
/// and renders at end(): numeric columns right-aligned, text left-aligned.
class ConsoleSink final : public ResultSink {
 public:
  ConsoleSink();                        ///< writes to std::cout
  explicit ConsoleSink(std::ostream& os);

  void begin(const Schema& schema) override;
  void row(const Row& row) override;
  void end() override;

 private:
  std::ostream* os_;
  Schema schema_;
  std::vector<Row> rows_;
};

/// CSV with a header row; separators/quotes/newlines inside cells are
/// double-quote escaped. A second begin() on the same sink emits a blank
/// line and a fresh header (one logical table per section).
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(const std::string& path);  ///< throws if unwritable
  explicit CsvSink(std::ostream& os);

  void begin(const Schema& schema) override;
  void row(const Row& row) override;
  void end() override;

 private:
  std::ofstream file_;
  std::ostream* os_;
  Schema schema_;
  bool first_table_ = true;
};

/// JSON Lines: one object per row, keys from the schema, key order = column
/// order. Strings JSON-escaped; U64 values are emitted as decimal literals.
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(const std::string& path);  ///< throws if unwritable
  explicit JsonlSink(std::ostream& os);

  void begin(const Schema& schema) override;
  void row(const Row& row) override;
  void end() override;

 private:
  std::ofstream file_;
  std::ostream* os_;
  Schema schema_;
};

/// Captures everything in memory; `tables` holds one (schema, rows) entry
/// per begin()/end() pair.
class CollectorSink final : public ResultSink {
 public:
  struct Table {
    Schema schema;
    std::vector<Row> rows;
  };

  void begin(const Schema& schema) override;
  void row(const Row& row) override;
  void end() override;

  const std::vector<Table>& tables() const { return tables_; }
  /// The last completed table (CHECK: at least one end() has run).
  const Table& last() const;

 private:
  std::vector<Table> tables_;
};

/// The exact line (including the trailing '\n') JsonlSink writes for this
/// row — the single definition of the JSONL row rendering, also used by
/// the resident service (src/service/) to stream sweep rows over the wire,
/// so a socket client's bytes can be byte-compared against a JSONL file of
/// the same run.
std::string jsonl_line(const Schema& schema, const Row& row);

/// Sends one whole table through a sink: begin, every row, end.
void emit(ResultSink& sink, const Schema& schema, const std::vector<Row>& rows);

/// The cell of `row` under the column named `name` (CHECK: column exists).
const Value& cell(const Schema& schema, const Row& row,
                  const std::string& name);

/// Column-subset view of a table, preserving row order (CHECK: every named
/// column exists).
std::pair<Schema, std::vector<Row>> select(const Schema& schema,
                                           const std::vector<Row>& rows,
                                           const std::vector<std::string>& columns);

/// Cross-tabulation: one output row per distinct `row_col` value, one
/// column per distinct `col_col` value (both in first-appearance order);
/// the cell is `cell(r)` of the input row at that intersection ("" when the
/// combination never occurs). The generic matrix view the experiment
/// harnesses print (e.g. graph × adversary -> cost).
struct Pivot {
  Schema schema;
  std::vector<Row> rows;
};
Pivot pivot(const Schema& schema, const std::vector<Row>& rows,
            const std::string& row_col, const std::string& col_col,
            const std::function<std::string(const Row&)>& cell);

/// The standard pivot-cell formatter of the sweep harnesses: the "cost"
/// cell when the row's "status" is ok, otherwise the status label itself —
/// or `fallback`, when non-empty (e.g. "-").
std::function<std::string(const Row&)> cost_or_status(
    const Schema& schema, const std::string& fallback = "");

/// The experiment harness banner (previously bench/bench_common.h), printed
/// to std::cout.
void banner(const std::string& experiment, const std::string& artifact,
            const std::string& what);

}  // namespace asyncrv::runner
