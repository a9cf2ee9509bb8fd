// Result sinks: typed tables, rendering, escaping, composition and the
// report's group-by aggregation.
#include "runner/sink.h"

#include <gtest/gtest.h>

#include <sstream>

#include "runner/pipeline.h"

namespace asyncrv {
namespace {

using runner::ColumnType;
using runner::Row;
using runner::Schema;
using runner::Value;

const Schema kSchema = {{"name", ColumnType::Str},
                        {"cost", ColumnType::U64},
                        {"ratio", ColumnType::F64},
                        {"ok", ColumnType::Bool}};

std::vector<Row> sample_rows() {
  return {
      {std::string("alpha"), std::uint64_t{3}, 0.5, true},
      {std::string("a,b \"c\"\nd"), std::uint64_t{123456}, 2.0, false},
  };
}

TEST(RenderValue, CoversEveryAlternative) {
  EXPECT_EQ(runner::render_value(Value{std::uint64_t{42}}), "42");
  EXPECT_EQ(runner::render_value(Value{std::int64_t{-7}}), "-7");
  EXPECT_EQ(runner::render_value(Value{true}), "1");
  EXPECT_EQ(runner::render_value(Value{false}), "0");
  EXPECT_EQ(runner::render_value(Value{std::string("x")}), "x");
  // Doubles render in shortest round-trip form, deterministically.
  EXPECT_EQ(runner::render_value(Value{0.5}), "0.5");
  EXPECT_EQ(runner::render_value(Value{2.0}), "2");
  EXPECT_EQ(runner::render_value(Value{1.0 / 3.0}),
            runner::render_value(Value{1.0 / 3.0}));
}

TEST(ConsoleSink, AlignsColumns) {
  std::ostringstream os;
  runner::ConsoleSink sink(os);
  runner::emit(sink, kSchema, sample_rows());
  const std::string out = os.str();
  // Header first, numeric columns right-aligned (cost under its header).
  EXPECT_EQ(out.find("name"), 0u);
  EXPECT_NE(out.find("123456"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
}

TEST(CsvSink, EscapesSeparatorsQuotesNewlines) {
  std::ostringstream os;
  runner::CsvSink sink(os);
  runner::emit(sink, kSchema, sample_rows());
  EXPECT_EQ(os.str(),
            "name,cost,ratio,ok\n"
            "alpha,3,0.5,1\n"
            "\"a,b \"\"c\"\"\nd\",123456,2,0\n");
}

TEST(JsonlSink, EmitsOneValidObjectPerRow) {
  std::ostringstream os;
  runner::JsonlSink sink(os);
  runner::emit(sink, kSchema, sample_rows());
  EXPECT_EQ(os.str(),
            "{\"name\":\"alpha\",\"cost\":3,\"ratio\":0.5,\"ok\":true}\n"
            "{\"name\":\"a,b \\\"c\\\"\\nd\",\"cost\":123456,\"ratio\":2,"
            "\"ok\":false}\n");
}

TEST(CollectorSink, KeepsTablesSeparate) {
  runner::CollectorSink sink;
  runner::emit(sink, kSchema, sample_rows());
  runner::emit(sink, {{"only", ColumnType::U64}}, {{std::uint64_t{1}}});
  ASSERT_EQ(sink.tables().size(), 2u);
  EXPECT_EQ(sink.tables()[0].rows.size(), 2u);
  EXPECT_EQ(sink.last().schema[0].name, "only");
}

TEST(SelectAndCell, PickNamedColumns) {
  const auto rows = sample_rows();
  EXPECT_EQ(runner::render_value(runner::cell(kSchema, rows[0], "cost")), "3");
  const auto [schema, picked] =
      runner::select(kSchema, rows, {"ok", "name"});
  ASSERT_EQ(schema.size(), 2u);
  EXPECT_EQ(schema[0].name, "ok");
  EXPECT_EQ(runner::render_value(picked[0][1]), "alpha");
  EXPECT_THROW(runner::cell(kSchema, rows[0], "missing"), std::logic_error);
}

TEST(Pivot, CrossTabulatesInFirstAppearanceOrder) {
  const Schema schema = {{"g", ColumnType::Str},
                         {"adv", ColumnType::Str},
                         {"cost", ColumnType::U64}};
  const std::vector<Row> rows = {
      {std::string("ring"), std::string("fair"), std::uint64_t{1}},
      {std::string("ring"), std::string("skew"), std::uint64_t{2}},
      {std::string("path"), std::string("fair"), std::uint64_t{3}},
  };
  const runner::Pivot p = runner::pivot(
      schema, rows, "g", "adv", [&](const Row& r) {
        return runner::render_value(runner::cell(schema, r, "cost"));
      });
  ASSERT_EQ(p.schema.size(), 3u);  // g, fair, skew
  EXPECT_EQ(p.schema[1].name, "fair");
  EXPECT_EQ(p.schema[2].name, "skew");
  ASSERT_EQ(p.rows.size(), 2u);
  EXPECT_EQ(runner::render_value(p.rows[0][2]), "2");  // ring × skew
  EXPECT_EQ(runner::render_value(p.rows[1][2]), "");   // path × skew: absent
}

TEST(GroupBy, RollsUpByColumnExcludingErroredCosts) {
  // Build a report through the pipeline with one good and one bad spec per
  // graph; per-graph groups must exclude the errored cost.
  runner::RendezvousSpec good;
  good.graph = "ring:4";
  good.labels = {5, 12};
  good.budget = 1'000'000;
  runner::RendezvousSpec bad = good;
  bad.labels = {5};  // contained error at run time
  const runner::PipelineReport report = runner::ExperimentPipeline().run(
      {{.name = "", .scenario = good}, {.name = "", .scenario = bad}});
  const auto groups = report.group_by("graph");
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].key, "ring:4");
  EXPECT_EQ(groups[0].scenarios, 2u);
  EXPECT_EQ(groups[0].succeeded, 1u);
  EXPECT_EQ(groups[0].errored, 1u);
  EXPECT_EQ(groups[0].total_cost, report.totals.total_cost);

  const auto [schema, rows] = runner::group_table("graph", groups);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(runner::render_value(runner::cell(schema, rows[0], "errors")), "1");
}

}  // namespace
}  // namespace asyncrv
