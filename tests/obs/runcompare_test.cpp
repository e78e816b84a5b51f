// Run-diff tests (ISSUE 6, half 2): the JSON parser/flattener behind
// tools/report_diff, threshold semantics, and the CSV quoting round-trip
// that keeps label-carrying metric keys intact through export.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/runcompare.hpp"

namespace {

using namespace pd;

// ---------------------------------------------------------------------------
// JSON parse + flatten
// ---------------------------------------------------------------------------

TEST(JsonParse, HandlesExporterConstructs) {
  const obs::JsonValue v = obs::json_parse(
      R"({"a": 1.5, "b": [1, 2, [3]], "s": "x\"yA", "t": true,
          "n": null, "empty": {}, "nested": {"k": -2e3}})");
  ASSERT_EQ(v.kind, obs::JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
  EXPECT_EQ(v.find("b")->elements.size(), 3u);
  EXPECT_EQ(v.find("s")->string, "x\"yA");
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("n")->kind, obs::JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(v.find("nested")->find("k")->number, -2000.0);

  EXPECT_THROW(obs::json_parse("{\"a\": }"), CheckFailure);
  EXPECT_THROW(obs::json_parse("[1, 2"), CheckFailure);
  EXPECT_THROW(obs::json_parse("{} trailing"), CheckFailure);
}

TEST(JsonParse, ForEachElementStreamsOneArrayMember) {
  std::vector<double> seen;
  const auto collect = [&](const obs::JsonValue& e) {
    seen.push_back(e.number);
  };
  obs::json_for_each_element(
      R"({"meta": {"x": [9]}, "items": [1, 2, 3], "tail": "t"})", "items",
      collect);
  EXPECT_EQ(seen, (std::vector<double>{1, 2, 3}));
  seen.clear();
  obs::json_for_each_element(R"({"items": []})", "items", collect);
  EXPECT_TRUE(seen.empty());

  // Same strictness as json_parse, plus the shape requirements.
  EXPECT_THROW(obs::json_for_each_element(R"({"items": [1,]})", "items",
                                          collect),
               CheckFailure);
  EXPECT_THROW(obs::json_for_each_element(R"({"items": [1],})", "items",
                                          collect),
               CheckFailure);
  EXPECT_THROW(obs::json_for_each_element(R"({"items": [1]} x)", "items",
                                          collect),
               CheckFailure);
  EXPECT_THROW(obs::json_for_each_element("[1]", "items", collect),
               CheckFailure);
  EXPECT_THROW(obs::json_for_each_element(R"({"other": [1]})", "items",
                                          collect),
               CheckFailure);
  EXPECT_THROW(obs::json_for_each_element(R"({"items": 1})", "items",
                                          collect),
               CheckFailure);
}

TEST(JsonFlatten, DottedPathsAndArrayIndices) {
  const auto flat = obs::flatten_json(
      obs::json_parse(R"({"gate": {"p50": 1.0}, "rows": [[5, 6]], "e": {}})"));
  ASSERT_EQ(flat.count("gate.p50"), 1u);
  EXPECT_TRUE(flat.at("gate.p50").is_number);
  EXPECT_DOUBLE_EQ(flat.at("rows[0][1]").number, 6.0);
  // Empty containers survive as structural leaves so a vanished object is
  // a diff finding, not silence.
  EXPECT_EQ(flat.at("e").text, "{}");
}

// ---------------------------------------------------------------------------
// diff_runs semantics
// ---------------------------------------------------------------------------

TEST(DiffRuns, IdenticalDocumentsAreClean) {
  const auto doc = obs::json_parse(R"({"a": 1, "b": {"c": [2, 3]}})");
  const auto rep = obs::diff_runs(doc, doc, {});
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.compared, 3u);
}

TEST(DiffRuns, PerturbationFailsUnderZeroTolerance) {
  const auto a = obs::json_parse(R"({"gate": {"p50": 1.00, "eps": 1000}})");
  const auto b = obs::json_parse(R"({"gate": {"p50": 1.02, "eps": 1000}})");
  const auto rep = obs::diff_runs(a, b, {});
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].key, "gate.p50");
  EXPECT_NEAR(rep.findings[0].delta_abs, 0.02, 1e-9);
  EXPECT_FALSE(rep.format().empty());
}

TEST(DiffRuns, AbsAndRelThresholdsGate) {
  const auto a = obs::json_parse(R"({"x": 100.0, "y": 0.001})");
  const auto b = obs::json_parse(R"({"x": 104.0, "y": 0.002})");
  obs::DiffOptions opt;
  opt.rel_tol = 0.05;  // x passes (4%), y fails (50%)
  auto rep = obs::diff_runs(a, b, opt);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].key, "y");

  opt.abs_tol = 0.01;  // |0.001| delta now inside the absolute band
  EXPECT_TRUE(obs::diff_runs(a, b, opt).clean());
}

TEST(DiffRuns, MissingAndTypeChangedKeysAreStructural) {
  const auto a = obs::json_parse(R"({"a": 1, "gone": 2, "t": "s"})");
  const auto b = obs::json_parse(R"({"a": 1, "new": 3, "t": 7})");
  const auto rep = obs::diff_runs(a, b, {});
  ASSERT_EQ(rep.findings.size(), 3u);
  for (const auto& f : rep.findings) {
    EXPECT_TRUE(f.key == "gone" || f.key == "new" || f.key == "t") << f.key;
  }
}

TEST(DiffRuns, OnlyAndIgnoreFilters) {
  const auto a = obs::json_parse(R"({"gate": {"p50": 1}, "noise": 5})");
  const auto b = obs::json_parse(R"({"gate": {"p50": 2}, "noise": 9})");
  obs::DiffOptions only;
  only.only = {"noise"};
  auto rep = obs::diff_runs(a, b, only);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].key, "noise");

  obs::DiffOptions ignore;
  ignore.ignore = {"noise", "gate."};
  EXPECT_TRUE(obs::diff_runs(a, b, ignore).clean());
}

// ---------------------------------------------------------------------------
// CSV quoting round-trip (satellite 2)
// ---------------------------------------------------------------------------

TEST(CsvQuoting, FieldRoundTripsCommasAndQuotes) {
  const std::vector<std::string> nasty = {
      "plain", "a,b", "say \"hi\"", "both,\"x\",end", "{a=1,b=2}"};
  std::string line;
  for (std::size_t i = 0; i < nasty.size(); ++i) {
    line += (i > 0 ? "," : "") + obs::csv_field(nasty[i]);
  }
  EXPECT_EQ(obs::parse_csv_line(line), nasty);
  // Unquoted simple fields stay unquoted (no gratuitous churn).
  EXPECT_EQ(obs::csv_field("plain"), "plain");
}

TEST(CsvQuoting, RegistryExportKeepsLabelCommasInOneColumn) {
  obs::Registry reg;
  reg.counter("http.requests", "path=/a,method=GET").inc(3);
  reg.gauge("depth").set(1.5);
  const std::string csv = reg.to_csv();

  std::vector<std::vector<std::string>> rows;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const auto eol = csv.find('\n', pos);
    rows.push_back(obs::parse_csv_line(csv.substr(pos, eol - pos)));
    pos = eol + 1;
  }
  ASSERT_EQ(rows.size(), 3u);  // header + 2 instruments
  const std::size_t cols = rows[0].size();
  for (const auto& row : rows) {
    ASSERT_EQ(row.size(), cols);  // a label comma must not shift columns
  }
  EXPECT_EQ(rows[1][0], "depth");
  EXPECT_EQ(rows[2][0], "http.requests{path=/a,method=GET}");
  EXPECT_EQ(rows[2][1], "counter");
}

}  // namespace
