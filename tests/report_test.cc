// Tests for the structured report layer (src/obs/report.h): the JSON
// DOM parser, SortReport/BenchReport round trips through their
// validators, schema-violation rejection, an end-to-end report from a
// real in-memory sort, and the repo-root BENCH_*.json trajectory files
// (every committed bench baseline must carry the current schema).

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "benchlib/datamation.h"
#include "core/alphasort.h"
#include "obs/json.h"
#include "obs/report.h"

namespace alphasort {
namespace obs {
namespace {

// ------------------------------------------------------------------ //
// JSON DOM parser

TEST(JsonParserTest, ParsesScalarsAndContainers) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"a":1,"b":"x","c":[true,null,-2.5]})", &v).ok());
  ASSERT_TRUE(v.IsObject());
  ASSERT_NE(v.Find("a"), nullptr);
  EXPECT_DOUBLE_EQ(v.Find("a")->number_value, 1.0);
  EXPECT_EQ(v.Find("b")->string_value, "x");
  const JsonValue* c = v.Find("c");
  ASSERT_TRUE(c->IsArray());
  ASSERT_EQ(c->items.size(), 3u);
  EXPECT_TRUE(c->items[0].IsBool());
  EXPECT_TRUE(c->items[0].bool_value);
  EXPECT_TRUE(c->items[1].IsNull());
  EXPECT_DOUBLE_EQ(c->items[2].number_value, -2.5);
}

TEST(JsonParserTest, ParsesEscapes) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"k":"a\"b\\c\nd"})", &v).ok());
  EXPECT_EQ(v.Find("k")->string_value, "a\"b\\c\nd");
}

TEST(JsonParserTest, RejectsMalformed) {
  JsonValue v;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "01", "{\"a\":1}x",
        "'single'", "{\"a\" 1}", "[1 2]", ".5", "1.", "1e", "-.5",
        "1.e5"}) {
    EXPECT_FALSE(ParseJson(bad, &v).ok()) << "accepted: " << bad;
  }
}

TEST(JsonParserTest, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  JsonValue v;
  EXPECT_FALSE(ParseJson(deep, &v).ok());
}

TEST(JsonParserTest, FindOnNonObjectIsNull) {
  JsonValue v;
  ASSERT_TRUE(ParseJson("[1,2]", &v).ok());
  EXPECT_EQ(v.Find("a"), nullptr);
}

// ------------------------------------------------------------------ //
// SortReport schema

SortMetrics FabricatedMetrics() {
  SortMetrics m;
  m.startup_s = 0.01;
  m.read_phase_s = 0.40;
  m.last_run_s = 0.05;
  m.merge_phase_s = 0.52;
  m.close_s = 0.02;
  m.total_s = 1.00;
  m.bytes_in = 100000000;
  m.bytes_out = 100000000;
  m.num_records = 1000000;
  m.num_runs = 10;
  m.passes = 1;
  m.quicksort_stats.compares = 20000000;
  m.quicksort_stats.exchanges = 6000000;
  m.read_io.ops = 100;
  m.read_io.bytes = 100000000;
  m.read_io.p50_us = 120;
  m.read_io.p95_us = 300;
  m.read_io.p99_us = 450;
  m.read_io.max_us = 500;
  m.write_io = m.read_io;
  m.output_crc32c = 0xdeadbeef;
  m.registry_delta.counters["aio.submitted"] = 200;
  m.perf.attempted = true;
  PerfDelta d;
  d.available = true;
  d.samples = 10;
  d.cycles = 4e9;
  d.instructions = 6e9;
  d.cache_references = 5e7;
  d.cache_misses = 8e6;
  d.branch_misses = 2e6;
  m.perf.regions["quicksort"] = d;
  m.perf.regions["total"] = d;
  return m;
}

SortReport FabricatedReport() {
  SortReport r;
  r.tool = "report_test";
  r.config = "fabricated";
  r.metrics = FabricatedMetrics();
  return r;
}

TEST(SortReportTest, RoundTripValidates) {
  const SortReport report = FabricatedReport();
  const std::string json = report.ToJson();
  EXPECT_TRUE(ValidateSortReportJson(json).ok())
      << ValidateSortReportJson(json).ToString() << "\n"
      << json;
}

TEST(SortReportTest, CarriesVersionKindAndCounters) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(FabricatedReport().ToJson(), &v).ok());
  EXPECT_DOUBLE_EQ(v.Find("schema_version")->number_value, 1.0);
  EXPECT_EQ(v.Find("kind")->string_value, "alphasort.sort_report");
  EXPECT_EQ(v.Find("integrity")->Find("output_crc32c")->string_value,
            "deadbeef");
  const JsonValue* hw = v.Find("hardware_counters");
  ASSERT_NE(hw, nullptr);
  EXPECT_TRUE(hw->Find("available")->bool_value);
  const JsonValue* qs = hw->Find("regions")->Find("quicksort");
  ASSERT_NE(qs, nullptr);
  EXPECT_DOUBLE_EQ(qs->Find("ipc")->number_value, 1.5);
  const JsonValue* reg = v.Find("registry")->Find("counters");
  ASSERT_NE(reg, nullptr);
  EXPECT_DOUBLE_EQ(reg->Find("aio.submitted")->number_value, 200.0);
}

TEST(SortReportTest, RejectsMissingVersionAndWrongKind) {
  const std::string json = FabricatedReport().ToJson();
  std::string no_version = json;
  const size_t pos = no_version.find("\"schema_version\":1,");
  ASSERT_NE(pos, std::string::npos);
  no_version.erase(pos, strlen("\"schema_version\":1,"));
  EXPECT_FALSE(ValidateSortReportJson(no_version).ok());

  std::string wrong_kind = json;
  const size_t kpos = wrong_kind.find("alphasort.sort_report");
  ASSERT_NE(kpos, std::string::npos);
  wrong_kind.replace(kpos, strlen("alphasort.sort_report"),
                     "alphasort.other_report");
  EXPECT_FALSE(ValidateSortReportJson(wrong_kind).ok());

  EXPECT_FALSE(ValidateSortReportJson("{}").ok());
  EXPECT_FALSE(ValidateSortReportJson("not json").ok());
}

// Schema 1.3: the record block's huge-page bytes are a number when the
// kernel reported them and the string "unknown" otherwise — never 0 for
// unknown — and a minor-3 report without the key does not validate.
TEST(SortReportTest, HugePageBytesAreANumberOrUnknown) {
  SortReport report = FabricatedReport();
  report.metrics.record_block_huge_page_bytes = 198u << 20;
  JsonValue v;
  ASSERT_TRUE(ParseJson(report.ToJson(), &v).ok());
  EXPECT_DOUBLE_EQ(v.Find("schema_minor")->number_value, 3.0);
  const JsonValue* huge =
      v.Find("memory")->Find("record_block_huge_page_bytes");
  ASSERT_TRUE(huge->IsNumber());
  EXPECT_DOUBLE_EQ(huge->number_value, double(198u << 20));
  EXPECT_TRUE(ValidateSortReportJson(report.ToJson()).ok());

  report.metrics.record_block_huge_page_bytes.reset();
  const std::string json = report.ToJson();
  ASSERT_TRUE(ParseJson(json, &v).ok());
  huge = v.Find("memory")->Find("record_block_huge_page_bytes");
  ASSERT_TRUE(huge->IsString());
  EXPECT_EQ(huge->string_value, "unknown");
  EXPECT_TRUE(ValidateSortReportJson(json).ok());

  std::string dropped = json;
  const std::string key = "\"memory\":{\"record_block_huge_page_bytes\":"
                          "\"unknown\"},";
  const size_t pos = dropped.find(key);
  ASSERT_NE(pos, std::string::npos);
  dropped.erase(pos, key.size());
  EXPECT_FALSE(ValidateSortReportJson(dropped).ok());

  std::string mistyped = json;
  mistyped.replace(mistyped.find("\"unknown\"}"), strlen("\"unknown\""),
                   "\"none\"");
  EXPECT_FALSE(ValidateSortReportJson(mistyped).ok());
}

TEST(SortReportTest, RejectsPhaseSumDisagreeingWithTotal) {
  SortReport report = FabricatedReport();
  // A phase that went untimed: parts account for half the total.
  report.metrics.read_phase_s = 0.0;
  report.metrics.merge_phase_s = 0.0;
  const Status s = ValidateSortReportJson(report.ToJson());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("phase"), std::string::npos);
}

TEST(SortReportTest, TextRendersPhaseTableAndCounters) {
  const std::string text = FabricatedReport().ToText();
  for (const char* want :
       {"read + quicksort", "merge + gather + write", "total",
        "hardware counters", "quicksort"}) {
    EXPECT_NE(text.find(want), std::string::npos)
        << "missing \"" << want << "\" in:\n"
        << text;
  }
}

TEST(SortReportTest, UnavailableCountersValidateAndExplain) {
  SortReport report = FabricatedReport();
  report.metrics.perf.regions.clear();
  report.metrics.perf.attempted = true;
  PerfDelta d;
  d.available = false;
  d.samples = 4;
  d.unavailable_reason = "perf_event_open denied (EPERM/EACCES)";
  report.metrics.perf.regions["total"] = d;
  const std::string json = report.ToJson();
  EXPECT_TRUE(ValidateSortReportJson(json).ok())
      << ValidateSortReportJson(json).ToString();
  JsonValue v;
  ASSERT_TRUE(ParseJson(json, &v).ok());
  const JsonValue* hw = v.Find("hardware_counters");
  EXPECT_FALSE(hw->Find("available")->bool_value);
  EXPECT_NE(hw->Find("unavailable_reason")->string_value.find("EPERM"),
            std::string::npos);
}

// ------------------------------------------------------------------ //
// BenchReport schema

BenchReport FabricatedBench() {
  BenchReport b;
  b.name = "test";
  BenchEntry e;
  e.suite = "striping";
  e.config = "width=2";
  e.values = {{"seconds", 0.5}, {"mb_per_s", 200.0}};
  b.entries.push_back(e);
  return b;
}

TEST(BenchReportTest, RoundTripValidates) {
  const std::string json = FabricatedBench().ToJson();
  EXPECT_TRUE(ValidateBenchReportJson(json).ok())
      << ValidateBenchReportJson(json).ToString();
  EXPECT_NE(FabricatedBench().ToText().find("striping"),
            std::string::npos);
}

TEST(BenchReportTest, RejectsEmptyAndNonNumeric) {
  BenchReport empty;
  empty.name = "empty";
  EXPECT_FALSE(ValidateBenchReportJson(empty.ToJson()).ok());

  EXPECT_FALSE(
      ValidateBenchReportJson(
          R"({"schema_version":1,"kind":"alphasort.bench_report",)"
          R"("name":"x","suites":[{"suite":"s","config":"c",)"
          R"("metrics":{"v":"fast"}}]})")
          .ok());
  EXPECT_FALSE(
      ValidateBenchReportJson(
          R"({"schema_version":1,"kind":"alphasort.bench_report",)"
          R"("name":"x","suites":[{"suite":"s","config":"c",)"
          R"("metrics":{}}]})")
          .ok());
}

// ------------------------------------------------------------------ //
// End to end: a real sort's report

TEST(SortReportEndToEndTest, MemSortProducesValidReport) {
  std::unique_ptr<Env> env = NewMemEnv();
  InputSpec spec;
  spec.path = "report_in.dat";
  spec.num_records = 20000;
  ASSERT_TRUE(CreateInputFile(env.get(), spec).ok());

  SortOptions opts;
  opts.input_path = spec.path;
  opts.output_path = "report_out.dat";
  opts.num_workers = 2;
  SortMetrics metrics;
  ASSERT_TRUE(AlphaSort::Run(env.get(), opts, &metrics).ok());

  // The run bracketed the registry: its own async IO must be visible in
  // the delta regardless of what earlier tests did to the global
  // registry.
  EXPECT_GT(metrics.registry_delta.counters["aio.submitted"], 0u);
  // Perf collection was attempted (counters themselves are
  // host-dependent); the report must say one way or the other.
  EXPECT_TRUE(metrics.perf.attempted);
  EXPECT_FALSE(metrics.perf.regions.empty());
  EXPECT_EQ(metrics.perf.regions.count("sort.run"), 1u);

  SortReport report;
  report.tool = "report_test";
  report.config = "end_to_end";
  report.metrics = metrics;
  const std::string json = report.ToJson();
  EXPECT_TRUE(ValidateSortReportJson(json).ok())
      << ValidateSortReportJson(json).ToString() << "\n"
      << json;
}

TEST(SortReportEndToEndTest, BackToBackSortsReportOwnDeltas) {
  std::unique_ptr<Env> env = NewMemEnv();
  for (int run = 0; run < 2; ++run) {
    InputSpec spec;
    spec.path = "delta_in.dat";
    spec.num_records = 10000;
    ASSERT_TRUE(CreateInputFile(env.get(), spec).ok());
    SortOptions opts;
    opts.input_path = spec.path;
    opts.output_path = "delta_out.dat";
    SortMetrics metrics;
    ASSERT_TRUE(AlphaSort::Run(env.get(), opts, &metrics).ok());
    // Each run's delta covers only its own IO: roughly the input plus
    // the output in aio traffic, not the cumulative process history
    // (the second run would otherwise report ~2x the first).
    const uint64_t submitted =
        metrics.registry_delta.counters["aio.submitted"];
    EXPECT_GT(submitted, 0u) << "run " << run;
    EXPECT_LT(submitted, 100u) << "run " << run;
  }
}

// ------------------------------------------------------------------ //
// The committed BENCH_*.json trajectory

TEST(BenchTrajectoryTest, RepoRootBenchFilesCarryCurrentSchema) {
  namespace fs = std::filesystem;
  const fs::path root(ALPHASORT_SOURCE_DIR);
  size_t found = 0;
  for (const auto& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json") {
      continue;
    }
    ++found;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    const Status s = ValidateBenchReportJson(buf.str());
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
  }
  // scripts/bench.sh --smoke writes BENCH_smoke.json and the baseline is
  // committed; the trajectory must never be empty or schema-stale.
  EXPECT_GE(found, 1u);
}

}  // namespace
}  // namespace obs
}  // namespace alphasort
