// Tests for the metrics exposition layer (src/obs/exposition.h):
// Prometheus-text rendering, the format validator, name sanitization,
// and the flight recorder's JSONL capture.

#include "obs/exposition.h"

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace alphasort {
namespace obs {
namespace {

std::string ReadTextFile(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[1 << 14];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

RegistrySnapshot MakeSnapshot() {
  RegistrySnapshot snap;
  snap.counters["io.reads"] = 42;
  snap.counters["svc.jobs_submitted"] = 0;  // zero values are still series
  snap.gauges["svc.jobs_running"] = 3;
  snap.gauges["svc.job.1.permille"] = 500;
  HistogramSnapshot h;
  h.count = 2;
  h.sum = 10;
  h.max = 8;
  h.buckets[3] = 2;  // two samples in [4, 8)
  snap.histograms["io.read_us"] = h;
  return snap;
}

std::vector<JobProgress> MakeJobs() {
  std::vector<JobProgress> jobs(2);
  jobs[0].job_id = 1;
  jobs[0].phase = SortPhase::kMerge;
  jobs[0].fraction = 0.5;
  jobs[0].bytes_per_s = 1e6;
  jobs[0].eta_s = 2.5;
  jobs[1].job_id = 2;
  jobs[1].phase = SortPhase::kRead;
  jobs[1].fraction = 0.125;
  return jobs;
}

TEST(SanitizeMetricNameTest, DotsBecomeUnderscoresWithPrefix) {
  EXPECT_EQ(SanitizeMetricName("svc.jobs_running"),
            "alphasort_svc_jobs_running");
  EXPECT_EQ(SanitizeMetricName("svc.job.1.permille"),
            "alphasort_svc_job_1_permille");
}

TEST(ExpositionRenderTest, RoundTripsThroughValidator) {
  const std::string text = RenderExposition(MakeSnapshot(), MakeJobs());
  EXPECT_TRUE(ValidateExpositionText(text).ok()) << text;
  // Counters, gauges, summaries, and per-job series are all present.
  EXPECT_NE(text.find("# TYPE alphasort_io_reads counter"),
            std::string::npos);
  EXPECT_NE(text.find("alphasort_svc_jobs_running 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE alphasort_io_read_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("alphasort_io_read_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("alphasort_job_fraction{job=\"1\"} 0.5"),
            std::string::npos);
  EXPECT_NE(text.find("alphasort_job_info{job=\"2\",phase=\"read\"} 1"),
            std::string::npos);
  // Zero-valued series are emitted: presence is meaningful to scrapers.
  EXPECT_NE(text.find("alphasort_svc_jobs_submitted 0"), std::string::npos);
}

TEST(ExpositionRenderTest, NoJobsMeansNoJobFamilies) {
  const std::string text =
      RenderExposition(MakeSnapshot(), std::vector<JobProgress>());
  EXPECT_TRUE(ValidateExpositionText(text).ok());
  EXPECT_EQ(text.find("alphasort_job_"), std::string::npos);
}

TEST(ExpositionValidateTest, RejectsUndeclaredSample) {
  EXPECT_FALSE(ValidateExpositionText("orphan_metric 1\n").ok());
}

TEST(ExpositionValidateTest, RejectsNonNumericValue) {
  EXPECT_FALSE(
      ValidateExpositionText(
          "# TYPE m gauge\nm not_a_number\n")
          .ok());
}

TEST(ExpositionValidateTest, RejectsDuplicateTypeDeclaration) {
  EXPECT_FALSE(
      ValidateExpositionText(
          "# TYPE m gauge\nm 1\n# TYPE m counter\nm 2\n")
          .ok());
}

TEST(ExpositionValidateTest, RejectsUnknownMetricType) {
  EXPECT_FALSE(ValidateExpositionText("# TYPE m flavor\nm 1\n").ok());
}

TEST(ExpositionValidateTest, RejectsEmptyExposition) {
  EXPECT_FALSE(ValidateExpositionText("").ok());
  EXPECT_FALSE(ValidateExpositionText("# TYPE m gauge\n").ok());
}

TEST(ExpositionValidateTest, AcceptsSummarySuffixesAndSpecialValues) {
  const std::string text =
      "# TYPE s summary\n"
      "s{quantile=\"0.5\"} 1.5\n"
      "s_sum 10\n"
      "s_count 4\n"
      "# TYPE g gauge\n"
      "g NaN\n";
  EXPECT_TRUE(ValidateExpositionText(text).ok());
}

TEST(FlightRecordTest, RenderRoundTripsThroughValidator) {
  // RenderFlightRecord reads the global registries; with or without live
  // jobs it must yield one parseable record per line.
  const std::string line = RenderFlightRecord();
  EXPECT_TRUE(ValidateFlightRecorderJsonl(line + "\n").ok()) << line;
}

TEST(FlightRecordTest, CapturesLiveJobs) {
  JobProgressTracker t;
  t.Start(55123);
  t.SetPlan(1000, 1);
  t.AddRead(500);
  t.SetPhase(SortPhase::kRead);
  ScopedProgressRegistration reg(&t);
  const std::string line = RenderFlightRecord();
  EXPECT_NE(line.find("\"id\":55123"), std::string::npos) << line;
  EXPECT_NE(line.find("\"phase\":\"read\""), std::string::npos) << line;
}

TEST(FlightRecordTest, ValidatorRejectsBrokenCaptures) {
  EXPECT_FALSE(ValidateFlightRecorderJsonl("").ok());
  EXPECT_FALSE(ValidateFlightRecorderJsonl("garbage\n").ok());
  EXPECT_FALSE(ValidateFlightRecorderJsonl("{\"jobs\":[]}\n").ok());
  EXPECT_FALSE(ValidateFlightRecorderJsonl("{\"ts_ms\":1}\n").ok());
}

TEST(FlightRecorderTest, RecordOnceWritesValidJsonl) {
  const std::string path =
      ::testing::TempDir() + "/alphasort_flight_test.jsonl";
  std::remove(path.c_str());
  FlightRecorder::Options opts;
  opts.path = path;
  {
    FlightRecorder recorder(opts);
    EXPECT_TRUE(recorder.RecordOnce().ok());
    EXPECT_TRUE(recorder.RecordOnce().ok());
  }
  const std::string content = ReadTextFile(path);
  EXPECT_TRUE(ValidateFlightRecorderJsonl(content).ok()) << content;
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, RotationBoundsTheCapture) {
  const std::string path =
      ::testing::TempDir() + "/alphasort_flight_rotate.jsonl";
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());
  FlightRecorder::Options opts;
  opts.path = path;
  opts.max_bytes = 512;
  {
    FlightRecorder recorder(opts);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(recorder.RecordOnce().ok());
    }
  }
  const std::string current = ReadTextFile(path);
  const std::string previous = ReadTextFile(rotated);
  EXPECT_FALSE(previous.empty());  // at least one rotation happened
  // One record may straddle the limit, so allow a line of slack per file.
  const size_t slack = 512;
  EXPECT_LE(current.size(), opts.max_bytes + slack);
  EXPECT_LE(previous.size(), opts.max_bytes + slack);
  EXPECT_TRUE(ValidateFlightRecorderJsonl(current).ok());
  EXPECT_TRUE(ValidateFlightRecorderJsonl(previous).ok());
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace alphasort
