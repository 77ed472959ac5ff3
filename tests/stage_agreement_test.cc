// Every observability channel agrees on the pipeline stage list. For each
// row of VC_FORALL_PIPELINE_STAGES, one run with trace, events and metrics
// collection on must show exactly one span of that name, balanced
// stage_start/stage_end events, one more pipeline.<name>_seconds sample whose
// value is the report's seconds for the stage, and the same name as a JSON
// metrics.stages key, a ledger stages key and a --metrics table row. Covered
// for the CLI's build-then-Run shape, RunOnSources and two commits through
// the incremental engine.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"
#include "src/core/report_formats.h"
#include "src/core/run_diff.h"
#include "src/support/events.h"
#include "src/support/json_reader.h"
#include "src/support/metrics.h"
#include "src/support/pipeline_stages.h"
#include "src/support/run_ledger.h"
#include "src/support/string_util.h"
#include "src/support/trace.h"

namespace vc {
namespace {

using Sources = std::vector<std::pair<std::string, std::string>>;

const Sources kSources = {
    {"a.c",
     "int get_status(int entry) {\n"
     "  return entry + 1;\n"
     "}\n"
     "int handle(int entry, int mode) {\n"
     "  int ret = get_status(entry);\n"
     "  ret = mode * 2;\n"
     "  return ret;\n"
     "}\n"},
    {"b.c",
     "int add(int a, int b) {\n"
     "  int s = a + b;\n"
     "  return s;\n"
     "}\n"},
};

Histogram& StageHistogram(PipelineStage stage) {
  return MetricsRegistry::Global().GetHistogram(std::string("pipeline.") +
                                                PipelineStageName(stage) + "_seconds");
}

struct HistogramMark {
  uint64_t count = 0;
  double sum = 0.0;
};

PerStage<HistogramMark> MarkHistograms() {
  PerStage<HistogramMark> marks;
  for (PipelineStage s : kPipelineStages) {
    marks[s] = {StageHistogram(s).count(), StageHistogram(s).sum_seconds()};
  }
  return marks;
}

// The stage column of every data row of a TableWriter text table.
std::vector<std::string> TableStageNames(const std::string& table) {
  std::vector<std::string> names;
  std::istringstream in(table);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| ", 0) != 0) {
      continue;
    }
    names.emplace_back(Trim(std::string_view(line).substr(2, line.find(" |") - 2)));
  }
  return names;
}

class StageAgreementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vc_stage_agreement_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    options_.collect_metrics = true;
    options_.jobs = 2;
  }
  void TearDown() override {
    TraceCollector::Global().Disable();
    TraceCollector::Global().Clear();
    RunEventLog::Global().Close();
    MetricsRegistry::Global().Disable();
    MemoryTracker::Global().Disable();
    std::filesystem::remove_all(dir_);
  }

  // Opens every channel for one run and marks the histograms.
  void BeginRun() {
    TraceCollector::Global().Enable();
    ASSERT_TRUE(RunEventLog::Global().Open(EventsPath()));
    MetricsRegistry::Global().Enable();
    marks_ = MarkHistograms();
  }

  // Closes the channels and checks every channel against `report`.
  void ExpectAgreement(const AnalysisReport& report, const char* path) {
    SCOPED_TRACE(path);
    TraceCollector::Global().Disable();
    RunEventLog::Global().Close();

    std::map<std::string, int> spans;
    for (const TraceEvent& event : TraceCollector::Global().SnapshotEvents()) {
      ++spans[event.name];
    }
    std::map<std::string, int> starts;
    std::map<std::string, int> ends;
    std::ifstream events(EventsPath());
    std::string line;
    while (std::getline(events, line)) {
      std::optional<JsonValue> event = ParseJson(line);
      ASSERT_TRUE(event.has_value()) << line;
      const std::string type = event->GetString("event");
      if (type == "stage_start") {
        ++starts[event->GetString("stage")];
      } else if (type == "stage_end") {
        ++ends[event->GetString("stage")];
      }
    }
    std::optional<JsonValue> json = ParseJson(ReportToJson(report, nullptr));
    ASSERT_TRUE(json.has_value());
    std::optional<JsonValue> ledger =
        ParseJson(RunRecordToJson(MakeRunRecord(report, "stage-agreement", 0)));
    ASSERT_TRUE(ledger.has_value());
    std::vector<std::string> rows = TableStageNames(RenderStageMetricsTable(report));

    for (PipelineStage s : kPipelineStages) {
      const std::string name = PipelineStageName(s);
      SCOPED_TRACE(name);
      EXPECT_EQ(spans[name], 1);
      EXPECT_EQ(starts[name], 1);
      EXPECT_EQ(ends[name], 1);
      EXPECT_EQ(StageHistogram(s).count(), marks_[s].count + 1);
      // The histogram keeps whole nanoseconds of the very value the report
      // holds.
      EXPECT_NEAR(StageHistogram(s).sum_seconds() - marks_[s].sum, report.stage_seconds[s],
                  2e-9);
      EXPECT_GT(report.stage_seconds[s], 0.0);
      EXPECT_TRUE(json->Get("metrics").Get("stages").Has(name));
      EXPECT_TRUE(ledger->Get("metrics").Get("stages").Has(name));
      EXPECT_EQ(std::count(rows.begin(), rows.end(), name), 1);
    }
    EXPECT_LE(report.stage_seconds.Sum(), report.analysis_seconds);
  }

  std::string EventsPath() const { return (dir_ / "events.jsonl").string(); }

  std::filesystem::path dir_;
  AnalysisOptions options_;
  PerStage<HistogramMark> marks_;
};

TEST_F(StageAgreementTest, CliBuildThenRunShape) {
  Analysis analysis(options_);
  BeginRun();
  PipelineRun run(options_.collect_metrics);
  Project project = analysis.BuildFromSources(kSources, &run);
  ASSERT_FALSE(project.diags().HasErrors());
  AnalysisReport report = analysis.Run(project, nullptr, &run);
  ExpectAgreement(report, "build then Run");
}

TEST_F(StageAgreementTest, RunOnSources) {
  BeginRun();
  AnalysisReport report = Analysis(options_).RunOnSources(kSources);
  ExpectAgreement(report, "RunOnSources");
}

TEST_F(StageAgreementTest, IncrementalEngineCommits) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 1, "create", {kSources[0], kSources[1]});
  std::string edited =
      kSources[0].second + "int extra(int x) {\n  int v = x;\n  v = 3;\n  return v;\n}\n";
  repo.AddCommit(bob, 2, "extend", {{"a.c", edited}});

  IncrementalEngine engine(options_);
  for (CommitId commit : {0, 1}) {
    BeginRun();
    IncrementalResult result = engine.AnalyzeCommit(repo, commit);
    ExpectAgreement(result.report, commit == 0 ? "engine commit 0" : "engine commit 1");
  }
}

// Thread-pool activity is counted from before the parse stage, so the
// parallel parse shows up next to the parallel detect.
TEST_F(StageAgreementTest, PoolDeltaCoversParse) {
  AnalysisReport report = Analysis(options_).RunOnSources(kSources);
  ASSERT_TRUE(report.stage.collected);
  EXPECT_GE(report.stage.pool.parallel_fors, 2u);
}

// The --metrics stage rows plus `unattributed` add up to `total`.
TEST_F(StageAgreementTest, TableRowsSumToTotal) {
  AnalysisReport report = Analysis(options_).RunOnSources(kSources);
  std::istringstream in(RenderStageMetricsTable(report));
  std::map<std::string, double> ms;
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);  // separator
  // The stage table ends at the first blank line.
  while (std::getline(in, line) && !line.empty()) {
    std::vector<std::string_view> cells = Split(line, '|');
    ASSERT_GE(cells.size(), 3u) << line;
    const std::string value(Trim(cells[2]));
    if (!value.empty()) {
      ms[std::string(Trim(cells[1]))] = std::stod(value);
    }
  }
  ASSERT_EQ(ms.count("unattributed"), 1u);
  ASSERT_EQ(ms.count("total"), 1u);
  EXPECT_GE(ms["unattributed"], 0.0);
  double rows = ms["unattributed"];
  for (PipelineStage s : kPipelineStages) {
    ASSERT_EQ(ms.count(PipelineStageName(s)), 1u) << PipelineStageName(s);
    rows += ms[PipelineStageName(s)];
  }
  // Each cell is rounded to a microsecond.
  EXPECT_NEAR(rows, ms["total"], 0.001 * (kPipelineStages.size() + 2));
}

}  // namespace
}  // namespace vc
