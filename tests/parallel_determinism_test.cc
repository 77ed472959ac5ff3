// The parallel pipeline's determinism contract: findings, ranking, raw
// candidates, prune statistics, and diagnostics are byte-identical at any
// --jobs value. These tests run the same corpora at jobs = 1, 2, 8 and
// compare against the serial baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/authorship.h"
#include "src/core/incremental.h"
#include "src/core/report_formats.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"
#include "src/testing/corpusgen.h"
#include "src/testing/history_gen.h"

namespace vc {
namespace {

AnalysisOptions WithJobs(int jobs) {
  AnalysisOptions options;
  options.jobs = jobs;
  return options;
}

// Everything order-sensitive a report carries, serialized for comparison.
std::string Fingerprint(const AnalysisReport& report) {
  std::string fp = report.ToCsv();
  fp += "|non_cross_scope=" + std::to_string(report.non_cross_scope);
  fp += "|pruned=" + std::to_string(report.prune_stats.TotalPruned());
  fp += "|original=" + std::to_string(report.prune_stats.original);
  for (const UnusedDefCandidate& cand : report.raw_candidates) {
    fp += "|" + cand.file + ":" + std::to_string(cand.def_loc.line) + ":" + cand.function +
          ":" + cand.slot_name + ":" + CandidateKindName(cand.kind) + ":" +
          PruneReasonName(cand.pruned_by);
  }
  return fp;
}

TEST(ParallelDeterminism, RepositoryPipelineIsByteIdenticalAcrossJobs) {
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.15));
  AnalysisReport baseline = Analysis(WithJobs(1)).RunOnRepository(app.repo);
  ASSERT_FALSE(baseline.raw_candidates.empty());
  std::string expected = Fingerprint(baseline);

  for (int jobs : {2, 8}) {
    AnalysisReport report = Analysis(WithJobs(jobs)).RunOnRepository(app.repo);
    EXPECT_EQ(Fingerprint(report), expected) << "jobs=" << jobs;
    EXPECT_EQ(report.ToCsv(), baseline.ToCsv()) << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, SecondCorpusCsvIdenticalAcrossJobs) {
  GeneratedApp app = GenerateApp(OpensslProfile().Scaled(0.1));
  std::string expected = Analysis(WithJobs(1)).RunOnRepository(app.repo).ToCsv();
  EXPECT_EQ(Analysis(WithJobs(2)).RunOnRepository(app.repo).ToCsv(), expected);
  EXPECT_EQ(Analysis(WithJobs(8)).RunOnRepository(app.repo).ToCsv(), expected);
}

TEST(ParallelDeterminism, DiagnosticsMergeInFileOrder) {
  // Files with parse errors interleaved with clean ones: the rendered
  // diagnostic stream must not depend on which worker finished first.
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 12; ++i) {
    std::string name = "f" + std::to_string(i) + ".c";
    if (i % 3 == 1) {
      files.emplace_back(name, "int broken_" + std::to_string(i) + "( {{{\n");
    } else {
      files.emplace_back(name, "int ok_" + std::to_string(i) + "(int x) { return x; }\n");
    }
  }
  Analysis serial(WithJobs(1));
  Project base = serial.BuildFromSources(files);
  ASSERT_TRUE(base.diags().HasErrors());
  std::string expected = base.diags().Render(base.sources());

  for (int jobs : {2, 8}) {
    Analysis parallel(WithJobs(jobs));
    Project project = parallel.BuildFromSources(files);
    EXPECT_EQ(project.diags().Render(project.sources()), expected) << "jobs=" << jobs;
    EXPECT_EQ(project.diags().ErrorCount(), base.diags().ErrorCount()) << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, IncrementalFindingsIdenticalAcrossJobs) {
  GeneratedApp app = GenerateApp(MysqlProfile().Scaled(0.1));
  int commits = app.repo.NumCommits();
  ASSERT_GT(commits, 0);
  CommitId last = commits - 1;

  IncrementalResult baseline = IncrementalEngine(WithJobs(1)).AnalyzeCommit(app.repo, last);

  for (int jobs : {2, 8}) {
    IncrementalResult result = IncrementalEngine(WithJobs(jobs)).AnalyzeCommit(app.repo, last);
    ASSERT_EQ(result.findings().size(), baseline.findings().size()) << "jobs=" << jobs;
    EXPECT_EQ(result.files_reparsed, baseline.files_reparsed);
    EXPECT_EQ(result.functions_total, baseline.functions_total);
    EXPECT_EQ(result.functions_dirty, baseline.functions_dirty);
    for (size_t i = 0; i < baseline.findings().size(); ++i) {
      EXPECT_EQ(result.findings()[i].file, baseline.findings()[i].file);
      EXPECT_EQ(result.findings()[i].def_loc.line, baseline.findings()[i].def_loc.line);
      EXPECT_EQ(result.findings()[i].slot_name, baseline.findings()[i].slot_name);
      EXPECT_EQ(result.findings()[i].kind, baseline.findings()[i].kind);
      EXPECT_EQ(result.findings()[i].fingerprint, baseline.findings()[i].fingerprint);
    }
  }
}

// What authorship decides for each candidate, one line per candidate.
std::string Classification(const std::vector<UnusedDefCandidate>& candidates) {
  std::string out;
  for (const UnusedDefCandidate& cand : candidates) {
    out += cand.file + ":" + std::to_string(cand.def_loc.line) + ":" + cand.slot_name +
           " cross=" + (cand.cross_scope ? "1" : "0") + " kind=" + CandidateKindName(cand.kind) +
           " def=" + std::to_string(cand.def_author) +
           " resp=" + std::to_string(cand.responsible_author) + "\n";
  }
  return out;
}

testing::HistoryGenOptions BlameHistory() {
  testing::HistoryGenOptions options;
  options.seed = 11;
  options.commits = 40;
  options.initial_modules = 6;
  options.max_modules = 12;
  options.authors = 4;
  return options;
}

// Head blame is filled on the thread pool inside AuthorshipAnalyzer. Every
// jobs value gets a cold copy of the history, so the parallel fill itself
// (not a cache warmed by an earlier run) produces the table that
// classification reads.
void ExpectParallelBlameDeterministic(const Repository& history, bool expect_cross_scope) {
  const Project project = Project::FromRepository(history);
  std::string expected_classes;
  std::string expected_csv;
  for (int jobs : {1, 2, 8}) {
    Repository repo = history;
    AnalysisReport report = Analysis(WithJobs(jobs)).Run(project, &repo);
    if (jobs == 1) {
      ASSERT_FALSE(report.raw_candidates.empty());
      expected_classes = Classification(report.raw_candidates);
      expected_csv = report.ToCsv();
      EXPECT_EQ(expected_classes.find("cross=1") != std::string::npos, expect_cross_scope);
      continue;
    }
    EXPECT_EQ(Classification(report.raw_candidates), expected_classes) << "jobs=" << jobs;
    EXPECT_EQ(report.ToCsv(), expected_csv) << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, ParallelBlameClassifiesIdenticallyAcrossJobs) {
  // A history_gen history: module rewrites, renames, deletes and re-adds, so
  // blame replays every log shape; its authors never cross a boundary.
  ExpectParallelBlameDeterministic(testing::GenerateHistory(BlameHistory()),
                                   /*expect_cross_scope=*/false);
  // A paper app, whose injected sites do cross authorship boundaries.
  ExpectParallelBlameDeterministic(GenerateApp(NfsGaneshaProfile().Scaled(0.15)).repo,
                                   /*expect_cross_scope=*/true);
}

TEST(ParallelDeterminism, HistoricalBlameClassifiesIdenticallyAcrossJobs) {
  const Repository history = testing::GenerateHistory(BlameHistory());
  const CommitId mid = history.NumCommits() / 2;
  const Project project = Project::FromRepositoryAt(history, mid);
  const std::vector<UnusedDefCandidate> detected =
      Analysis(WithJobs(1)).Run(project).raw_candidates;
  ASSERT_FALSE(detected.empty());
  std::string expected;
  for (int jobs : {1, 2, 8}) {
    std::vector<UnusedDefCandidate> candidates = detected;
    AuthorshipAnalyzer(project, &history, mid, jobs).ClassifyAll(candidates);
    if (jobs == 1) {
      expected = Classification(candidates);
      ASSERT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                              [](const UnusedDefCandidate& c) { return c.def_author >= 0; }));
      continue;
    }
    EXPECT_EQ(Classification(candidates), expected) << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, ExplicitCheckerListMatchesDefaultRun) {
  // The default checker set and the same set spelled out via options.checkers
  // are the same run: resolution is by registry order, not request spelling.
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.1));
  AnalysisReport via_default = Analysis(WithJobs(4)).RunOnRepository(app.repo);
  AnalysisOptions spelled = WithJobs(4);
  spelled.checkers = {"stale-copy", "unused-def", "out-param-unused", "dead-global-store",
                      "double-overwrite"};
  AnalysisReport via_spelled = Analysis(spelled).RunOnRepository(app.repo);
  EXPECT_EQ(via_spelled.ToCsv(), via_default.ToCsv());
  EXPECT_EQ(via_spelled.checkers, via_default.checkers);
}

TEST(ParallelDeterminism, BaselineClangFindingsInDeclarationOrderAcrossJobs) {
  // baseline-clang once emitted a function's findings in VarDecl address
  // order, which follows the parse workers' heaps: its CSV rows then
  // differed between job counts and builds.
  testing::CorpusProfile profile;
  ASSERT_TRUE(testing::MakeCorpusProfile("linux-like", "small", 1, &profile));
  profile.files = 120;
  const std::vector<std::pair<std::string, std::string>> sources =
      testing::GenerateCorpusSources(profile);
  std::string expected;
  for (int jobs : {1, 2, 8}) {
    AnalysisOptions options = WithJobs(jobs);
    options.checkers = {"baseline-clang"};
    AnalysisReport report = Analysis(options).RunOnSources(sources);
    ASSERT_GT(report.raw_candidates.size(), 10u) << "jobs=" << jobs;
    for (size_t i = 1; i < report.raw_candidates.size(); ++i) {
      const UnusedDefCandidate& prev = report.raw_candidates[i - 1];
      const UnusedDefCandidate& cand = report.raw_candidates[i];
      if (prev.file == cand.file && prev.function == cand.function) {
        EXPECT_FALSE(cand.def_loc < prev.def_loc)
            << cand.function << ": " << cand.slot_name << " reported after " << prev.slot_name;
      }
    }
    if (jobs == 1) {
      expected = Fingerprint(report);
    } else {
      EXPECT_EQ(Fingerprint(report), expected) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelDeterminism, JsonReportCarriesSchemaV4Metadata) {
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.1));
  AnalysisReport report = Analysis(WithJobs(2)).RunOnRepository(app.repo);
  std::string json = ReportToJson(report, &app.repo);
  EXPECT_NE(json.find("\"schema_version\":8"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"parse_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"detect_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\":{\"warnings\":"), std::string::npos);
  // collect_metrics was off for this run: no metrics block.
  EXPECT_EQ(json.find("\"metrics\":"), std::string::npos);
}

TEST(ParallelDeterminism, ObservabilityDoesNotPerturbFindings) {
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.15));
  // Baseline: observability fully off, serial.
  std::string expected = Fingerprint(Analysis(WithJobs(1)).RunOnRepository(app.repo));

  TraceCollector& collector = TraceCollector::Global();
  for (int jobs : {1, 2, 8}) {
    AnalysisOptions options = WithJobs(jobs);
    options.collect_metrics = true;
    collector.Enable();
    AnalysisReport report = Analysis(options).RunOnRepository(app.repo);
    collector.Disable();

    EXPECT_EQ(Fingerprint(report), expected) << "jobs=" << jobs;

    // The StageMetrics block is populated and its deterministic counters
    // agree across job counts (timings legitimately vary).
    EXPECT_TRUE(report.stage.collected);
    EXPECT_GT(report.stage.files_parsed, 0u);
    EXPECT_GT(report.stage.functions_analyzed, 0u);
    EXPECT_EQ(report.stage.candidates_detected, report.raw_candidates.size());

    // Spans were collected from the traced run, and none were dropped: the
    // pipeline's span volume sits far below the per-thread buffer cap, so any
    // drop here means the cap logic (or a span flood) regressed.
    EXPECT_GT(collector.EventCount(), 0u) << "jobs=" << jobs;
    EXPECT_EQ(collector.dropped_count(), 0u) << "jobs=" << jobs;
    std::string trace = collector.ToJson();
    EXPECT_NE(trace.find("\"analysis.run\""), std::string::npos);
    EXPECT_NE(trace.find("\"detect\""), std::string::npos);
    collector.Clear();
  }
  MetricsRegistry::Global().Disable();
}

TEST(ParallelDeterminism, MemoryAccountingIsByteIdenticalAcrossJobs) {
  GeneratedApp app = GenerateApp(NfsGaneshaProfile().Scaled(0.15));
  AnalysisOptions serial = WithJobs(1);
  serial.collect_metrics = true;
  AnalysisReport baseline = Analysis(serial).RunOnRepository(app.repo);
  ASSERT_TRUE(baseline.memory.collected);
  EXPECT_GT(baseline.memory.TrackedBytes(), 0u);
  EXPECT_GT(baseline.memory.TrackedObjects(), 0u);

  for (int jobs : {2, 8}) {
    AnalysisOptions options = WithJobs(jobs);
    options.collect_metrics = true;
    AnalysisReport report = Analysis(options).RunOnRepository(app.repo);
    ASSERT_TRUE(report.memory.collected) << "jobs=" << jobs;
    // Every byte and object count — totals, per category, and per stage —
    // is exact; only the RSS samples are allowed to differ.
    EXPECT_EQ(report.memory.TrackedBytes(), baseline.memory.TrackedBytes()) << "jobs=" << jobs;
    EXPECT_EQ(report.memory.TrackedObjects(), baseline.memory.TrackedObjects());
    for (int c = 0; c < kMemCategoryCount; ++c) {
      EXPECT_EQ(report.memory.categories[c].bytes, baseline.memory.categories[c].bytes)
          << "jobs=" << jobs << " category=" << c;
      EXPECT_EQ(report.memory.categories[c].objects, baseline.memory.categories[c].objects)
          << "jobs=" << jobs << " category=" << c;
    }
    ASSERT_EQ(report.memory.stages.size(), baseline.memory.stages.size());
    for (size_t s = 0; s < baseline.memory.stages.size(); ++s) {
      EXPECT_EQ(report.memory.stages[s].stage, baseline.memory.stages[s].stage);
      EXPECT_EQ(report.memory.stages[s].tracked_bytes_delta,
                baseline.memory.stages[s].tracked_bytes_delta)
          << "jobs=" << jobs << " stage=" << baseline.memory.stages[s].stage;
      EXPECT_EQ(report.memory.stages[s].tracked_bytes_peak,
                baseline.memory.stages[s].tracked_bytes_peak)
          << "jobs=" << jobs << " stage=" << baseline.memory.stages[s].stage;
    }
  }
  MetricsRegistry::Global().Disable();
}

TEST(ParallelDeterminism, MetricsCountersAggregateInMergeOrder) {
  GeneratedApp app = GenerateApp(OpensslProfile().Scaled(0.1));
  AnalysisOptions serial = WithJobs(1);
  serial.collect_metrics = true;
  AnalysisReport baseline = Analysis(serial).RunOnRepository(app.repo);

  for (int jobs : {2, 8}) {
    AnalysisOptions options = WithJobs(jobs);
    options.collect_metrics = true;
    AnalysisReport report = Analysis(options).RunOnRepository(app.repo);
    EXPECT_EQ(report.stage.files_parsed, baseline.stage.files_parsed) << "jobs=" << jobs;
    EXPECT_EQ(report.stage.functions_analyzed, baseline.stage.functions_analyzed);
    EXPECT_EQ(report.stage.candidates_detected, baseline.stage.candidates_detected);
    EXPECT_EQ(report.stage.rank_scored, baseline.stage.rank_scored);
    EXPECT_EQ(report.stage.rank_unknown, baseline.stage.rank_unknown);
    EXPECT_EQ(report.diagnostic_warnings, baseline.diagnostic_warnings);
    EXPECT_EQ(report.diagnostic_errors, baseline.diagnostic_errors);
  }
  MetricsRegistry::Global().Disable();
}

}  // namespace
}  // namespace vc
