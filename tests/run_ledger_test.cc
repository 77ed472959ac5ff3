// Run ledger: JSONL round-trip, append-order ids, torn-line tolerance,
// selector resolution, and compaction.

#include "src/support/run_ledger.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace vc {
namespace {

class RunLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vc_ledger_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string LedgerDir() const { return (dir_ / "ledger").string(); }

  std::filesystem::path dir_;
};

RunRecord SampleRecord(const std::string& label) {
  RunRecord record;
  record.timestamp_ms = 1700000000123;
  record.label = label;
  record.options_summary = "all-scopes no-prune-cursor";
  record.jobs = 4;
  record.findings.push_back({"0123456789abcdef", "unused-def", "src/a.c", 42, "handle", "ret",
                             "overwritten_def", 0.25});
  record.findings.push_back({"fedcba9876543210", "double-overwrite", "src/b.c", 7, "drive", "got",
                             "unused_retval", 0.0});
  LedgerMetrics& m = record.metrics;
  m.collected = true;
  m.analysis_seconds = 1.5;
  m.stage_seconds[PipelineStage::kParse] = 0.75;
  m.stage_seconds[PipelineStage::kDetect] = 0.25;
  m.files_parsed = 12;
  m.functions_analyzed = 340;
  m.candidates_detected = 9;
  m.prune_original = 9;
  m.prune_total = 7;
  m.prune_remaining = 2;
  m.prune_patterns.push_back({"config_dependency", 9, 4});
  m.prune_patterns.push_back({"cursor", 5, 3});
  m.pool_workers = 4;
  m.pool_tasks = 88;
  m.pool_steals = 3;
  m.pool_idle_seconds = 0.01;
  return record;
}

TEST_F(RunLedgerTest, RecordRoundTripsThroughJson) {
  RunRecord record = SampleRecord("round-trip");
  record.run_id = "r0042";
  std::string json = RunRecordToJson(record);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "record must be a single line";

  std::string error;
  std::optional<RunRecord> back = RunRecordFromJson(json, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->run_id, "r0042");
  EXPECT_EQ(back->timestamp_ms, 1700000000123);
  EXPECT_EQ(back->label, "round-trip");
  EXPECT_EQ(back->options_summary, "all-scopes no-prune-cursor");
  EXPECT_EQ(back->jobs, 4);
  ASSERT_EQ(back->findings.size(), 2u);
  EXPECT_EQ(back->findings[0].fingerprint, "0123456789abcdef");
  EXPECT_EQ(back->findings[0].file, "src/a.c");
  EXPECT_EQ(back->findings[0].line, 42);
  EXPECT_EQ(back->findings[0].function, "handle");
  EXPECT_EQ(back->findings[0].variable, "ret");
  EXPECT_EQ(back->findings[0].kind, "overwritten_def");
  EXPECT_DOUBLE_EQ(back->findings[0].familiarity, 0.25);
  EXPECT_TRUE(back->metrics.collected);
  EXPECT_DOUBLE_EQ(back->metrics.analysis_seconds, 1.5);
  EXPECT_EQ(back->metrics.files_parsed, 12);
  EXPECT_EQ(back->metrics.functions_analyzed, 340);
  ASSERT_EQ(back->metrics.prune_patterns.size(), 2u);
  EXPECT_EQ(back->metrics.prune_patterns[1].name, "cursor");
  EXPECT_EQ(back->metrics.prune_patterns[1].tested, 5);
  EXPECT_EQ(back->metrics.prune_patterns[1].pruned, 3);
  EXPECT_EQ(back->metrics.pool_workers, 4);
  EXPECT_EQ(back->metrics.pool_tasks, 88);
}

TEST_F(RunLedgerTest, ServeMetricsRoundTripInV5Records) {
  RunRecord record;
  record.label = "serve-session";
  LedgerMetrics& m = record.metrics;
  m.serve_collected = true;
  m.serve_wall_seconds = 12.5;
  m.serve_clients = 6;
  m.serve_requests = 240;
  m.serve_succeeded = 200;
  m.serve_degraded = 20;
  m.serve_shed = 12;
  m.serve_deadline = 5;
  m.serve_failed = 3;
  m.serve_retried = 31;
  m.serve_qps = 19.2;
  m.serve_p50_ms = 4.5;
  m.serve_p95_ms = 30.0;
  m.serve_p99_ms = 55.25;

  std::string error;
  std::optional<RunRecord> back = RunRecordFromJson(RunRecordToJson(record), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(back->metrics.serve_collected);
  EXPECT_DOUBLE_EQ(back->metrics.serve_wall_seconds, 12.5);
  EXPECT_EQ(back->metrics.serve_clients, 6);
  EXPECT_EQ(back->metrics.serve_requests, 240);
  EXPECT_EQ(back->metrics.serve_succeeded, 200);
  EXPECT_EQ(back->metrics.serve_degraded, 20);
  EXPECT_EQ(back->metrics.serve_shed, 12);
  EXPECT_EQ(back->metrics.serve_deadline, 5);
  EXPECT_EQ(back->metrics.serve_failed, 3);
  EXPECT_EQ(back->metrics.serve_retried, 31);
  EXPECT_DOUBLE_EQ(back->metrics.serve_qps, 19.2);
  EXPECT_DOUBLE_EQ(back->metrics.serve_p50_ms, 4.5);
  EXPECT_DOUBLE_EQ(back->metrics.serve_p95_ms, 30.0);
  EXPECT_DOUBLE_EQ(back->metrics.serve_p99_ms, 55.25);
  // The accounting identity survives the round trip.
  EXPECT_EQ(back->metrics.serve_requests,
            back->metrics.serve_succeeded + back->metrics.serve_degraded +
                back->metrics.serve_shed + back->metrics.serve_deadline +
                back->metrics.serve_failed);
}

TEST_F(RunLedgerTest, BatchRecordsOmitTheServeBlock) {
  RunRecord record = SampleRecord("batch");
  std::string json = RunRecordToJson(record);
  EXPECT_EQ(json.find("\"serve\""), std::string::npos)
      << "batch records must not carry an empty serve block";
  std::optional<RunRecord> back = RunRecordFromJson(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->metrics.serve_collected);
  EXPECT_EQ(back->metrics.serve_requests, 0);
}

TEST_F(RunLedgerTest, GarbageLineIsRejectedWithError) {
  std::string error;
  EXPECT_FALSE(RunRecordFromJson("{\"run_id\":", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(RunRecordFromJson("[1,2,3]").has_value());
}

TEST_F(RunLedgerTest, AppendAssignsSequentialRunIds) {
  RunLedger ledger(LedgerDir());
  EXPECT_EQ(ledger.Append(SampleRecord("one")), "r0001");
  EXPECT_EQ(ledger.Append(SampleRecord("two")), "r0002");
  EXPECT_EQ(ledger.Append(SampleRecord("three")), "r0003");

  std::optional<std::vector<RunRecord>> runs = ledger.Load();
  ASSERT_TRUE(runs.has_value());
  ASSERT_EQ(runs->size(), 3u);
  EXPECT_EQ((*runs)[0].label, "one");
  EXPECT_EQ((*runs)[2].run_id, "r0003");
}

TEST_F(RunLedgerTest, AppendCreatesNestedDirectories) {
  RunLedger ledger((dir_ / "deeply" / "nested" / "ledger").string());
  std::string error;
  EXPECT_EQ(ledger.Append(SampleRecord("nested"), &error), "r0001") << error;
  EXPECT_TRUE(std::filesystem::exists(ledger.LedgerFile()));
}

TEST_F(RunLedgerTest, LoadOnMissingDirectoryYieldsEmptyHistory) {
  RunLedger ledger(LedgerDir());
  std::optional<std::vector<RunRecord>> runs = ledger.Load();
  ASSERT_TRUE(runs.has_value());
  EXPECT_TRUE(runs->empty());
}

TEST_F(RunLedgerTest, TornFinalLineIsSkippedNotFatal) {
  RunLedger ledger(LedgerDir());
  ledger.Append(SampleRecord("one"));
  ledger.Append(SampleRecord("two"));
  // Simulate a crashed writer: a half-flushed record on the final line.
  {
    std::ofstream out(ledger.LedgerFile(), std::ios::app);
    out << "{\"schema\":1,\"run_id\":\"r00";
  }
  std::string error;
  int skipped = 0;
  std::optional<std::vector<RunRecord>> runs = ledger.Load(&error, &skipped);
  ASSERT_TRUE(runs.has_value()) << error;
  EXPECT_EQ(runs->size(), 2u);
  EXPECT_EQ(skipped, 1);
  // And the ledger stays appendable after the torn line.
  EXPECT_EQ(ledger.Append(SampleRecord("three")), "r0003");
}

TEST_F(RunLedgerTest, FindResolvesSelectors) {
  RunLedger ledger(LedgerDir());
  ledger.Append(SampleRecord("one"));
  ledger.Append(SampleRecord("two"));
  ledger.Append(SampleRecord("three"));

  auto label_of = [&](const std::string& selector) {
    std::optional<RunRecord> run = ledger.Find(selector);
    return run.has_value() ? run->label : std::string("<none>");
  };
  EXPECT_EQ(label_of("latest"), "three");
  EXPECT_EQ(label_of("prev"), "two");
  EXPECT_EQ(label_of("r0001"), "one");
  EXPECT_EQ(label_of("2"), "two");
  EXPECT_EQ(label_of("-1"), "three");
  EXPECT_EQ(label_of("-3"), "one");

  std::string error;
  EXPECT_FALSE(ledger.Find("r0099", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ledger.Find("-4").has_value());
  EXPECT_FALSE(ledger.Find("0").has_value());
  EXPECT_FALSE(ledger.Find("bogus").has_value());
}

TEST_F(RunLedgerTest, CompactKeepsNewestRuns) {
  RunLedger ledger(LedgerDir());
  for (int i = 1; i <= 5; ++i) {
    ledger.Append(SampleRecord("run" + std::to_string(i)));
  }
  std::string error;
  EXPECT_EQ(ledger.Compact(2, &error), 3) << error;

  std::optional<std::vector<RunRecord>> runs = ledger.Load();
  ASSERT_TRUE(runs.has_value());
  ASSERT_EQ(runs->size(), 2u);
  // Surviving records keep their original ids; new appends continue after.
  EXPECT_EQ((*runs)[0].run_id, "r0004");
  EXPECT_EQ((*runs)[1].run_id, "r0005");
  EXPECT_EQ(ledger.Append(SampleRecord("after")), "r0006");
}

TEST_F(RunLedgerTest, DegradedAndQuarantineCountersRoundTrip) {
  RunRecord record = SampleRecord("degraded");
  record.run_id = "r0001";
  record.degraded = true;
  record.metrics.quarantined_units = 3;
  std::optional<RunRecord> back = RunRecordFromJson(RunRecordToJson(record));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->degraded);
  EXPECT_EQ(back->metrics.quarantined_units, 3);
  // Pre-v5 records lack both fields and must read as clean runs.
  std::optional<RunRecord> old = RunRecordFromJson(
      "{\"run_id\":\"r0001\",\"findings\":[],\"metrics\":{}}");
  ASSERT_TRUE(old.has_value());
  EXPECT_FALSE(old->degraded);
  EXPECT_EQ(old->metrics.quarantined_units, 0);
}

TEST_F(RunLedgerTest, MemoryAndCheckerStatsRoundTripInV2Records) {
  RunRecord record = SampleRecord("v2");
  record.run_id = "r0001";
  record.metrics.mem_collected = true;
  record.metrics.mem_ast_bytes = 1000;
  record.metrics.mem_ast_objects = 10;
  record.metrics.mem_ir_bytes = 2000;
  record.metrics.mem_ir_objects = 20;
  record.metrics.mem_points_to_bytes = 300;
  record.metrics.mem_points_to_objects = 3;
  record.metrics.mem_strings_bytes = 40;
  record.metrics.mem_strings_objects = 4;
  record.metrics.mem_tracked_bytes = 3340;
  record.metrics.mem_peak_rss_bytes = 50000000;
  record.checker_stats.push_back({"unused-def", 9, 2});
  record.checker_stats.push_back({"double-overwrite", 4, 1});

  std::optional<RunRecord> back = RunRecordFromJson(RunRecordToJson(record));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->metrics.mem_collected);
  EXPECT_EQ(back->metrics.mem_ast_bytes, 1000);
  EXPECT_EQ(back->metrics.mem_ir_objects, 20);
  EXPECT_EQ(back->metrics.mem_points_to_bytes, 300);
  EXPECT_EQ(back->metrics.mem_strings_objects, 4);
  EXPECT_EQ(back->metrics.mem_tracked_bytes, 3340);
  EXPECT_EQ(back->metrics.mem_peak_rss_bytes, 50000000);
  ASSERT_EQ(back->checker_stats.size(), 2u);
  EXPECT_EQ(back->checker_stats[0].name, "unused-def");
  EXPECT_EQ(back->checker_stats[0].candidates, 9);
  EXPECT_EQ(back->checker_stats[1].findings, 1);
}

// Schema v1 lines (pre memory accounting / per-checker stats) must keep
// loading: absent blocks read as "not recorded", never as an error.
TEST_F(RunLedgerTest, PreV2RecordsLoadWithAbsentMeansNotRecorded) {
  std::string error;
  std::optional<RunRecord> old = RunRecordFromJson(
      "{\"schema\":1,\"run_id\":\"r0001\",\"label\":\"legacy\",\"jobs\":2,"
      "\"findings\":[],\"metrics\":{\"collected\":true,\"analysis_seconds\":1.0}}",
      &error);
  ASSERT_TRUE(old.has_value()) << error;
  EXPECT_FALSE(old->metrics.mem_collected);
  EXPECT_EQ(old->metrics.mem_tracked_bytes, 0);
  EXPECT_EQ(old->metrics.mem_peak_rss_bytes, 0);
  EXPECT_TRUE(old->checker_stats.empty());
  // And a v2 writer never re-emits the absent blocks for such a record.
  std::string rewritten = RunRecordToJson(*old);
  EXPECT_EQ(rewritten.find("\"memory\""), std::string::npos);
  EXPECT_EQ(rewritten.find("\"checker_stats\""), std::string::npos);
}

// A verbatim line as a ledger-schema v5 binary wrote it: the cross-scope
// filter's seconds sit under the pre-v6 stage key "filter".
constexpr const char* kV5Line =
    R"({"ledger_schema":5,"run_id":"r0001","timestamp_ms":1792223136152,"label":"v5-run","options":"no-history","jobs":1,"degraded":false,"checkers":["unused-def","double-overwrite","dead-global-store","out-param-unused","stale-copy"],"checker_stats":[{"checker":"unused-def","candidates":1,"findings":1},{"checker":"double-overwrite","candidates":0,"findings":0},{"checker":"dead-global-store","candidates":0,"findings":0},{"checker":"out-param-unused","candidates":0,"findings":0},{"checker":"stale-copy","candidates":0,"findings":0}],"findings":[{"fingerprint":"00747072a6f6b055","checker":"unused-def","file":"v5src/buggy.c","line":5,"function":"handle","variable":"ret","kind":"plain-unused","familiarity":0}],"metrics":{"collected":true,"analysis_seconds":0.000963318,"stages":{"parse":0.000778504,"detect":0.000101987,"authorship":3.28e-06,"filter":2.173e-06,"prune":2.5689e-05,"rank":9.32e-07},"counters":{"files_parsed":1,"functions_analyzed":2,"candidates_detected":1,"prune_original":1,"prune_total":0,"prune_remaining":1,"quarantined_units":0},"prune_patterns":[{"name":"config_dependency","tested":1,"pruned":0},{"name":"cursor","tested":1,"pruned":0},{"name":"unused_hints","tested":1,"pruned":0},{"name":"peer_definition","tested":1,"pruned":0},{"name":"stale_code","tested":0,"pruned":0}],"thread_pool":{"workers":3,"tasks":0,"steals":0,"idle_seconds":0},"memory":{"collected":true,"ast_bytes":1800,"ast_objects":29,"ir_bytes":3140,"ir_objects":17,"points_to_bytes":0,"points_to_objects":0,"strings_bytes":33,"strings_objects":6,"tracked_bytes":4973,"peak_rss_bytes":4628480}}})";

TEST_F(RunLedgerTest, V5RecordReadsTheFilterStageUnderItsOldKey) {
  std::string error;
  std::optional<RunRecord> old = RunRecordFromJson(kV5Line, &error);
  ASSERT_TRUE(old.has_value()) << error;
  const StageSeconds& stages = old->metrics.stage_seconds;
  EXPECT_DOUBLE_EQ(stages[PipelineStage::kParse], 0.000778504);
  EXPECT_DOUBLE_EQ(stages[PipelineStage::kDetect], 0.000101987);
  EXPECT_DOUBLE_EQ(stages[PipelineStage::kCrossScopeFilter], 2.173e-06);
  EXPECT_DOUBLE_EQ(stages[PipelineStage::kRank], 9.32e-07);
  // Rewritten, the record carries the v6 key and schema only.
  std::string rewritten = RunRecordToJson(*old);
  EXPECT_NE(rewritten.find("\"ledger_schema\":6"), std::string::npos);
  EXPECT_NE(rewritten.find("\"cross_scope_filter\":2.173e-06"), std::string::npos);
  EXPECT_EQ(rewritten.find("\"filter\":"), std::string::npos);
}

TEST_F(RunLedgerTest, MixedVersionLedgerLoadsAllRecords) {
  RunLedger ledger(LedgerDir());
  ledger.Append(SampleRecord("v1-era"));  // no memory, no checker stats
  RunRecord modern = SampleRecord("v2-era");
  modern.metrics.mem_collected = true;
  modern.metrics.mem_tracked_bytes = 1234;
  modern.checker_stats.push_back({"unused-def", 5, 2});
  ledger.Append(modern);
  // A literal pre-v2 line as an old binary would have written it.
  {
    std::ofstream out(ledger.LedgerFile(), std::ios::app);
    out << "{\"schema\":1,\"run_id\":\"r0003\",\"label\":\"ancient\","
           "\"findings\":[],\"metrics\":{}}\n";
  }
  std::string error;
  int skipped = 0;
  std::optional<std::vector<RunRecord>> runs = ledger.Load(&error, &skipped);
  ASSERT_TRUE(runs.has_value()) << error;
  EXPECT_EQ(skipped, 0);
  ASSERT_EQ(runs->size(), 3u);
  EXPECT_FALSE((*runs)[0].metrics.mem_collected);
  EXPECT_TRUE((*runs)[1].metrics.mem_collected);
  EXPECT_EQ((*runs)[1].metrics.mem_tracked_bytes, 1234);
  ASSERT_EQ((*runs)[1].checker_stats.size(), 1u);
  EXPECT_FALSE((*runs)[2].metrics.mem_collected);
  EXPECT_TRUE((*runs)[2].checker_stats.empty());
}

// Append is a single O_APPEND write() per record, so concurrent appenders
// (CI jobs sharing one ledger) must never tear each other's lines. Run ids
// are preassigned: id *assignment* reads the ledger first and is only
// advisory under concurrency; byte-level line atomicity is the contract.
TEST_F(RunLedgerTest, ConcurrentAppendersNeverTearRecords) {
  RunLedger ledger(LedgerDir());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  // A long label makes each line span several kilobytes, well past any
  // stdio buffer size where interleaving bugs would hide.
  const std::string padding(4096, 'x');
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RunRecord record = SampleRecord("writer" + std::to_string(t) + "-" +
                                        std::to_string(i) + "-" + padding);
        record.run_id = "r" + std::to_string(t) + "_" + std::to_string(i);
        std::string error;
        ASSERT_FALSE(ledger.Append(record, &error).empty()) << error;
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  std::string error;
  int skipped = 0;
  std::optional<std::vector<RunRecord>> runs = ledger.Load(&error, &skipped);
  ASSERT_TRUE(runs.has_value()) << error;
  EXPECT_EQ(skipped, 0) << "torn (interleaved) lines in the ledger";
  EXPECT_EQ(runs->size(), static_cast<size_t>(kThreads * kPerThread));
  for (const RunRecord& record : *runs) {
    // Each record came through intact: full label with its padding tail.
    EXPECT_EQ(record.label.compare(record.label.size() - padding.size(),
                                   padding.size(), padding),
              0);
  }
}

TEST_F(RunLedgerTest, CompactLargerThanHistoryDropsNothing) {
  RunLedger ledger(LedgerDir());
  ledger.Append(SampleRecord("one"));
  EXPECT_EQ(ledger.Compact(10), 0);
  std::optional<std::vector<RunRecord>> runs = ledger.Load();
  ASSERT_TRUE(runs.has_value());
  EXPECT_EQ(runs->size(), 1u);
}

}  // namespace
}  // namespace vc
