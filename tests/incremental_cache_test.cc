// Cache-correctness battery for the incremental engine: content hashing must
// catch edits line-count and length cannot, the disk tier's config key must
// invalidate on any configuration or checker-set change, and a damaged
// --cache-dir must degrade to a full re-parse through the quarantine channel
// rather than fail the run. Also covers fault injection through the
// incremental path (quarantine records thread through IncrementalResult).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"

namespace vc {
namespace {

class IncrementalCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vc_inc_cache_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

Repository TwoCommitRepo(const std::string& v1, const std::string& v2) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  repo.AddCommit(alice, 100, "create", {{"a.c", v1}});
  repo.AddCommit(alice, 200, "edit", {{"a.c", v2}});
  return repo;
}

TEST_F(IncrementalCacheTest, LengthPreservingEditInvalidates) {
  // Same byte length, same line count — only the content hash can tell.
  // v1 overwrites `a` before use (one finding); v2's second store reads `a`,
  // so the finding disappears.
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  std::string v2 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = a + 5;\n"
      "  return a;\n"
      "}\n";
  ASSERT_EQ(v1.size(), v2.size());
  ASSERT_NE(HashContent(v1), HashContent(v2));

  Repository repo = TwoCommitRepo(v1, v2);
  // Single-author history: keep non-cross-scope findings so the overwrite
  // in v1 is visible at all.
  AnalysisOptions options;
  options.cross_scope_only = false;
  IncrementalEngine engine{options};
  IncrementalResult first = engine.AnalyzeCommit(repo, 0);
  EXPECT_EQ(first.findings().size(), 1u);
  IncrementalResult second = engine.AnalyzeCommit(repo, 1);
  EXPECT_EQ(second.files_reparsed, 1);
  // The carried cache must not leak v1's finding into the v2 report.
  AnalysisReport full = Analysis(options).RunOnRepository(repo.PrefixCopy(1));
  EXPECT_EQ(second.report.ToCsv(), full.ToCsv());
  EXPECT_NE(second.report.ToCsv(), first.report.ToCsv());
}

TEST_F(IncrementalCacheTest, WhitespaceOnlyEditReparsesWithoutChurn) {
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  Repository repo = TwoCommitRepo(v1, v1 + "\n");
  IncrementalEngine engine{AnalysisOptions{}};
  IncrementalResult first = engine.AnalyzeCommit(repo, 0);
  IncrementalResult second = engine.AnalyzeCommit(repo, 1);
  // The hash can't know the edit was whitespace, so the file re-parses —
  // but every finding carries (same fingerprint), nothing is new or fixed.
  EXPECT_EQ(second.files_reparsed, 1);
  EXPECT_EQ(second.findings_new, 0);
  EXPECT_EQ(second.findings_fixed, 0);
  EXPECT_EQ(second.findings_carried, static_cast<int>(first.findings().size()));
  EXPECT_EQ(second.report.ToCsv(), first.report.ToCsv());
}

TEST(IncrementalCacheKey, CoversConfigCheckersTraitsBudgetAndFault) {
  AnalysisOptions base;
  std::string base_key = MakeCacheConfigKey(base);
  EXPECT_NE(base_key.find("schema="), std::string::npos);

  AnalysisOptions with_macro = base;
  with_macro.config.Define("DEBUG", 1);
  EXPECT_NE(MakeCacheConfigKey(with_macro), base_key);

  AnalysisOptions with_checkers = base;
  with_checkers.checkers = {"unused-def"};
  // The key folds the RESOLVED list, so explicitly naming the full default
  // set may match; naming a strict subset must not.
  if (MakeCacheConfigKey(with_checkers) == base_key) {
    ADD_FAILURE() << "subset checker list produced the default cache key";
  }

  AnalysisOptions with_budget = base;
  with_budget.budget.detect_step_limit = 12345;
  EXPECT_NE(MakeCacheConfigKey(with_budget), base_key);

  AnalysisOptions with_fault = base;
  with_fault.fault = *FaultInjector::Parse("42:0.25", nullptr);
  EXPECT_NE(MakeCacheConfigKey(with_fault), base_key);
}

TEST_F(IncrementalCacheTest, ConfigChangeMakesDiskEntriesStale) {
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  repo.AddCommit(alice, 100, "create", {{"a.c", v1}});

  {
    IncrementalOptions inc;
    inc.cache_dir = dir_.string();
    IncrementalEngine writer{AnalysisOptions{}, inc};
    IncrementalResult result = writer.AnalyzeCommit(repo, 0);
    EXPECT_GT(result.cache.disk_stores, 0u);
  }

  // Fresh engine, same dir, same options: restores from disk.
  {
    IncrementalOptions inc;
    inc.cache_dir = dir_.string();
    IncrementalEngine reader{AnalysisOptions{}, inc};
    EXPECT_GT(reader.AnalyzeCommit(repo, 0).cache.disk_loads, 0u);
  }

  // Fresh engine with a different preprocessor configuration: the stored
  // entries are stale (config key mismatch) — a silent miss, not corruption.
  {
    AnalysisOptions other;
    other.config.Define("DEBUG", 1);
    IncrementalOptions inc;
    inc.cache_dir = dir_.string();
    IncrementalEngine reader{other, inc};
    IncrementalResult result = reader.AnalyzeCommit(repo, 0);
    EXPECT_EQ(result.cache.disk_loads, 0u);
    EXPECT_EQ(result.cache.disk_corrupt, 0u);
    Analysis full(other);
    EXPECT_EQ(result.report.ToCsv(), full.RunOnRepository(repo.PrefixCopy(0)).ToCsv());
  }
}

TEST_F(IncrementalCacheTest, CorruptEntryQuarantinesAndDegradesToReparse) {
  std::string v1 =
      "int f(int x) {\n"
      "  int a = x + 1;\n"
      "  a = x + 5;\n"
      "  return a;\n"
      "}\n";
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  repo.AddCommit(alice, 100, "create", {{"a.c", v1}});

  AnalysisOptions options;
  options.cross_scope_only = false;  // single-author history
  {
    IncrementalOptions inc;
    inc.cache_dir = dir_.string();
    IncrementalEngine writer{options, inc};
    writer.AnalyzeCommit(repo, 0);
  }

  // Truncate every stored entry mid-JSON.
  int damaged = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
    out << "{\"cache_schema\":1,\"functions\":[{\"name\"";
    ++damaged;
  }
  ASSERT_GT(damaged, 0);

  IncrementalOptions inc;
  inc.cache_dir = dir_.string();
  IncrementalEngine reader{options, inc};
  IncrementalResult result = reader.AnalyzeCommit(repo, 0);

  // Degraded, not dead: the corrupt entry surfaces as a "cache"-stage
  // quarantine record and the file re-analyzes from source.
  EXPECT_GT(result.cache.disk_corrupt, 0u);
  bool cache_quarantine = false;
  for (const QuarantinedUnit& unit : result.report.quarantined) {
    if (unit.stage == "cache" && unit.path == "a.c") {
      cache_quarantine = true;
    }
  }
  EXPECT_TRUE(cache_quarantine) << "corrupt entry did not reach the quarantine channel";
  ASSERT_EQ(result.findings().size(), 1u);
  EXPECT_EQ(result.findings()[0].slot_name, "a");
}

TEST_F(IncrementalCacheTest, UnreadableEntryQuarantinesAndDegradesToReparse) {
  // An entry that exists but cannot be read (here: a directory in its place)
  // is damage, not a miss: it must surface like a corrupt entry.
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  repo.AddCommit(alice, 100, "create",
                 {{"a.c", "int f(int x) {\n  int a = x;\n  a = 2;\n  return a;\n}\n"}});
  AnalysisOptions options;
  options.cross_scope_only = false;
  IncrementalOptions inc;
  inc.cache_dir = dir_.string();
  IncrementalEngine{options, inc}.AnalyzeCommit(repo, 0);
  int replaced = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::filesystem::remove(entry.path());
    std::filesystem::create_directory(entry.path());
    ++replaced;
  }
  ASSERT_GT(replaced, 0);

  IncrementalResult result = IncrementalEngine{options, inc}.AnalyzeCommit(repo, 0);
  EXPECT_GT(result.cache.disk_corrupt, 0u);
  bool quarantined = false;
  for (const QuarantinedUnit& unit : result.report.quarantined) {
    quarantined |= unit.stage == "cache" && unit.path == "a.c" &&
                   unit.reason.find("Is a directory") != std::string::npos;
  }
  EXPECT_TRUE(quarantined) << "unreadable entry did not reach the quarantine channel";
  ASSERT_EQ(result.findings().size(), 1u);
  EXPECT_EQ(result.findings()[0].slot_name, "a");
}

TEST(IncrementalFault, InjectionMatchesFullRunAndThreadsQuarantine) {
  // Under deterministic fault injection, the incremental replay must still
  // match a full run exactly — surviving findings AND quarantine records.
  AnalysisOptions options;
  options.fault = *FaultInjector::Parse("7:0.5", nullptr);

  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  std::map<std::string, std::string> files;
  for (int i = 0; i < 6; ++i) {
    std::string t = std::to_string(i);
    files["f" + t + ".c"] = "int fn_" + t + "(int x) {\n  int a_" + t +
                            " = x + 1;\n  a_" + t + " = x + 2;\n  return a_" + t + ";\n}\n";
  }
  repo.AddCommit(alice, 100, "create", files);
  repo.AddCommit(alice, 200, "edit",
                 {{"f0.c", "int fn_0(int x) {\n  int a_0 = x + 9;\n  a_0 = x + 2;\n"
                           "  return a_0;\n}\n"}});

  IncrementalEngine engine(options);
  Analysis full(options);
  for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
    IncrementalResult result = engine.AnalyzeCommit(repo, commit);
    AnalysisReport fresh = full.RunOnRepository(repo.PrefixCopy(commit));
    ASSERT_EQ(result.report.ToCsv(), fresh.ToCsv()) << "fault divergence at commit " << commit;
    ASSERT_EQ(result.report.quarantined.size(), fresh.quarantined.size())
        << "quarantine divergence at commit " << commit;
    for (size_t i = 0; i < fresh.quarantined.size(); ++i) {
      EXPECT_EQ(result.report.quarantined[i].path, fresh.quarantined[i].path);
      EXPECT_EQ(result.report.quarantined[i].function, fresh.quarantined[i].function);
      EXPECT_EQ(result.report.quarantined[i].stage, fresh.quarantined[i].stage);
      EXPECT_EQ(result.report.quarantined[i].reason, fresh.quarantined[i].reason);
    }
    EXPECT_EQ(result.report.degraded, fresh.degraded);
  }
}

}  // namespace
}  // namespace vc
