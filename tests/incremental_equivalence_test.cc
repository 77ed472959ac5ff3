// The incremental engine's differential battery: at EVERY commit of a
// history, the engine's report must be byte-identical (CSV rendering and
// fingerprint sequence) to a fresh full analysis of the repository truncated
// at that commit — at jobs 1, 2, and 8, with and without the disk cache,
// across the edit shapes real repositories produce (file adds, deletes,
// renames, signature changes, cross-file callee edits, whitespace touches).
//
// The synthesized histories come from src/testing/history_gen.h, which emits
// exactly those shapes by construction; the hand-written history below pins
// each shape individually so a battery failure localizes.
//
// The snapshot entry (the serve daemon's) is held to a sources-mode run over
// each path-sorted snapshot, and its files_changed to the true delta.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"
#include "src/testing/history_gen.h"
#include "src/testing/testgen.h"

namespace vc {
namespace {

std::vector<std::string> Fingerprints(const AnalysisReport& report) {
  std::vector<std::string> prints;
  for (const UnusedDefCandidate& cand : report.findings) {
    prints.push_back(cand.fingerprint);
  }
  return prints;
}

// Replays `repo` through one warm engine and diffs every commit against a
// fresh full run truncated there.
void ExpectReplayEquivalent(const Repository& repo, const AnalysisOptions& options,
                            const std::string& cache_dir = "") {
  IncrementalOptions inc;
  inc.cache_dir = cache_dir;
  IncrementalEngine engine(options, inc);
  Analysis full(options);
  for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
    IncrementalResult result = engine.AnalyzeCommit(repo, commit);
    AnalysisReport fresh = full.RunOnRepository(repo.PrefixCopy(commit));
    ASSERT_EQ(result.report.ToCsv(), fresh.ToCsv())
        << "divergence at commit " << commit << " (" << repo.GetCommit(commit).message
        << "), jobs=" << options.jobs;
    ASSERT_EQ(Fingerprints(result.report), Fingerprints(fresh))
        << "fingerprint divergence at commit " << commit;
  }
}

testing::HistoryGenOptions SmallHistory(uint64_t seed, int commits) {
  testing::HistoryGenOptions options;
  options.seed = seed;
  options.commits = commits;
  options.initial_modules = 3;
  options.max_modules = 8;
  options.authors = 3;
  options.per_module.max_functions_per_file = 3;
  options.per_module.max_stmts_per_function = 6;
  return options;
}

TEST(IncrementalEquivalence, GeneratedHistoryAtJobs1) {
  Repository repo = testing::GenerateHistory(SmallHistory(7, 24));
  AnalysisOptions options;
  options.jobs = 1;
  ExpectReplayEquivalent(repo, options);
}

TEST(IncrementalEquivalence, GeneratedHistoryAtJobs2) {
  Repository repo = testing::GenerateHistory(SmallHistory(7, 24));
  AnalysisOptions options;
  options.jobs = 2;
  ExpectReplayEquivalent(repo, options);
}

TEST(IncrementalEquivalence, GeneratedHistoryAtJobs8) {
  Repository repo = testing::GenerateHistory(SmallHistory(7, 24));
  AnalysisOptions options;
  options.jobs = 8;
  ExpectReplayEquivalent(repo, options);
}

TEST(IncrementalEquivalence, SecondSeedShiftsTheOpMixAndStillMatches) {
  Repository repo = testing::GenerateHistory(SmallHistory(1234, 18));
  AnalysisOptions options;
  options.jobs = 2;
  ExpectReplayEquivalent(repo, options);
}

// Hand-written history pinning each edit shape the generator mixes freely.
TEST(IncrementalEquivalence, HandWrittenEditShapes) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");

  std::string util =
      "int util_compute(int x) {\n"
      "  int t = x * 2;\n"
      "  return t;\n"
      "}\n";
  std::string caller =
      "int caller_run(int x) {\n"
      "  int r = util_compute(x);\n"
      "  return r;\n"
      "}\n";
  repo.AddCommit(alice, 100, "create", {{"util.c", util}, {"caller.c", caller}});

  // File add.
  repo.AddCommit(bob, 200, "add helper",
                 {{"helper.c", "int helper(int y) {\n  return y + 1;\n}\n"}});

  // Cross-file callee edit: util_compute's body changes; caller.c untouched
  // on disk but dirty through the dependency graph.
  std::string util2 =
      "int util_compute(int x) {\n"
      "  int t = x * 2;\n"
      "  t = x * 3;\n"
      "  return t;\n"
      "}\n";
  repo.AddCommit(bob, 300, "rework util", {{"util.c", util2}});

  // Signature change rippling to the caller.
  std::string util3 =
      "int util_compute(int x, int bias) {\n"
      "  int t = x * 3 + bias;\n"
      "  return t;\n"
      "}\n";
  std::string caller2 =
      "int caller_run(int x) {\n"
      "  int r = util_compute(x, 1);\n"
      "  return r;\n"
      "}\n";
  repo.AddCommit(alice, 400, "widen util_compute", {{"util.c", util3}, {"caller.c", caller2}});

  // Rename: same bytes, new path.
  repo.AddCommit(alice, 500, "move helper", {{"support.c", "int helper(int y) {\n  return y + 1;\n}\n"}},
                 {"helper.c"});

  // File delete.
  repo.AddCommit(bob, 600, "drop support", {}, {"support.c"});

  // Whitespace-only touch.
  repo.AddCommit(bob, 700, "tidy caller", {{"caller.c", caller2 + "\n"}});

  for (int jobs : {1, 2, 8}) {
    AnalysisOptions options;
    options.jobs = jobs;
    ExpectReplayEquivalent(repo, options);
  }
}

TEST(IncrementalEquivalence, DiskCacheColdRestartStaysEquivalent) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("vc_inc_equiv_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Repository repo = testing::GenerateHistory(SmallHistory(42, 12));
  AnalysisOptions options;
  options.jobs = 2;

  // First process: populates the disk cache while staying equivalent.
  ExpectReplayEquivalent(repo, options, dir.string());

  // Second process (fresh engine, same cache dir): must restore from disk
  // and still match full runs at every commit.
  {
    IncrementalOptions inc;
    inc.cache_dir = dir.string();
    IncrementalEngine engine(options, inc);
    IncrementalResult first = engine.AnalyzeCommit(repo, 0);
    EXPECT_GT(first.cache.disk_loads, 0u) << "cold start never read the disk cache";
    Analysis full(options);
    for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
      IncrementalResult result =
          commit == 0 ? std::move(first) : engine.AnalyzeCommit(repo, commit);
      AnalysisReport fresh = full.RunOnRepository(repo.PrefixCopy(commit));
      ASSERT_EQ(result.report.ToCsv(), fresh.ToCsv()) << "disk-restored divergence at " << commit;
    }
  }
  std::filesystem::remove_all(dir);
}

using Sources = std::vector<std::pair<std::string, std::string>>;

std::string QuarantineKey(const AnalysisReport& report) {
  std::string out;
  for (const QuarantinedUnit& unit : report.quarantined) {
    out += unit.path + "|" + unit.function + "|" + unit.stage + "|" + unit.reason + "|" +
           unit.checker + "\n";
  }
  return out;
}

// Paths whose content differs between two snapshots, or that only one holds.
int TrueDelta(const Sources& before, const Sources& after) {
  const std::map<std::string, std::string> old_files(before.begin(), before.end());
  const std::map<std::string, std::string> new_files(after.begin(), after.end());
  int delta = 0;
  for (const auto& [path, content] : new_files) {
    auto it = old_files.find(path);
    delta += it == old_files.end() || it->second != content ? 1 : 0;
  }
  for (const auto& [path, content] : old_files) {
    delta += new_files.count(path) == 0 ? 1 : 0;
  }
  return delta;
}

TEST(IncrementalEquivalence, SnapshotSequenceMatchesSourcesRuns) {
  testing::GenOptions gen;
  gen.min_files = 4;
  gen.max_files = 4;
  gen.ident_prefix = "snap_";
  gen.file_prefix = "snap/";
  const Sources pristine = testing::GenerateProgram(21, gen).ToSources();
  Sources edited = pristine;
  edited[1].second +=
      "\nint snap_edit(int a) {\n  int x;\n  x = a + 1;\n  int y;\n  y = x * 2;\n"
      "  return x;\n}\n";
  Sources added = edited;
  added.push_back({"snap/aa_new.c", "int snap_new(int a) {\n  int q = a;\n  q = a + 2;\n"
                                    "  return q;\n}\n"});
  Sources deleted = added;
  deleted.erase(deleted.begin() + 2);

  struct Step {
    const char* name;
    const Sources* sources;
    std::vector<std::string> checkers;
  };
  const std::vector<std::string> two_checkers = {"unused-def", "double-overwrite"};
  const std::vector<Step> steps = {
      {"cold", &pristine, {}},         {"edit", &edited, {}},
      {"add", &added, {}},             {"delete", &deleted, {}},
      {"revert", &pristine, {}},       {"unchanged repeat", &pristine, {}},
      {"checker-set change", &pristine, two_checkers},
  };

  for (int jobs : {1, 2, 8}) {
    AnalysisOptions options;
    options.cross_scope_only = false;
    options.ranking.enabled = false;
    options.authorship = false;
    options.jobs = jobs;
    options.fault = FaultInjector(5, 0.1);  // non-empty quarantine lists
    std::unique_ptr<IncrementalEngine> engine;
    Sources live;
    bool quarantined_any = false;
    for (const Step& step : steps) {
      options.checkers = step.checkers;
      if (engine == nullptr || engine->options().checkers != step.checkers) {
        // A different checker set needs a fresh engine, as the daemon's host
        // rebuilds one: it analyzes the snapshot cold.
        engine = std::make_unique<IncrementalEngine>(options);
        live.clear();
      }
      // Any input order: the engine sorts by path like the batch walk.
      const Sources fed(step.sources->rbegin(), step.sources->rend());
      const int delta = TrueDelta(live, *step.sources);
      EXPECT_EQ(engine->IsLiveSnapshot(fed), delta == 0) << step.name << ", jobs=" << jobs;
      IncrementalResult result = engine->AnalyzeSnapshot(fed);
      Sources sorted = *step.sources;
      std::sort(sorted.begin(), sorted.end());
      AnalysisReport fresh = Analysis(options).RunOnSources(sorted);
      ASSERT_EQ(result.report.ToCsv(), fresh.ToCsv()) << step.name << ", jobs=" << jobs;
      ASSERT_EQ(Fingerprints(result.report), Fingerprints(fresh)) << step.name;
      ASSERT_EQ(QuarantineKey(result.report), QuarantineKey(fresh)) << step.name;
      EXPECT_EQ(result.files_changed, delta) << step.name << ", jobs=" << jobs;
      EXPECT_EQ(result.commit, kInvalidCommit);
      quarantined_any = quarantined_any || !fresh.quarantined.empty();
      live = *step.sources;
    }
    EXPECT_TRUE(quarantined_any) << "the fault seed must quarantine something";
  }
}

TEST(IncrementalEquivalence, SnapshotWithRepeatedPathThrows) {
  IncrementalEngine engine{AnalysisOptions{}};
  const Sources sources = {{"a.c", "int f(void) { return 1; }\n"},
                           {"a.c", "int f(void) { return 2; }\n"}};
  EXPECT_THROW(engine.AnalyzeSnapshot(sources), std::invalid_argument);
}

}  // namespace
}  // namespace vc
