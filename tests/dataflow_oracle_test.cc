// Path-reachability oracles for the dataflow solver: every liveness,
// DefineSet and double-overwrite pending-store fact the solver (and its
// replay) produces, at every program point of every function, must equal the
// fact re-derived by searching CFG paths (src/testing/oracle.h,
// CheckDataflowFacts and CheckPendingStoreFacts). Covers small generated
// functions, every checked-in C file (tests/data/wide_function.c spills every
// bitset past its first word), and the oracles' own power to notice a wrong
// fact.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/project.h"
#include "src/testing/oracle.h"
#include "src/testing/testgen.h"

namespace vc {
namespace testing {
namespace {

struct Pending {
  std::vector<SlotSet> in;
  std::vector<SlotSet> out;
};

Pending SolvePending(const PendingStores& analysis) {
  Pending pending;
  analysis.Solve(pending.in, pending.out, nullptr);
  return pending;
}

// Checks every function of `project`; returns the number checked.
int ExpectFactsAgree(const Project& project, const std::string& what) {
  int checked = 0;
  for (const auto& module : project.modules()) {
    for (const auto& func : module->functions) {
      const SlotLayout layout(*func);
      const LivenessResult liveness = ComputeLiveness(layout);
      EXPECT_EQ(CheckDataflowFacts(layout, liveness, ComputeDefineSets(layout)), "") << what;
      const PendingStores analysis(layout, liveness.address_taken);
      const Pending pending = SolvePending(analysis);
      EXPECT_EQ(CheckPendingStoreFacts(layout, analysis, pending.in, pending.out), "") << what;
      ++checked;
    }
  }
  return checked;
}

std::vector<std::pair<std::string, std::string>> ReadCFiles(const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".c") {
      std::ifstream in(entry.path());
      std::stringstream contents;
      contents << in.rdbuf();
      files.push_back({entry.path().string(), contents.str()});
    }
  }
  return files;
}

Project Build(const std::string& source) { return Project::FromSources({{"t.c", source}}); }

TEST(DataflowOracle, GeneratedFunctionsAgreeWithPathSearch) {
  GenOptions options;
  options.max_files = 2;
  options.max_stmts_per_function = 8;
  int checked = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    TestProgram program = GenerateProgram(seed, options);
    checked += ExpectFactsAgree(Project::FromSources(program.ToSources()),
                                "testgen seed " + std::to_string(seed));
  }
  EXPECT_GT(checked, 100);
}

TEST(DataflowOracle, CheckedInSourcesAgreeWithPathSearch) {
  int checked = 0;
  for (const char* dir : {VALUECHECK_CORPUS_DIR, VALUECHECK_TEST_DATA_DIR}) {
    for (const auto& file : ReadCFiles(dir)) {
      Project project = Project::FromSources({file});
      ASSERT_EQ(project.diags().ErrorCount(), 0) << file.first;
      checked += ExpectFactsAgree(project, file.first);
    }
  }
  EXPECT_GT(checked, 10);
}

// A loop (back edge), a branch, struct fields and an address-taken slot: the
// shapes where a propagation bug would show.
constexpr const char* kLoopSource =
    "struct pair { int a; int b; };\n"
    "int use(int *p);\n"
    "int f(int n, int c) {\n"
    "  int x = 0;\n"
    "  int y = 1;\n"
    "  struct pair s;\n"
    "  s.a = n;\n"
    "  while (n > 0) {\n"
    "    if (c) {\n"
    "      x = x + n;\n"
    "    } else {\n"
    "      y = 2;\n"
    "    }\n"
    "    n = n - 1;\n"
    "  }\n"
    "  use(&y);\n"
    "  return x + s.a;\n"
    "}\n";

TEST(DataflowOracle, LoopFunctionAgrees) {
  Project project = Build(kLoopSource);
  ASSERT_EQ(project.diags().ErrorCount(), 0);
  EXPECT_EQ(ExpectFactsAgree(project, "loop"), 1);
}

TEST(DataflowOracle, NoticesAWrongLiveSet) {
  Project project = Build(kLoopSource);
  const IrFunction& func = *project.modules()[0]->functions[0];
  const SlotLayout layout(func);
  const LivenessResult liveness = ComputeLiveness(layout);
  const DefineSetResult defines = ComputeDefineSets(layout);
  int corrupted = 0;
  for (size_t b = 0; b < func.blocks.size(); ++b) {
    for (SlotId s = 0; s < func.slots.size(); ++s) {
      if (!liveness.live_out[b].Contains(s)) {
        continue;
      }
      LivenessResult wrong = liveness;
      wrong.live_out[b].Remove(s);
      EXPECT_NE(CheckDataflowFacts(layout, wrong, defines), "")
          << "dropping '" << func.slots[s].name << "' from block " << b << "'s live-out";
      ++corrupted;
    }
  }
  EXPECT_GT(corrupted, 0);
}

TEST(DataflowOracle, NoticesAWrongDefineSet) {
  Project project = Build(kLoopSource);
  const IrFunction& func = *project.modules()[0]->functions[0];
  const SlotLayout layout(func);
  const LivenessResult liveness = ComputeLiveness(layout);
  const DefineSetResult defines = ComputeDefineSets(layout);
  int corrupted = 0;
  for (size_t b = 0; b < func.blocks.size(); ++b) {
    for (SlotId s = 0; s < func.slots.size(); ++s) {
      const StoreRange range = layout.Stores(s);
      defines.in[b].ForEachInRange(range.begin, range.end, [&](StoreId id) {
        DefineSetResult wrong = defines;
        wrong.in[b].Remove(id);
        EXPECT_NE(CheckDataflowFacts(layout, liveness, wrong), "")
            << "dropping a store of '" << func.slots[s].name << "' from block " << b
            << "'s DefineSet";
        ++corrupted;
      });
    }
  }
  EXPECT_GT(corrupted, 0);
}

// Two address-taken locals with stores on both arms of a branch and around a
// loop: x's first store is overwritten on every path, y's only on one.
constexpr const char* kPendingSource =
    "int use(int *p);\n"
    "int f(int n, int c) {\n"
    "  int x = 0;\n"
    "  int y = 0;\n"
    "  use(&x);\n"
    "  use(&y);\n"
    "  x = 1;\n"
    "  y = 1;\n"
    "  if (c) {\n"
    "    x = 2;\n"
    "    y = 2;\n"
    "  } else {\n"
    "    x = 3;\n"
    "  }\n"
    "  while (n > 0) {\n"
    "    x = n;\n"
    "    n = n - 1;\n"
    "  }\n"
    "  return use(&x) + use(&y);\n"
    "}\n";

TEST(DataflowOracle, PendingStoresAgree) {
  Project project = Build(kPendingSource);
  ASSERT_EQ(project.diags().ErrorCount(), 0);
  EXPECT_EQ(ExpectFactsAgree(project, "pending"), 1);
}

TEST(DataflowOracle, NoticesAWrongPendingSet) {
  Project project = Build(kPendingSource);
  const IrFunction& func = *project.modules()[0]->functions[0];
  const SlotLayout layout(func);
  const PendingStores analysis(layout, ComputeLiveness(layout).address_taken);
  const Pending pending = SolvePending(analysis);
  ASSERT_EQ(CheckPendingStoreFacts(layout, analysis, pending.in, pending.out), "");
  int corrupted = 0;
  for (size_t b = 0; b < func.blocks.size(); ++b) {
    // Drop a pending store, or add one that is not pending.
    for (StoreId id = 0; id < layout.num_stores(); ++id) {
      Pending wrong = pending;
      if (wrong.in[b].Contains(id)) {
        wrong.in[b].Remove(id);
      } else {
        wrong.in[b].Add(id);
      }
      EXPECT_NE(CheckPendingStoreFacts(layout, analysis, wrong.in, wrong.out), "")
          << "flipping store " << id << " in block " << b << "'s pending set";
      ++corrupted;
    }
  }
  EXPECT_GT(corrupted, 0);
}

TEST(DataflowOracle, FuzzOracleKindRunsTheCheck) {
  ASSERT_TRUE(OracleKindFromName("dataflow").has_value());
  OracleOptions options;
  options.enabled = {OracleKind::kDataflow};
  OracleRunner runner(options);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    OracleVerdict verdict = runner.Check(GenerateProgram(seed));
    EXPECT_TRUE(verdict.Passed()) << "seed " << seed << ": "
                                  << (verdict.Passed() ? "" : verdict.failures[0].detail);
  }
}

}  // namespace
}  // namespace testing
}  // namespace vc
