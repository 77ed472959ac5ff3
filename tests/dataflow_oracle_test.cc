// Path-reachability oracle for the dataflow solver: every liveness and
// DefineSet fact the solver (and its replay) produces, at every program point
// of every function, must equal the fact re-derived by searching CFG paths
// (src/testing/oracle.h, CheckDataflowFacts). Covers small generated
// functions, every checked-in C file, and the oracle's own power to notice a
// wrong fact.

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

// Checks every function of `project`; returns the number checked.
int ExpectFactsAgree(const Project& project, const std::string& what) {
  int checked = 0;
  for (const auto& module : project.modules()) {
    for (const auto& func : module->functions) {
      EXPECT_EQ(CheckDataflowFacts(*func, ComputeLiveness(*func), ComputeDefineSets(*func)), "")
          << what;
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
  const LivenessResult liveness = ComputeLiveness(func);
  const DefineSetResult defines = ComputeDefineSets(func);
  int corrupted = 0;
  for (size_t b = 0; b < func.blocks.size(); ++b) {
    for (SlotId s = 0; s < func.slots.size(); ++s) {
      if (!liveness.live_out[b].Contains(s)) {
        continue;
      }
      LivenessResult wrong = liveness;
      wrong.live_out[b].Remove(s);
      EXPECT_NE(CheckDataflowFacts(func, wrong, defines), "")
          << "dropping '" << func.slots[s].name << "' from block " << b << "'s live-out";
      ++corrupted;
    }
  }
  EXPECT_GT(corrupted, 0);
}

TEST(DataflowOracle, NoticesAWrongDefineSet) {
  Project project = Build(kLoopSource);
  const IrFunction& func = *project.modules()[0]->functions[0];
  const LivenessResult liveness = ComputeLiveness(func);
  const DefineSetResult defines = ComputeDefineSets(func);
  int corrupted = 0;
  for (size_t b = 0; b < func.blocks.size(); ++b) {
    for (SlotId s = 0; s < func.slots.size(); ++s) {
      if (defines.in[b].Find(s) == nullptr) {
        continue;
      }
      DefineSetResult wrong = defines;
      wrong.in[b].Replace(s, SourceLoc());
      EXPECT_NE(CheckDataflowFacts(func, liveness, wrong), "")
          << "replacing '" << func.slots[s].name << "' in block " << b << "'s DefineSet";
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
