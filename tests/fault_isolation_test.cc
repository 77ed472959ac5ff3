// Fault isolation & resource budgets: the FaultInjector/BudgetMeter
// primitives, and the pipeline-level quarantine contract — a faulted or
// over-budget unit is dropped with a structured record while every healthy
// unit's findings stay byte-identical to a clean run, at any job count.

#include "src/support/fault.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/checkers/checker_context.h"
#include "src/checkers/double_overwrite.h"
#include "src/core/analysis.h"

namespace vc {
namespace {

// --- FaultInjector ------------------------------------------------------------

TEST(FaultInjector, DisabledByDefault) {
  FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.ShouldFault(fault_sites::kParseFile, "a.c"));
  injector.MaybeFault(fault_sites::kParseFile, "a.c");  // must not throw
}

TEST(FaultInjector, RateExtremes) {
  FaultInjector never(7, 0.0);
  FaultInjector always(7, 1.0);
  EXPECT_FALSE(never.enabled());
  EXPECT_TRUE(always.enabled());
  for (const char* unit : {"a.c", "b.c", "a.c:f", "a.c:g"}) {
    EXPECT_FALSE(never.ShouldFault(fault_sites::kDetectFunction, unit));
    EXPECT_TRUE(always.ShouldFault(fault_sites::kDetectFunction, unit));
  }
  EXPECT_THROW(always.MaybeFault(fault_sites::kDetectFunction, "a.c:f"), InjectedFaultError);
}

TEST(FaultInjector, DecisionIsPureFunctionOfSeedSiteUnit) {
  FaultInjector a(42, 0.5);
  FaultInjector b(42, 0.5);
  FaultInjector other_seed(43, 0.5);
  int faults = 0;
  int seed_disagreements = 0;
  for (int i = 0; i < 200; ++i) {
    std::string unit = "file" + std::to_string(i) + ".c:func";
    bool fa = a.ShouldFault(fault_sites::kDetectFunction, unit);
    // Same seed: identical decision no matter the call order or count.
    EXPECT_EQ(fa, b.ShouldFault(fault_sites::kDetectFunction, unit));
    EXPECT_EQ(fa, a.ShouldFault(fault_sites::kDetectFunction, unit));
    faults += fa ? 1 : 0;
    seed_disagreements +=
        fa != other_seed.ShouldFault(fault_sites::kDetectFunction, unit) ? 1 : 0;
  }
  // Rate 0.5 over 200 units: loose bounds, just "not degenerate".
  EXPECT_GT(faults, 50);
  EXPECT_LT(faults, 150);
  EXPECT_GT(seed_disagreements, 0);
}

TEST(FaultInjector, SitesAreIndependent) {
  FaultInjector injector(9, 0.5);
  bool any_differ = false;
  for (int i = 0; i < 64 && !any_differ; ++i) {
    std::string unit = "u" + std::to_string(i);
    any_differ = injector.ShouldFault(fault_sites::kPruneFunction, unit) !=
                 injector.ShouldFault(fault_sites::kRankFunction, unit);
  }
  EXPECT_TRUE(any_differ);
}

TEST(FaultInjector, ParsesSeedRateSpec) {
  std::string error;
  std::optional<FaultInjector> ok = FaultInjector::Parse("42:0.25", &error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(ok->seed(), 42u);
  EXPECT_DOUBLE_EQ(ok->rate(), 0.25);

  for (const char* bad : {"", "42", ":0.5", "42:", "x:0.5", "42:x", "42:1.5", "42:-0.1"}) {
    error.clear();
    EXPECT_FALSE(FaultInjector::Parse(bad, &error).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(error.empty()) << "'" << bad << "'";
  }
}

// --- BudgetMeter --------------------------------------------------------------

TEST(BudgetMeter, UnlimitedBudgetNeverThrows) {
  ResourceBudget budget;
  EXPECT_TRUE(budget.Unlimited());
  BudgetMeter meter(budget);
  for (int i = 0; i < 10000; ++i) {
    meter.Charge(1000);
  }
  EXPECT_EQ(meter.steps(), 10000u * 1000u);
}

TEST(BudgetMeter, StepLimitThrowsPastLimit) {
  ResourceBudget budget;
  budget.detect_step_limit = 10;
  EXPECT_FALSE(budget.Unlimited());
  BudgetMeter meter(budget);
  meter.Charge(10);  // exactly at the limit: fine
  EXPECT_THROW(meter.Charge(1), BudgetExceededError);
}

TEST(BudgetMeter, ExpiredDeadlineThrows) {
  ResourceBudget budget;
  budget.unit_deadline_seconds = 1e-9;  // already elapsed by the first check
  BudgetMeter meter(budget);
  EXPECT_THROW(
      {
        for (int i = 0; i < 1 << 20; ++i) {
          meter.Charge();
        }
      },
      BudgetExceededError);
}

// --- Pipeline quarantine contract ---------------------------------------------

using Sources = std::vector<std::pair<std::string, std::string>>;

Sources SampleSources() {
  // Three files, each with an unused-definition finding plus healthy code, so
  // partial quarantine visibly shrinks the finding set.
  Sources sources;
  sources.push_back({"alpha.c",
                     "int alpha(int a) {\n"
                     "  int dead = a + 1;\n"
                     "  dead = a + 2;\n"
                     "  return dead;\n"
                     "}\n"});
  sources.push_back({"beta.c",
                     "int beta(int b) {\n"
                     "  int dead = b + 1;\n"
                     "  dead = b + 2;\n"
                     "  return dead;\n"
                     "}\n"});
  sources.push_back({"gamma.c",
                     "int gamma(int c) {\n"
                     "  int dead = c + 1;\n"
                     "  dead = c + 2;\n"
                     "  return dead;\n"
                     "}\n"});
  return sources;
}

AnalysisReport RunWith(const Sources& sources, int jobs, FaultInjector fault,
                       ResourceBudget budget = ResourceBudget()) {
  AnalysisOptions options;
  options.cross_scope_only = false;
  // Peer-definition pruning reads corpus-global statistics, so quarantining
  // one unit can legitimately change another's verdict; disable it to make
  // the subset assertions exact (see DESIGN.md §"Fault isolation").
  options.prune.peer_definition = false;
  options.jobs = jobs;
  options.fault = fault;
  options.budget = budget;
  return Analysis(options).RunOnSources(sources);
}

std::set<std::string> Fingerprints(const AnalysisReport& report) {
  std::set<std::string> set;
  for (const UnusedDefCandidate& cand : report.findings) {
    set.insert(cand.fingerprint);
  }
  return set;
}

std::string QuarantineKey(const AnalysisReport& report) {
  std::string out;
  for (const QuarantinedUnit& unit : report.quarantined) {
    out += unit.path + "|" + unit.function + "|" + unit.stage + "|" + unit.reason + "\n";
  }
  return out;
}

TEST(FaultIsolation, CleanRunIsNotDegraded) {
  AnalysisReport report = RunWith(SampleSources(), 2, FaultInjector());
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_FALSE(report.findings.empty());
}

TEST(FaultIsolation, FullFaultRateQuarantinesEveryFileAndStillCompletes) {
  AnalysisReport report = RunWith(SampleSources(), 2, FaultInjector(1, 1.0));
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(report.findings.empty());
  ASSERT_EQ(report.quarantined.size(), 3u);  // every file at the first site
  for (const QuarantinedUnit& unit : report.quarantined) {
    EXPECT_EQ(unit.stage, "parse");
    EXPECT_TRUE(unit.function.empty());
    EXPECT_NE(unit.reason.find("injected fault"), std::string::npos);
  }
  // The quarantined files must not leak parse errors into the report.
  EXPECT_EQ(report.diagnostic_errors, 0);
}

TEST(FaultIsolation, SurvivingFindingsAreSubsetOfCleanRun) {
  Sources sources = SampleSources();
  AnalysisReport clean = RunWith(sources, 1, FaultInjector());
  std::set<std::string> clean_fps = Fingerprints(clean);
  ASSERT_EQ(clean_fps.size(), 3u);

  // Scan seeds until one quarantines some-but-not-all units, so the subset
  // check is non-trivial in both directions.
  bool exercised = false;
  for (uint64_t seed = 1; seed <= 32 && !exercised; ++seed) {
    AnalysisReport faulted = RunWith(sources, 1, FaultInjector(seed, 0.5));
    std::set<std::string> faulted_fps = Fingerprints(faulted);
    for (const std::string& fp : faulted_fps) {
      EXPECT_TRUE(clean_fps.count(fp))
          << "seed " << seed << " gained fingerprint " << fp;
    }
    EXPECT_EQ(faulted.degraded, !faulted.quarantined.empty());
    exercised = !faulted.quarantined.empty() && !faulted_fps.empty();
  }
  EXPECT_TRUE(exercised) << "no seed in 1..32 produced a partial quarantine";
}

TEST(FaultIsolation, QuarantineAndFindingsIdenticalAcrossJobs) {
  Sources sources = SampleSources();
  for (uint64_t seed : {3u, 11u, 19u}) {
    AnalysisReport base = RunWith(sources, 1, FaultInjector(seed, 0.5));
    std::set<std::string> base_fps = Fingerprints(base);
    std::string base_quarantine = QuarantineKey(base);
    for (int jobs : {2, 8}) {
      AnalysisReport report = RunWith(sources, jobs, FaultInjector(seed, 0.5));
      EXPECT_EQ(Fingerprints(report), base_fps) << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(QuarantineKey(report), base_quarantine)
          << "seed " << seed << " jobs " << jobs;
    }
  }
}

TEST(FaultIsolation, DetectStepBudgetQuarantinesEveryFunction) {
  ResourceBudget budget;
  budget.detect_step_limit = 1;  // no real function fits in one step
  AnalysisReport report = RunWith(SampleSources(), 2, FaultInjector(), budget);
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(report.findings.empty());
  ASSERT_EQ(report.quarantined.size(), 3u);
  std::set<std::string> functions;
  for (const QuarantinedUnit& unit : report.quarantined) {
    EXPECT_EQ(unit.stage, "detect");
    EXPECT_NE(unit.reason.find("step budget exceeded"), std::string::npos);
    functions.insert(unit.function);
  }
  EXPECT_EQ(functions, (std::set<std::string>{"alpha", "beta", "gamma"}));
}

TEST(FaultIsolation, GenerousDetectBudgetChangesNothing) {
  ResourceBudget budget;
  budget.detect_step_limit = 1 << 20;
  AnalysisReport clean = RunWith(SampleSources(), 2, FaultInjector());
  AnalysisReport budgeted = RunWith(SampleSources(), 2, FaultInjector(), budget);
  EXPECT_FALSE(budgeted.degraded);
  EXPECT_EQ(Fingerprints(budgeted), Fingerprints(clean));
}

TEST(FaultIsolation, DoubleOverwriteReplayIsCharged) {
  // An address-taken local stored twice with no read in between: the one
  // shape double-overwrite tracks, so its kill replay really runs.
  const Sources sources = {{"d.c",
                            "int d(int a) {\n"
                            "  int x;\n"
                            "  int *p = &x;\n"
                            "  x = a;\n"
                            "  x = a + 1;\n"
                            "  return *p;\n"
                            "}\n"}};
  // The checker's charge up to its replay: the liveness pass behind
  // address_taken() plus the must-pending solve.
  Project project = Project::FromSources(sources);
  const IrFunction& func = *project.modules()[0]->functions[0];
  BudgetMeter meter{ResourceBudget()};
  CheckerContext ctx(project, 0, func, &meter);
  const PendingStores pending(ctx.layout(), ctx.address_taken());
  ASSERT_TRUE(pending.TracksAny());
  std::vector<SlotSet> in;
  std::vector<SlotSet> out;
  pending.Solve(in, out, &meter);
  uint64_t replay = 0;  // Replay charges insts + 1 per block
  for (const auto& block : func.blocks) {
    replay += block->insts.size() + 1;
  }

  AnalysisOptions options;
  options.checkers = {"double-overwrite"};
  options.cross_scope_only = false;
  // A limit between the charge without the replay and the charge with it:
  // only a charged replay pushes the function over.
  options.budget.detect_step_limit = meter.steps();
  AnalysisReport report = Analysis(options).RunOnSources(sources);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].function, "d");
  EXPECT_EQ(report.quarantined[0].checker, "double-overwrite");
  EXPECT_NE(report.quarantined[0].reason.find("step budget exceeded"), std::string::npos);

  // The full charge fits exactly, and the kill is reported.
  options.budget.detect_step_limit = meter.steps() + replay;
  report = Analysis(options).RunOnSources(sources);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.raw_candidates.size(), 1u);
}

}  // namespace
}  // namespace vc
