// Micro-benchmarks (google-benchmark) for the analysis substrates: parsing,
// IR lowering, liveness fix points, the per-function detect kernel over a
// generated corpus, Andersen's points-to, Myers diff, blame replay, and
// .vchist loading. These are ablation-style measurements for
// DESIGN.md's design choices (per-function analysis, snapshot storage with
// diff-based blame).

#include <benchmark/benchmark.h>

#include <memory>

#include "src/checkers/checker_context.h"
#include "src/checkers/double_overwrite.h"
#include "src/core/detector.h"
#include "src/core/project.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/dataflow/define_sets.h"
#include "src/dataflow/liveness.h"
#include "src/ir/ir_builder.h"
#include "src/parser/parser.h"
#include "src/pointer/andersen.h"
#include "src/support/rng.h"
#include "src/testing/corpusgen.h"
#include "src/vcs/diff.h"
#include "src/vcs/history_io.h"
#include "src/vcs/repository.h"

namespace {

// A function with `blocks` if/else diamonds and a loop, all variables used.
std::string SyntheticFunction(int index, int blocks) {
  std::string t = std::to_string(index);
  std::string code = "int fn_" + t + "(int a, int b) {\n  int acc_" + t + " = a;\n";
  for (int i = 0; i < blocks; ++i) {
    code += "  if (acc_" + t + " > " + std::to_string(i) + ") {\n";
    code += "    acc_" + t + " = acc_" + t + " + b;\n";
    code += "  } else {\n";
    code += "    acc_" + t + " = acc_" + t + " - 1;\n";
    code += "  }\n";
  }
  code += "  while (acc_" + t + " > b) {\n    acc_" + t + " = acc_" + t + " - b;\n  }\n";
  code += "  return acc_" + t + ";\n}\n";
  return code;
}

std::string SyntheticModule(int functions, int blocks_each) {
  std::string code;
  for (int i = 0; i < functions; ++i) {
    code += SyntheticFunction(i, blocks_each);
  }
  return code;
}

void BM_ParseModule(benchmark::State& state) {
  std::string code = SyntheticModule(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    vc::SourceManager sm;
    vc::DiagnosticEngine diags;
    vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
    benchmark::DoNotOptimize(unit.functions.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParseModule)->Arg(10)->Arg(100);

void BM_LowerModule(benchmark::State& state) {
  vc::SourceManager sm;
  vc::DiagnosticEngine diags;
  std::string code = SyntheticModule(static_cast<int>(state.range(0)), 6);
  vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
  for (auto _ : state) {
    auto module = vc::LowerUnit(unit);
    benchmark::DoNotOptimize(module->functions.size());
  }
}
BENCHMARK(BM_LowerModule)->Arg(10)->Arg(100);

void BM_LivenessFixPoint(benchmark::State& state) {
  vc::SourceManager sm;
  vc::DiagnosticEngine diags;
  std::string code = SyntheticFunction(0, static_cast<int>(state.range(0)));
  vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
  auto module = vc::LowerUnit(unit);
  const vc::SlotLayout layout(*module->functions.front());
  for (auto _ : state) {
    vc::LivenessResult result = vc::ComputeLiveness(layout);
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_LivenessFixPoint)->Arg(8)->Arg(64);

void BM_DefineSets(benchmark::State& state) {
  vc::SourceManager sm;
  vc::DiagnosticEngine diags;
  std::string code = SyntheticFunction(0, static_cast<int>(state.range(0)));
  vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
  auto module = vc::LowerUnit(unit);
  const vc::SlotLayout layout(*module->functions.front());
  for (auto _ : state) {
    vc::DefineSetResult result = vc::ComputeDefineSets(layout);
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_DefineSets)->Arg(8)->Arg(64);

// The detect kernel per function over a vc_corpusgen linux-like/small
// corpus (seed 1), one row per layer. Each iteration makes a fresh
// CheckerContext per function and, untimed, computes what the measured layer
// reads; the `function_time` counter is the mean time per function. The
// liveness row includes building the slot layout, which the slot_layout row
// times alone.
enum class KernelLayer { kSlotLayout, kLiveness, kDefineSets, kDetectorReplay, kDoubleOverwrite };

void BM_CorpusKernel(benchmark::State& state, KernelLayer layer) {
  static const vc::Project project = [] {
    vc::testing::CorpusProfile profile;
    vc::testing::MakeCorpusProfile("linux-like", "small", 1, &profile);
    return vc::Project::FromSources(vc::testing::GenerateCorpusSources(profile));
  }();
  std::vector<std::pair<vc::FileId, const vc::IrFunction*>> functions;
  for (const auto& module : project.modules()) {
    for (const auto& func : module->functions) {
      functions.push_back({module->file, func.get()});
    }
  }
  const vc::DoubleOverwriteChecker double_overwrite;
  std::vector<std::unique_ptr<vc::CheckerContext>> contexts(functions.size());
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < functions.size(); ++i) {
      contexts[i] = std::make_unique<vc::CheckerContext>(project, functions[i].first,
                                                         *functions[i].second);
      if (layer != KernelLayer::kSlotLayout && layer != KernelLayer::kLiveness) {
        contexts[i]->liveness();
      }
      if (layer == KernelLayer::kDetectorReplay) {
        contexts[i]->defines();
      }
    }
    state.ResumeTiming();
    for (auto& ctx : contexts) {
      switch (layer) {
        case KernelLayer::kSlotLayout:
          benchmark::DoNotOptimize(ctx->layout().num_stores());
          break;
        case KernelLayer::kLiveness:
          benchmark::DoNotOptimize(ctx->liveness().iterations);
          break;
        case KernelLayer::kDefineSets:
          benchmark::DoNotOptimize(ctx->defines().iterations);
          break;
        case KernelLayer::kDetectorReplay:
          benchmark::DoNotOptimize(vc::DetectInFunction(*ctx).size());
          break;
        case KernelLayer::kDoubleOverwrite:
          benchmark::DoNotOptimize(double_overwrite.Check(*ctx).size());
          break;
      }
    }
  }
  state.counters["function_time"] =
      benchmark::Counter(static_cast<double>(functions.size()),
                         benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_CorpusKernel, slot_layout, KernelLayer::kSlotLayout);
BENCHMARK_CAPTURE(BM_CorpusKernel, liveness, KernelLayer::kLiveness);
BENCHMARK_CAPTURE(BM_CorpusKernel, define_sets, KernelLayer::kDefineSets);
BENCHMARK_CAPTURE(BM_CorpusKernel, detector_replay, KernelLayer::kDetectorReplay);
BENCHMARK_CAPTURE(BM_CorpusKernel, double_overwrite, KernelLayer::kDoubleOverwrite);

void BM_AndersenPointsTo(benchmark::State& state) {
  // Pointer-heavy function: a chain of copies and swaps.
  std::string code = "int pf(int n) {\n  int x = 1;\n  int y = 2;\n";
  code += "  int *p = &x;\n  int *q = &y;\n";
  for (int i = 0; i < state.range(0); ++i) {
    code += "  if (n > " + std::to_string(i) + ") {\n    int *t" + std::to_string(i) +
            " = p;\n    p = q;\n    q = t" + std::to_string(i) + ";\n  }\n";
  }
  code += "  return *p + *q;\n}\n";
  vc::SourceManager sm;
  vc::DiagnosticEngine diags;
  vc::TranslationUnit unit = vc::ParseString(sm, "bench.c", code, diags);
  auto module = vc::LowerUnit(unit);
  const vc::IrFunction& func = *module->functions.front();
  for (auto _ : state) {
    vc::PointsTo pts(func);
    benchmark::DoNotOptimize(pts.iterations());
  }
}
BENCHMARK(BM_AndersenPointsTo)->Arg(4)->Arg(32);

void BM_DetectModule(benchmark::State& state) {
  vc::Project project = vc::Project::FromSources(
      {{"bench.c", SyntheticModule(static_cast<int>(state.range(0)), 6)}});
  for (auto _ : state) {
    auto candidates = vc::DetectAll(project);
    benchmark::DoNotOptimize(candidates.size());
  }
}
BENCHMARK(BM_DetectModule)->Arg(10)->Arg(100);

void BM_MyersDiff(benchmark::State& state) {
  vc::Rng rng(7);
  std::vector<std::string> a;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back("line_" + std::to_string(rng.NextInRange(0, 50)));
  }
  std::vector<std::string> b = a;
  for (int i = 0; i < state.range(0) / 10 + 1; ++i) {
    b.insert(b.begin() + static_cast<long>(rng.NextBelow(b.size() + 1)),
             "inserted_" + std::to_string(i));
  }
  std::vector<std::string_view> av(a.begin(), a.end());
  std::vector<std::string_view> bv(b.begin(), b.end());
  for (auto _ : state) {
    auto edits = vc::DiffLines(av, bv);
    benchmark::DoNotOptimize(edits.size());
  }
}
BENCHMARK(BM_MyersDiff)->Arg(100)->Arg(1000);

// The shape blame replays most often: a large file with a few scattered line
// edits. Edit distance stays tiny while N + M is large, which is where a
// trace of full V-array copies per step used to dominate.
void BM_MyersDiffLargeFileSmallEdit(benchmark::State& state) {
  std::vector<std::string> a;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back("  stmt_" + std::to_string(i) + "();");
  }
  std::vector<std::string> b = a;
  const size_t n = b.size();
  b[n / 4] = "  changed();";
  b.insert(b.begin() + static_cast<long>(n / 2), "  inserted();");
  b.erase(b.begin() + static_cast<long>(3 * n / 4));
  std::vector<std::string_view> av(a.begin(), a.end());
  std::vector<std::string_view> bv(b.begin(), b.end());
  for (auto _ : state) {
    auto edits = vc::DiffLines(av, bv);
    benchmark::DoNotOptimize(edits.size());
  }
}
BENCHMARK(BM_MyersDiffLargeFileSmallEdit)->Arg(2000)->Arg(20000);

void BM_BlameReplay(benchmark::State& state) {
  vc::Repository repo;
  vc::AuthorId author = repo.AddAuthor("dev");
  std::string content;
  for (int commit = 0; commit < state.range(0); ++commit) {
    content += "line_of_commit_" + std::to_string(commit) + "\n";
    repo.AddCommit(author, 1000 + commit, "evolve", {{"f.c", content}});
  }
  for (auto _ : state) {
    auto blame = repo.BlameAt("f.c", repo.NumCommits() - 1);
    benchmark::DoNotOptimize(blame.size());
  }
}
BENCHMARK(BM_BlameReplay)->Arg(20)->Arg(100);

// Parses the .vchist text of one calibrated paper application (mysql, scaled
// by the argument in percent) back into a Repository.
void BM_LoadHistory(benchmark::State& state) {
  vc::GeneratedApp app =
      vc::GenerateApp(vc::MysqlProfile().Scaled(static_cast<double>(state.range(0)) / 100.0));
  const std::string text = vc::SaveHistory(app.repo);
  for (auto _ : state) {
    std::string error;
    auto repo = vc::LoadHistory(text, &error);
    benchmark::DoNotOptimize(repo->NumCommits());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_LoadHistory)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
