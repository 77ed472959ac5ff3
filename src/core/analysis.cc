#include "src/core/analysis.h"

#include <optional>
#include <set>

#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/core/authorship.h"
#include "src/core/detector.h"
#include "src/core/fingerprint.h"
#include "src/support/events.h"
#include "src/support/logging.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"
#include "src/support/table_writer.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace vc {

namespace {

// Runs `build` as the parse stage of `run`, or of a run of its own.
template <typename Build>
Project ParseStage(const AnalysisOptions& options, PipelineRun* run, Build build) {
  std::optional<PipelineRun> own;
  StageScope stage(run != nullptr ? *run : own.emplace(options.collect_metrics),
                   PipelineStage::kParse);
  return build();
}

}  // namespace

AnalysisReport Analysis::Run(const Project& project, const Repository* repo,
                             PipelineRun* run) const {
  std::optional<PipelineRun> own;
  return RunImpl(project, repo, nullptr,
                 run != nullptr ? *run : own.emplace(options_.collect_metrics));
}

AnalysisReport Analysis::RunWithDetect(const Project& project, const Repository* repo,
                                       CheckerRunResult detect, PipelineRun& run) const {
  return RunImpl(project, repo, &detect, run);
}

AnalysisReport Analysis::RunImpl(const Project& project, const Repository* repo,
                                 CheckerRunResult* precomputed, PipelineRun& run) const {
  const bool collect = run.collect();
  TraceSpan run_span("analysis.run", "pipeline");
  AnalysisReport report;
  report.jobs = ResolveJobs(options_.jobs);
  report.stage.collected = collect;

  report.diagnostic_warnings = project.diags().WarningCount();
  report.diagnostic_errors = project.diags().ErrorCount();

  // Files quarantined during project construction (parse stage) lead the
  // quarantine list; function-level records follow in stage order.
  report.quarantined = project.quarantined();

  // 1. Detection: run every enabled checker over every function (parallel
  // per function; merged in deterministic module/function, then checker
  // registration order). Per-function isolation: a worker that throws, busts
  // the budget, or trips an injected fault quarantines that function (or that
  // checker on that function) alone.
  std::vector<const Checker*> checkers = CheckerRegistry::Global().Resolve(options_.checkers);
  for (const Checker* checker : checkers) {
    report.checkers.push_back(checker->name());
  }
  CheckerRunResult detect;
  if (precomputed != nullptr) {
    // The caller ran (and timed) the detect stage itself.
    detect = std::move(*precomputed);
  } else {
    StageScope stage(run, PipelineStage::kDetect);
    detect = RunCheckers(project, checkers, options_.traits, options_.jobs, &options_.budget,
                         &options_.fault, /*isolate=*/true);
    stage.Count("candidates", static_cast<int64_t>(detect.candidates.size()));
  }
  std::vector<UnusedDefCandidate> candidates = std::move(detect.candidates);
  for (QuarantinedUnit& unit : detect.quarantined) {
    report.quarantined.push_back(std::move(unit));
  }
  for (const CheckerRunResult::PerChecker& pc : detect.per_checker) {
    report.checker_stats.push_back({pc.name, pc.candidates, 0});
  }

  // Sources-mode parity switch: with authorship off, classification, pruning,
  // and ranking all see a null repository, so the run is byte-identical to a
  // repo-less one regardless of what repository the caller holds.
  if (!options_.authorship) {
    repo = nullptr;
  }

  // 2. Classify authorship (cross-scope scenarios of §3.1).
  {
    StageScope stage(run, PipelineStage::kAuthorship);
    AuthorshipAnalyzer authorship(project, repo, kInvalidCommit, options_.jobs);
    authorship.ClassifyAll(candidates);
  }

  // 3. Cross-scope filter: only definitions on developer-interaction
  // boundaries continue (unless the ablation disables the filter).
  std::vector<UnusedDefCandidate> pool;
  {
    StageScope stage(run, PipelineStage::kCrossScopeFilter);
    for (const UnusedDefCandidate& cand : candidates) {
      if (options_.cross_scope_only && !cand.cross_scope) {
        ++report.non_cross_scope;
        continue;
      }
      pool.push_back(cand);
    }
    stage.Count("kept", static_cast<int64_t>(pool.size()));
    stage.Count("dropped", static_cast<int64_t>(report.non_cross_scope));
  }

  // 4. Prune intentional patterns. Peer statistics always use the complete
  // candidate set: whether a value is customarily ignored is a property of
  // the codebase, not of the cross-scope subset.
  {
    StageScope stage(run, PipelineStage::kPrune);
    try {
      report.prune_stats = RunPruning(project, pool, options_.prune, &candidates, repo);
    } catch (const std::exception& e) {
      // Stage-level fallback: a pruning crash degrades to "nothing pruned"
      // (findings become a superset) rather than killing the run.
      report.quarantined.push_back({"", "", "prune", std::string("stage failed: ") + e.what(), ""});
    }
    for (const UnusedDefCandidate& cand : pool) {
      if (cand.pruned_by == PruneReason::kNone) {
        report.findings.push_back(cand);
      }
    }
    stage.Count("survivors", static_cast<int64_t>(report.findings.size()));
  }
  report.raw_candidates = std::move(candidates);

  // 5. Rank by code familiarity.
  RankStats rank_stats;
  {
    StageScope stage(run, PipelineStage::kRank);
    try {
      RankCandidates(report.findings, repo, options_.ranking, &rank_stats);
    } catch (const std::exception& e) {
      // Findings keep their pre-rank (deterministic pool) order.
      report.quarantined.push_back({"", "", "rank", std::string("stage failed: ") + e.what(), ""});
    }
  }

  // Injected prune/rank faults act as a post-stage filter keyed on the
  // finding's function. Crucially the quarantined function's candidates were
  // still part of the peer-statistics universe above, so every surviving
  // finding is byte-identical to the clean run's and the result is a strict
  // subset — the isolation contract the degraded_run oracle checks.
  if (options_.fault.enabled()) {
    std::vector<UnusedDefCandidate> kept;
    std::set<std::string> recorded;
    kept.reserve(report.findings.size());
    for (UnusedDefCandidate& cand : report.findings) {
      const std::string unit = cand.file + ":" + cand.function;
      const char* stage = nullptr;
      if (options_.fault.ShouldFault(fault_sites::kPruneFunction, unit)) {
        stage = "prune";
      } else if (options_.fault.ShouldFault(fault_sites::kRankFunction, unit)) {
        stage = "rank";
      }
      if (stage == nullptr) {
        kept.push_back(std::move(cand));
        continue;
      }
      if (recorded.insert(unit + "#" + stage).second) {
        report.quarantined.push_back({cand.file, cand.function, stage, "injected fault", ""});
        if (collect) {
          MetricsRegistry::Global()
              .GetCounter(std::string("fault.quarantined.") + stage)
              .Add(1);
        }
      }
    }
    report.findings = std::move(kept);
  }

  report.degraded = !report.quarantined.empty();

  // 6. Stamp stable identities for cross-run tracking. Runs over the final
  // finding list (deterministic at any job count), so fingerprints are too.
  // Duplicate-shape ordinals are function-local, so dropping a quarantined
  // function never renumbers another function's fingerprints.
  AssignFingerprints(report.findings);

  report.analysis_seconds = run.ElapsedSeconds();
  report.stage_seconds = run.seconds;

  for (const UnusedDefCandidate& cand : report.findings) {
    for (AnalysisReport::CheckerStat& stat : report.checker_stats) {
      if (stat.name == cand.checker) {
        ++stat.findings;
        break;
      }
    }
  }

  if (RunEventsEnabled()) {
    for (const QuarantinedUnit& unit : report.quarantined) {
      RunEvent("quarantine")
          .Str("file", unit.path)
          .Str("function", unit.function)
          .Str("stage", unit.stage)
          .Str("checker", unit.checker)
          .Emit();
    }
  }

  if (collect) {
    MemoryStats& mem = report.memory;
    mem.collected = true;
    Project::FileMemory parse_mem = project.ParseMemoryTotal();
    mem.categories[static_cast<int>(MemCategory::kAstNodes)] = parse_mem.ast;
    mem.categories[static_cast<int>(MemCategory::kIrInstructions)] = parse_mem.ir;
    mem.categories[static_cast<int>(MemCategory::kInternedStrings)] = parse_mem.strings;
    mem.categories[static_cast<int>(MemCategory::kPointsToSets)] = {
        detect.points_to_bytes, detect.points_to_entries};
    MemoryTracker& tracker = MemoryTracker::Global();
    tracker.SampleRss();
    mem.peak_rss_bytes = tracker.peak_rss_bytes();
    // Only parse and detect materialize tracked categories; the later stages
    // annotate or filter existing candidates, so their delta is zero. RSS is
    // each stage's own end-of-stage sample (0 for a stage this run skipped).
    uint64_t tracked = 0;
    for (PipelineStage s : kPipelineStages) {
      const uint64_t delta = s == PipelineStage::kParse    ? parse_mem.TotalBytes()
                             : s == PipelineStage::kDetect ? detect.points_to_bytes
                                                           : 0;
      tracked += delta;
      mem.stages.push_back({PipelineStageName(s), delta, tracked, run.peak_rss_bytes[s]});
    }
    tracker.PublishRegistryGauges();

    StageMetrics& stage = report.stage;
    stage.files_parsed = project.unit_order().size();
    for (size_t i : project.unit_order()) {
      stage.functions_analyzed += project.modules()[i]->functions.size();
    }
    stage.candidates_detected = report.raw_candidates.size();
    stage.rank_scored = rank_stats.scored;
    stage.rank_unknown = rank_stats.unknown;
    stage.rank_model_seconds = rank_stats.model_seconds;
    stage.pool = run.PoolDelta();
    if (LogEnabled(LogLevel::kDebug)) {
      VC_LOG_DEBUG("pipeline: " + std::to_string(stage.candidates_detected) +
                   " candidate(s) across " + std::to_string(stage.functions_analyzed) +
                   " function(s); " + std::to_string(report.findings.size()) +
                   " finding(s) after filter+prune");
    }
  }
  return report;
}

AnalysisReport Analysis::RunOwned(PipelineRun& run, Project project,
                                  const Repository* repo) const {
  auto owned = std::make_shared<Project>(std::move(project));
  AnalysisReport report = RunImpl(*owned, repo, nullptr, run);
  report.owned_project = std::move(owned);
  return report;
}

AnalysisReport Analysis::RunOnRepository(const Repository& repo) const {
  PipelineRun run(options_.collect_metrics);
  return RunOwned(run, BuildFromRepository(repo, &run), &repo);
}

AnalysisReport Analysis::RunOnSources(
    const std::vector<std::pair<std::string, std::string>>& files) const {
  PipelineRun run(options_.collect_metrics);
  return RunOwned(run, BuildFromSources(files, &run), nullptr);
}

Project Analysis::BuildFromRepository(const Repository& repo, PipelineRun* run) const {
  return ParseStage(options_, run, [&] {
    return Project::FromRepository(repo, options_.config, options_.jobs, &options_.fault,
                                   &options_.budget);
  });
}

Project Analysis::BuildFromSources(const std::vector<std::pair<std::string, std::string>>& files,
                                   PipelineRun* run) const {
  return ParseStage(options_, run, [&] {
    return Project::FromSources(files, options_.config, options_.jobs, &options_.fault,
                                &options_.budget);
  });
}

std::string AnalysisReport::ToCsv() const {
  TableWriter table({"file", "line", "function", "slot", "kind", "familiarity"});
  for (const UnusedDefCandidate& cand : findings) {
    table.AddRow({cand.file, std::to_string(cand.def_loc.line), cand.function, cand.slot_name,
                  CandidateKindName(cand.kind), FormatDouble(cand.familiarity, 3)});
  }
  return table.RenderCsv();
}

}  // namespace vc
