// The incremental re-analysis engine (DESIGN.md §18).
//
// An IncrementalEngine keeps one project warm and, after each sync, produces
// the COMPLETE analysis report — byte-identical (findings, fingerprints,
// order, quarantine records) to a full run. Two entry points share one sync
// core, and an engine is fed through one of them only: AnalyzeCommit
// consumes a repository's commits in order and equals
// Analysis::RunOnRepository over Repository::PrefixCopy(commit);
// AnalyzeSnapshot takes the whole project as (path, content) pairs and
// equals Analysis::RunOnSources over the path-sorted snapshot. The
// differential test battery (tests/incremental_equivalence_test.cc, the
// incremental_equivalence fuzz oracle) holds both to exactly that.
//
// Equivalence is by construction, not by patching:
//
//  * The commit entry owns a growing Repository replica fed commit-by-commit,
//    so blame, authorship, stale-code matching, and ranking familiarity all
//    see a repository whose head IS the analyzed commit — the same view a
//    full run over the prefix copy sees. Head blame advances through
//    resumable per-path replay states (O(commit delta), byte-identical to
//    replay). The snapshot entry keeps no repository and passes none
//    downstream, as a sources-mode run does.
//  * A persistent Project recompiles only files whose content hash changed;
//    an unchanged file's parsed TU and lowered IR are never rebuilt, and its
//    slot (FileId) is stable, so carried results keep valid locations.
//  * Checkers re-run only on the sync's dirty slice: changed functions
//    plus callers, callees, and alias-affected functions (src/core/dep_graph.h).
//    Every other function's detect output is carried from the AnalysisCache
//    (memory tier always; a --cache-dir disk tier persists across processes).
//    A checker with function_local() == false disables carry-over entirely.
//  * Every stage after detection (authorship, cross-scope filter, pruning
//    with its GLOBAL peer statistics, ranking, fingerprints) re-runs each
//    sync over the complete assembled candidate set, through the same
//    Analysis::RunWithDetect code path a full run uses.

#ifndef VALUECHECK_SRC_CORE_INCREMENTAL_H_
#define VALUECHECK_SRC_CORE_INCREMENTAL_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/analysis_cache.h"
#include "src/core/project.h"
#include "src/vcs/repository.h"

namespace vc {

struct IncrementalOptions {
  // Disk tier for the analysis cache; empty keeps the cache in memory only.
  std::string cache_dir;
};

// Result of one incremental sync.
struct IncrementalResult {
  // The complete report after the sync — equivalent to a full run over the
  // repository truncated at `commit`, or over the snapshot.
  AnalysisReport report;
  CommitId commit = kInvalidCommit;  // unset by the snapshot entry
  // Work actually performed for this sync.
  int files_changed = 0;     // paths the commits touched or the snapshot
                             // changed (incl. deletes)
  int files_reparsed = 0;    // content-hash misses among them (recompiled)
  int functions_dirty = 0;   // functions re-run through the checkers
  int functions_total = 0;   // live functions at the commit
  // Fingerprint-keyed delta against the previous sync.
  int findings_carried = 0;  // same fingerprint as before
  int findings_new = 0;
  int findings_fixed = 0;    // present before, gone now
  // Cumulative engine cache telemetry (also published as cache.* metrics).
  CacheStats cache;
  double seconds = 0.0;      // this sync, end to end

  // Convenience accessor kept for callers that only consume findings.
  const std::vector<UnusedDefCandidate>& findings() const { return report.findings; }
};

class IncrementalEngine {
 public:
  using Sources = std::vector<std::pair<std::string, std::string>>;

  explicit IncrementalEngine(AnalysisOptions options, IncrementalOptions inc = {});

  // Feeds the replica through `commit` (replaying any skipped predecessors;
  // commits must come in id order) and produces the complete report at that
  // commit.
  IncrementalResult AnalyzeCommit(const Repository& source, CommitId commit);

  // Makes `sources` (distinct paths, any order; a repeat throws
  // std::invalid_argument) the live project and produces its complete report.
  IncrementalResult AnalyzeSnapshot(const Sources& sources);

  // True when `sources` is byte for byte the live project.
  bool IsLiveSnapshot(const Sources& sources) const { return SnapshotChanges(sources).empty(); }

  const AnalysisOptions& options() const { return analysis_.options(); }
  const CacheStats& cache_stats() const { return cache_.stats(); }

  // Adjusts worker parallelism between syncs. Jobs is deliberately absent
  // from MakeCacheConfigKey — findings are byte-identical at any job count —
  // so the daemon can honor a per-request `jobs` without invalidating the
  // warm cache or rebuilding the engine.
  void set_jobs(int jobs) { analysis_.options().jobs = jobs; }

 private:
  // One path to sync: its new content, or null for a deletion.
  using PathChange = std::pair<std::string, const std::string*>;

  // Path-sorted changes that turn the live project into `sources`: every
  // path whose content differs byte for byte, and every live path it lacks.
  std::vector<PathChange> SnapshotChanges(const Sources& sources) const;

  // The one sync core: applies path-sorted `changes` to the persistent
  // project, carries or re-detects every function, and runs the post-detect
  // stages against `repo` (null: no history, as in sources mode).
  IncrementalResult Sync(const std::vector<PathChange>& changes, const Repository* repo,
                         PipelineRun& run);

  Analysis analysis_;
  Repository repo_;    // commit entry's replica; head == last analyzed commit
  Project project_;    // persistent, mutated in place per sync
  AnalysisCache cache_;
  // Function names per live path as of the last analysis (the "old names"
  // half of the changed set when a file recompiles or disappears).
  std::map<std::string, std::vector<std::string>> file_functions_;
  // Fingerprints of the previous report's findings (carried/new/fixed delta).
  std::set<std::string> prev_fingerprints_;
};

// Canonical configuration key for the cache: folds in everything besides
// file content that invalidates cached detect results — preprocessor macros,
// the resolved checker list, project traits, budget and fault settings, and
// the cache schema version. Exposed for the stale-key tests.
std::string MakeCacheConfigKey(const AnalysisOptions& options);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_INCREMENTAL_H_
