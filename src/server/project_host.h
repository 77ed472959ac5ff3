// Warm per-project analysis state for the serve daemon (DESIGN.md §19).
//
// A ProjectHost is the daemon-side identity of one client project (a TPC-C
// "warehouse"): an IncrementalEngine kept warm across requests, whose
// persistent project IS the live snapshot, and a ring of the last
// kHistoryRuns analysis summaries that diff/history/report answer from
// without re-running anything. No stage reads history in the repo-less
// sources mode the daemon analyzes in, so the host keeps no repository;
// its state is O(live snapshot + kHistoryRuns summaries).
//
// Equivalence contract (locked by tests/server_test.cc at jobs 1/2/8): an
// analyze response's findings are byte-identical to a batch
// `valuecheck analyze` over the same sources with the same checker set. The
// host analyzes with the batch sources-mode option shape through the
// engine's snapshot entry, itself proven equal to Analysis::RunOnSources.
//
// Request flow per analyze:
//   snapshot == live, same config  -> cached response (no analysis)
//   otherwise                      -> engine AnalyzeSnapshot
//   config key changed             -> engine rebuilt (correctness over
//                                     warmth); it analyzes the snapshot cold
// A response's `commit` is the distinct snapshot's index: 0 for the first,
// +1 whenever a request's snapshot differs from the live one.
//
// Thread safety: all public methods serialize on a per-host mutex, so two
// clients analyzing the same warehouse never interleave engine state; hosts
// for different projects run fully in parallel.

#ifndef VALUECHECK_SRC_SERVER_PROJECT_HOST_H_
#define VALUECHECK_SRC_SERVER_PROJECT_HOST_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/incremental.h"

namespace vc {

// One past analysis, summarized for history/report answers.
struct ProjectRunSummary {
  int64_t commit = -1;        // index of the analyzed snapshot
  int findings = 0;
  bool degraded = false;
  int quarantined = 0;
  int files_changed = 0;
  int functions_dirty = 0;
  int findings_new = 0;
  int findings_fixed = 0;
  double seconds = 0.0;
  std::vector<AnalysisReport::CheckerStat> checker_stats;
};

struct ProjectAnalyzeOutcome {
  AnalysisReport report;
  bool cached = false;       // snapshot + config unchanged; report replayed
  bool rebuilt_engine = false;
  int64_t commit = -1;
  int files_changed = 0;
  int functions_dirty = 0;
  int findings_new = 0;
  int findings_fixed = 0;
};

class ProjectHost {
 public:
  // The summary ring's bound, which is also how many runs History returns.
  static constexpr size_t kHistoryRuns = 16;

  // `base` is the daemon's base configuration; Analyze receives it already
  // folded into each request's options, so the host does not read it.
  ProjectHost(std::string name, AnalysisOptions base);

  const std::string& name() const { return name_; }

  // Runs (or replays) analysis of `sources` under `options`. `options` must
  // already carry the request's checkers/fault/budget/jobs folded into the
  // base; the host only decides engine reuse vs rebuild.
  ProjectAnalyzeOutcome Analyze(
      const std::vector<std::pair<std::string, std::string>>& sources,
      const AnalysisOptions& options);

  // The ring's summaries, newest first.
  std::vector<ProjectRunSummary> History() const;

  // Newest summary; false when the project was never analyzed.
  bool Latest(ProjectRunSummary* out) const;

  // Fingerprint delta between the two newest distinct analyses. False when
  // fewer than two analyses exist.
  bool Diff(std::vector<std::string>* added, std::vector<std::string>* removed) const;

  int64_t engine_rebuilds() const;

 private:
  const std::string name_;
  const AnalysisOptions base_;

  mutable std::mutex mutex_;
  std::unique_ptr<IncrementalEngine> engine_;  // its project is the live snapshot
  std::string engine_key_;        // MakeCacheConfigKey of the live engine
  AnalysisReport last_report_;    // newest analysis, for cached replays and diff
  std::vector<std::string> previous_fingerprints_;  // sorted, the analysis before it
  int64_t snapshot_ = -1;         // index of the live snapshot
  int64_t analyses_ = 0;
  int64_t engine_rebuilds_ = 0;
  std::deque<ProjectRunSummary> history_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SERVER_PROJECT_HOST_H_
