#include "src/server/project_host.h"

#include <algorithm>
#include <iterator>

namespace vc {

namespace {

// Fingerprints of a report's findings, sorted so set differences are
// deterministic regardless of ranking order.
std::vector<std::string> SortedFingerprints(const AnalysisReport& report) {
  std::vector<std::string> prints;
  prints.reserve(report.findings.size());
  for (const UnusedDefCandidate& finding : report.findings) {
    prints.push_back(finding.fingerprint);
  }
  std::sort(prints.begin(), prints.end());
  return prints;
}

}  // namespace

ProjectHost::ProjectHost(std::string name, AnalysisOptions base)
    : name_(std::move(name)), base_(std::move(base)) {}

ProjectAnalyzeOutcome ProjectHost::Analyze(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const AnalysisOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  ProjectAnalyzeOutcome outcome;

  const std::string key = MakeCacheConfigKey(options);
  const bool same_snapshot = engine_ != nullptr && engine_->IsLiveSnapshot(sources);
  if (same_snapshot && key == engine_key_) {
    // Identical snapshot under an identical configuration: the previous
    // report IS this request's report (jobs never changes results).
    outcome.report = last_report_;
    outcome.cached = true;
    outcome.commit = snapshot_;
    return outcome;
  }
  if (!same_snapshot) {
    ++snapshot_;
  }

  if (engine_ == nullptr || key != engine_key_) {
    // A different checker set / budget / fault spec invalidates carried
    // detect results wholesale; rebuild rather than risk stale carry-over.
    // The fresh engine analyzes the request's snapshot cold.
    outcome.rebuilt_engine = engine_ != nullptr;
    engine_rebuilds_ += outcome.rebuilt_engine ? 1 : 0;
    engine_ = std::make_unique<IncrementalEngine>(options);
    engine_key_ = key;
  }

  engine_->set_jobs(options.jobs);
  IncrementalResult result;
  try {
    result = engine_->AnalyzeSnapshot(sources);
  } catch (...) {
    // A sync that threw may have left the project half-updated: the next
    // request starts from a fresh engine.
    engine_.reset();
    throw;
  }

  outcome.commit = snapshot_;
  outcome.files_changed = result.files_changed;
  outcome.functions_dirty = result.functions_dirty;
  outcome.findings_new = result.findings_new;
  outcome.findings_fixed = result.findings_fixed;

  previous_fingerprints_ = SortedFingerprints(last_report_);
  last_report_ = std::move(result.report);
  outcome.report = last_report_;
  ++analyses_;

  ProjectRunSummary summary;
  summary.commit = snapshot_;
  summary.findings = static_cast<int>(last_report_.findings.size());
  summary.degraded = last_report_.degraded;
  summary.quarantined = static_cast<int>(last_report_.quarantined.size());
  summary.files_changed = result.files_changed;
  summary.functions_dirty = result.functions_dirty;
  summary.findings_new = result.findings_new;
  summary.findings_fixed = result.findings_fixed;
  summary.seconds = result.seconds;
  summary.checker_stats = last_report_.checker_stats;
  history_.push_back(std::move(summary));
  if (history_.size() > kHistoryRuns) {
    history_.pop_front();
  }
  return outcome;
}

std::vector<ProjectRunSummary> ProjectHost::History() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {history_.rbegin(), history_.rend()};
}

bool ProjectHost::Latest(ProjectRunSummary* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (history_.empty()) {
    return false;
  }
  *out = history_.back();
  return true;
}

bool ProjectHost::Diff(std::vector<std::string>* added,
                       std::vector<std::string>* removed) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (analyses_ < 2) {
    return false;
  }
  const std::vector<std::string>& prev = previous_fingerprints_;
  const std::vector<std::string> now = SortedFingerprints(last_report_);
  added->clear();
  removed->clear();
  std::set_difference(now.begin(), now.end(), prev.begin(), prev.end(),
                      std::back_inserter(*added));
  std::set_difference(prev.begin(), prev.end(), now.begin(), now.end(),
                      std::back_inserter(*removed));
  return true;
}

int64_t ProjectHost::engine_rebuilds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_rebuilds_;
}

}  // namespace vc
