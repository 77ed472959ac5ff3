#include "src/server/project_host.h"

#include <algorithm>
#include <map>
#include <set>

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

ProjectHost::ProjectHost(std::string name, AnalysisOptions base, size_t history_limit)
    : name_(std::move(name)), base_(std::move(base)), history_limit_(history_limit) {}

ProjectAnalyzeOutcome ProjectHost::Analyze(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const AnalysisOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  ProjectAnalyzeOutcome outcome;

  // Snapshot in sorted path order — the same order the batch CLI's directory
  // walk feeds RunOnSources, so slot ids (and with them merge order and CSV
  // bytes) line up between daemon and batch.
  std::map<std::string, std::string> snapshot(sources.begin(), sources.end());

  // Delta against the replica head.
  std::map<std::string, std::string> changed;
  std::set<std::string> deleted;
  for (const std::string& path : repo_.ListFiles()) {
    auto it = snapshot.find(path);
    if (it == snapshot.end()) {
      deleted.insert(path);
    }
  }
  for (const auto& [path, content] : snapshot) {
    const std::string* head = repo_.FindHead(path);
    if (head == nullptr || *head != content) {
      changed[path] = content;
    }
  }
  const bool snapshot_unchanged =
      changed.empty() && deleted.empty() && repo_.NumCommits() > 0;

  const std::string key = MakeCacheConfigKey(options);
  if (snapshot_unchanged && engine_ != nullptr && key == engine_key_ &&
      last_report_ != nullptr) {
    // Identical snapshot under an identical configuration: the previous
    // report IS this request's report (jobs never changes results).
    outcome.report = *last_report_;
    outcome.cached = true;
    outcome.commit = repo_.NumCommits() - 1;
    return outcome;
  }

  if (engine_ == nullptr || key != engine_key_) {
    // A different checker set / budget / fault spec invalidates carried
    // detect results wholesale; rebuild rather than risk stale carry-over.
    // The fresh engine replays the replica's commit history by itself.
    engine_ = std::make_unique<IncrementalEngine>(options);
    engine_key_ = key;
    if (repo_.NumCommits() > 0) {
      ++engine_rebuilds_;
      outcome.rebuilt_engine = true;
    }
  }

  if (!snapshot_unchanged || repo_.NumCommits() == 0) {
    if (serve_author_ == kInvalidAuthor) {
      serve_author_ = repo_.AddAuthor("serve");
    }
    // Deterministic timestamp: the per-project request ordinal, so replica
    // history (and everything derived from it) is reproducible run to run.
    repo_.AddCommit(serve_author_, request_ordinal_,
                    "serve snapshot " + std::to_string(request_ordinal_),
                    std::move(changed), std::move(deleted));
  }
  ++request_ordinal_;

  engine_->set_jobs(options.jobs);
  const CommitId head = static_cast<CommitId>(repo_.NumCommits() - 1);
  IncrementalResult result = engine_->AnalyzeCommit(repo_, head);

  outcome.report = result.report;
  outcome.commit = head;
  outcome.files_changed = result.files_changed;
  outcome.functions_dirty = result.functions_dirty;
  outcome.findings_new = result.findings_new;
  outcome.findings_fixed = result.findings_fixed;

  last_report_ = std::make_shared<AnalysisReport>(result.report);
  ++analyses_;

  ProjectRunSummary summary;
  summary.commit = head;
  summary.request_ordinal = request_ordinal_ - 1;
  summary.findings = static_cast<int>(result.report.findings.size());
  summary.degraded = result.report.degraded;
  summary.quarantined = static_cast<int>(result.report.quarantined.size());
  summary.files_changed = result.files_changed;
  summary.functions_dirty = result.functions_dirty;
  summary.findings_new = result.findings_new;
  summary.findings_fixed = result.findings_fixed;
  summary.seconds = result.seconds;
  summary.fingerprints = SortedFingerprints(result.report);
  summary.checker_stats = result.report.checker_stats;
  history_.push_back(std::move(summary));
  while (history_.size() > history_limit_) {
    history_.pop_front();
  }
  return outcome;
}

std::vector<ProjectRunSummary> ProjectHost::History(size_t limit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ProjectRunSummary> out;
  for (auto it = history_.rbegin(); it != history_.rend() && out.size() < limit; ++it) {
    out.push_back(*it);
  }
  return out;
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
  if (history_.size() < 2) {
    return false;
  }
  const std::vector<std::string>& prev = history_[history_.size() - 2].fingerprints;
  const std::vector<std::string>& now = history_.back().fingerprints;
  added->clear();
  removed->clear();
  std::set_difference(now.begin(), now.end(), prev.begin(), prev.end(),
                      std::back_inserter(*added));
  std::set_difference(prev.begin(), prev.end(), now.begin(), now.end(),
                      std::back_inserter(*removed));
  return true;
}

int64_t ProjectHost::analyses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return analyses_;
}

int64_t ProjectHost::engine_rebuilds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_rebuilds_;
}

}  // namespace vc
