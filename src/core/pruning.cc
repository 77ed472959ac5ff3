#include "src/core/pruning.h"

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>
#include <memory>
#include <set>
#include <string>

#include "src/pointer/andersen.h"
#include "src/pointer/value_flow.h"
#include "src/support/metrics.h"
#include "src/support/string_util.h"
#include "src/support/trace.h"
#include "src/vcs/repository.h"

namespace vc {

namespace {

// --- Pattern 1: configuration dependency -----------------------------------

bool MatchesConfigDependency(const Project& project, const UnusedDefCandidate& cand) {
  if (cand.var == nullptr) {
    return false;  // synthetic temps have no named uses to guard
  }
  const FunctionInfo* info = project.FindFunction(cand.function);
  if (info == nullptr || info->def_decl == nullptr) {
    return false;
  }
  FileId file = cand.def_loc.file;
  if (info->def_file != file) {
    return false;
  }
  const SourceRange& range = info->def_decl->range;
  const PreprocessResult& pp = project.preprocessing(file);
  const SourceManager& sm = project.sources();
  for (const CondRegion& region : pp.regions) {
    // Region must overlap the function body.
    if (region.end_line < range.begin.line || region.begin_line > range.end.line) {
      continue;
    }
    for (int line = region.begin_line + 1; line < region.end_line; ++line) {
      if (line == cand.def_loc.line) {
        continue;  // the definition itself does not count as a use
      }
      if (ContainsWord(sm.Line(file, line), cand.var->name)) {
        return true;
      }
    }
  }
  return false;
}

// --- Pattern 2: cursor ------------------------------------------------------

class CursorMatcher {
 public:
  bool Matches(const UnusedDefCandidate& cand) {
    if (!cand.is_increment || cand.ir_func == nullptr || cand.slot == kInvalidSlot) {
      return false;
    }
    const ValueFlowGraph& vfg = GraphFor(*cand.ir_func);
    // "Incremented repeatedly by the same constant": at least two increment
    // definitions of this slot with the candidate's step.
    return vfg.NumIncrementDefs(cand.slot, cand.increment_amount) >= 2;
  }

 private:
  const ValueFlowGraph& GraphFor(const IrFunction& func) {
    auto it = cache_.find(&func);
    if (it == cache_.end()) {
      auto pts = std::make_unique<PointsTo>(func);
      auto vfg = std::make_unique<ValueFlowGraph>(func, *pts);
      it = cache_.emplace(&func, std::move(vfg)).first;
      points_to_.push_back(std::move(pts));
    }
    return *it->second;
  }

  std::map<const IrFunction*, std::unique_ptr<ValueFlowGraph>> cache_;
  std::vector<std::unique_ptr<PointsTo>> points_to_;
};

// --- Pattern 3: unused hints ------------------------------------------------

bool MatchesUnusedHint(const Project& project, const UnusedDefCandidate& cand) {
  if (cand.var != nullptr && cand.var->has_unused_attr) {
    return true;
  }
  const SourceManager& sm = project.sources();
  // Keyword match on the definition line (covers trailing comments) and on
  // the declaration line of the variable.
  if (cand.def_loc.IsValid() &&
      ContainsIgnoreCase(sm.Line(cand.def_loc.file, cand.def_loc.line), "unused")) {
    return true;
  }
  if (cand.var != nullptr && cand.var->loc.IsValid() &&
      ContainsIgnoreCase(sm.Line(cand.var->loc.file, cand.var->loc.line), "unused")) {
    return true;
  }
  return false;
}

// --- Extension pattern: stale code (paper §9.1 future work) -----------------

// The commit that introduced the definition marks it as debugging, legacy, or
// deprecated code — or the whole containing function has not been touched for
// `stale_days` and the definition line itself carries a debug marker.
class StaleCodeMatcher {
 public:
  StaleCodeMatcher(const Project& project, const Repository* repo, const PruneOptions& options)
      : project_(project), repo_(repo), options_(options) {
    if (repo_ != nullptr) {
      now_ = options.now_timestamp;
      if (now_ == 0) {
        for (CommitId id = 0; id < repo_->NumCommits(); ++id) {
          now_ = std::max(now_, repo_->GetCommit(id).timestamp);
        }
      }
    }
  }

  bool Matches(const UnusedDefCandidate& cand) const {
    if (repo_ == nullptr || !cand.def_loc.IsValid()) {
      return false;
    }
    const std::string& path = project_.sources().Path(cand.def_loc.file);
    const std::vector<LineOrigin>& blame = repo_->Blame(path);
    int index = cand.def_loc.line - 1;
    if (index < 0 || index >= static_cast<int>(blame.size())) {
      return false;
    }
    const Commit& commit = repo_->GetCommit(blame[index].commit);
    for (const char* marker : {"debug", "deprecated", "legacy"}) {
      if (ContainsIgnoreCase(commit.message, marker)) {
        return true;
      }
    }
    // Untouched-function rule: every line of the containing function is older
    // than the staleness horizon AND the definition line mentions debugging.
    const FunctionInfo* info = project_.FindFunction(cand.function);
    if (info == nullptr || info->def_decl == nullptr ||
        info->def_file != cand.def_loc.file) {
      return false;
    }
    if (!ContainsIgnoreCase(project_.sources().Line(cand.def_loc.file, cand.def_loc.line),
                            "debug")) {
      return false;
    }
    int64_t horizon = now_ - static_cast<int64_t>(options_.stale_days) * 86400;
    const SourceRange& range = info->def_decl->range;
    for (int line = range.begin.line; line <= range.end.line; ++line) {
      int i = line - 1;
      if (i < 0 || i >= static_cast<int>(blame.size())) {
        continue;
      }
      if (repo_->GetCommit(blame[i].commit).timestamp > horizon) {
        return false;  // someone touched the function recently
      }
    }
    return true;
  }

 private:
  const Project& project_;
  const Repository* repo_;
  const PruneOptions& options_;
  int64_t now_ = 0;
};

// --- Pattern 4: peer definitions --------------------------------------------

struct PeerKey {
  bool operator<(const PeerKey& other) const {
    if (is_param != other.is_param) {
      return is_param < other.is_param;
    }
    if (group != other.group) {
      return group < other.group;
    }
    return index < other.index;
  }
  bool is_param = false;
  std::string group;  // callee name, or signature string for parameters
  int index = 0;      // parameter index (0 for return values)
};

std::string SignatureOf(const FunctionDecl* decl) {
  // The full signature — return type included — defines the peer group.
  std::string sig = decl->return_type != nullptr ? decl->return_type->ToString() : "?";
  sig += "(";
  for (const VarDecl* param : decl->params) {
    sig += param->type != nullptr ? param->type->ToString() : "?";
    sig += ",";
  }
  return sig + ")";
}

class PeerMatcher {
 public:
  PeerMatcher(const Project& project, const std::vector<UnusedDefCandidate>& all,
              const PruneOptions& options)
      : options_(options) {
    // Return values: a call site is "unused" when its result is ignored at
    // the call or when the variable it was assigned to is itself an unused
    // definition (the pre-pruning candidate set tells us the latter).
    // Assigned-but-unused call results are matched to their call sites by
    // (callee, file, line): the store and the call share a line but not a
    // column.
    std::set<std::tuple<std::string, FileId, int>> unused_assigned;
    std::set<std::pair<std::string, int>> unused_params;  // (function, index)
    for (const UnusedDefCandidate& cand : all) {
      if (cand.checker != "unused-def") {
        continue;  // peer statistics are defined over unused definitions only
      }
      if (cand.is_param && cand.var != nullptr) {
        unused_params.insert({cand.function, cand.var->param_index});
      } else if (!cand.callee_name.empty() && !cand.is_synthetic) {
        unused_assigned.insert(
            {cand.callee_name, cand.def_loc.file, cand.def_loc.line});
      }
    }

    for (const auto& [name, info] : project.function_index()) {
      PeerKey key{false, name, 0};
      PeerStats& stats = groups_[key];
      for (const CallSite& site : info.call_sites) {
        ++stats.total;
        if (!site.result_assigned ||
            unused_assigned.count({name, site.loc.file, site.loc.line}) > 0) {
          ++stats.unused;
        }
      }
    }

    // Parameters: peers are the same position of functions with identical
    // signatures.
    std::map<std::string, std::vector<const FunctionDecl*>> by_signature;
    for (const auto& [name, info] : project.function_index()) {
      if (info.def_decl != nullptr) {
        by_signature[SignatureOf(info.def_decl)].push_back(info.def_decl);
      }
    }
    for (const auto& [sig, funcs] : by_signature) {
      for (size_t index = 0; index < funcs.front()->params.size(); ++index) {
        PeerKey key{true, sig, static_cast<int>(index)};
        PeerStats& stats = groups_[key];
        for (const FunctionDecl* func : funcs) {
          if (index >= func->params.size()) {
            continue;
          }
          ++stats.total;
          if (unused_params.count({func->name, static_cast<int>(index)}) > 0) {
            ++stats.unused;
          }
        }
      }
    }
  }

  bool Matches(const UnusedDefCandidate& cand, const Project& project) const {
    PeerKey key;
    if (cand.is_param && cand.var != nullptr) {
      const FunctionInfo* info = project.FindFunction(cand.function);
      if (info == nullptr || info->def_decl == nullptr) {
        return false;
      }
      key = {true, SignatureOf(info->def_decl), cand.var->param_index};
    } else if (!cand.callee_name.empty()) {
      key = {false, cand.callee_name, 0};
    } else {
      return false;
    }
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      return false;
    }
    const PeerStats& stats = it->second;
    return stats.total > options_.peer_min_occurrences &&
           static_cast<double>(stats.unused) >
               options_.peer_unused_fraction * static_cast<double>(stats.total);
  }

 private:
  struct PeerStats {
    int total = 0;
    int unused = 0;
  };
  std::map<PeerKey, PeerStats> groups_;
  PruneOptions options_;
};

}  // namespace

PruneStats RunPruning(const Project& project, std::vector<UnusedDefCandidate>& candidates,
                      const PruneOptions& options,
                      const std::vector<UnusedDefCandidate>* peer_universe,
                      const Repository* repo) {
  PruneStats stats;
  stats.original = static_cast<int>(candidates.size());

  CursorMatcher cursor;
  StaleCodeMatcher stale(project, repo, options);
  std::unique_ptr<PeerMatcher> peers;
  {
    TraceSpan span("prune.peer_stats", "pipeline");
    peers = std::make_unique<PeerMatcher>(
        project, peer_universe != nullptr ? *peer_universe : candidates, options);
  }

  // The patterns in pipeline order, each with its switch, verdict and
  // counters; a candidate is charged to the first pattern that matches.
  struct Pattern {
    bool enabled;
    PruneReason reason;
    int* tested;
    int* pruned;
    std::function<bool(const UnusedDefCandidate&)> matches;
  };
  const Pattern patterns[] = {
      {options.config_dependency, PruneReason::kConfigDependency, &stats.config_tested,
       &stats.config_dependency,
       [&](const UnusedDefCandidate& c) { return MatchesConfigDependency(project, c); }},
      {options.cursor, PruneReason::kCursor, &stats.cursor_tested, &stats.cursor,
       [&](const UnusedDefCandidate& c) { return cursor.Matches(c); }},
      {options.unused_hints, PruneReason::kUnusedHint, &stats.hints_tested, &stats.unused_hints,
       [&](const UnusedDefCandidate& c) { return MatchesUnusedHint(project, c); }},
      {options.peer_definition, PruneReason::kPeerDefinition, &stats.peer_tested,
       &stats.peer_definition,
       [&](const UnusedDefCandidate& c) { return peers->Matches(c, project); }},
      {options.stale_code, PruneReason::kStaleCode, &stats.stale_tested, &stats.stale_code,
       [&](const UnusedDefCandidate& c) { return stale.Matches(c); }},
  };

  TraceSpan span("prune.match", "pipeline");
  span.Arg("candidates", static_cast<int64_t>(candidates.size()));
  for (UnusedDefCandidate& cand : candidates) {
    if (cand.pruned_by != PruneReason::kNone) {
      continue;
    }
    if (cand.checker != "unused-def") {
      // The §5 patterns model intentional *unused definitions* (cursor loops,
      // config-guarded uses, customarily-ignored values); other checkers'
      // findings pass through unpruned — keeping a checker's findings
      // identical whether it runs alone or alongside others.
      continue;
    }
    for (const Pattern& pattern : patterns) {
      if (!pattern.enabled) {
        continue;
      }
      ++*pattern.tested;
      if (pattern.matches(cand)) {
        cand.pruned_by = pattern.reason;
        ++*pattern.pruned;
        break;
      }
    }
  }
  stats.remaining = stats.original - stats.TotalPruned();

  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    for (const LedgerPrunePattern& pattern : stats.Patterns()) {
      registry.GetCounter(std::string("prune.") + pattern.name + ".tested")
          .Add(static_cast<uint64_t>(pattern.tested));
      registry.GetCounter(std::string("prune.") + pattern.name + ".pruned")
          .Add(static_cast<uint64_t>(pattern.pruned));
    }
  }
  return stats;
}

}  // namespace vc
