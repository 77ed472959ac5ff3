#include "src/testing/oracle.h"

#include <algorithm>
#include <map>

#include "src/core/incremental.h"
#include "src/core/report_formats.h"
#include "src/dataflow/solver.h"
#include "src/support/json_reader.h"

namespace vc {
namespace testing {

namespace {

void AppendCandidate(std::string& out, const UnusedDefCandidate& cand) {
  out += cand.checker;
  out += ':';
  out += cand.fingerprint;
  out += '|';
  out += cand.file;
  out += ':';
  out += std::to_string(cand.def_loc.line);
  out += ':';
  out += std::to_string(cand.def_loc.column);
  out += '|';
  out += cand.function;
  out += '|';
  out += cand.slot_name;
  out += '|';
  out += CandidateKindName(cand.kind);
  out += '|';
  out += cand.cross_scope ? "x" : "-";
  out += cand.is_param ? "p" : "-";
  out += cand.is_synthetic ? "s" : "-";
  out += cand.is_field_slot ? "f" : "-";
  out += cand.overwritten ? "o" : "-";
  out += '|';
  out += cand.callee_name;
  out += '|';
  for (const SourceLoc& loc : cand.overwriter_locs) {
    out += std::to_string(loc.line);
    out += ',';
  }
  out += '|';
  out += PruneReasonName(cand.pruned_by);
  out += '|';
  out += std::to_string(cand.familiarity);
  out += '\n';
}

// The degraded_run oracle's analysis configuration. Peer-definition pruning
// consults corpus-global occurrence statistics, so legitimately quarantining
// one unit can flip another unit's verdict; it is disabled in both the clean
// and the faulted run so subset-equality of fingerprints holds by
// construction (every other prune pattern is function- or file-local).
AnalysisReport AnalyzeForDegraded(const TestProgram& program, int jobs, uint64_t seed,
                                  double rate, bool inject,
                                  const std::vector<std::string>& checkers) {
  AnalysisOptions options;
  options.checkers = checkers;
  options.cross_scope_only = false;
  options.jobs = jobs;
  options.prune.peer_definition = false;
  if (inject) {
    options.fault = FaultInjector(seed, rate);
  }
  return Analysis(options).RunOnSources(program.ToSources());
}

// Deterministic one-line-per-unit rendering of the quarantine list, compared
// byte for byte across job counts.
std::string SerializeQuarantine(const AnalysisReport& report) {
  std::string out;
  for (const QuarantinedUnit& unit : report.quarantined) {
    out += unit.path;
    out += '|';
    out += unit.function;
    out += '|';
    out += unit.stage;
    out += '|';
    out += unit.reason;
    out += '|';
    out += unit.checker;
    out += '\n';
  }
  return out;
}

std::string JoinFingerprints(const std::set<std::string>& set) {
  std::string out;
  for (const std::string& fp : set) {
    if (!out.empty()) {
      out += ",";
    }
    out += fp;
  }
  return out;
}

// Program points: (block, index) is the point before instruction `index` of
// `block`; index == insts.size() is the block's end.
using Point = std::pair<BlockId, size_t>;

// Visits every point that some CFG path connects with one of `targets`
// without crossing an instruction that `stops(block, index)` holds for:
// breadth-first over points, with the flow for kForward (the points the
// targets reach) and against it for kBackward (the points reaching them).
template <Direction kDir, typename StopFn, typename VisitFn>
void ForEachConnectedPoint(const IrFunction& func, const std::vector<Point>& targets,
                           StopFn stops, VisitFn visit) {
  std::vector<std::vector<bool>> seen(func.blocks.size());
  for (const auto& block : func.blocks) {
    seen[block->id].assign(block->insts.size() + 1, false);
  }
  std::vector<Point> queue;
  auto reach = [&](BlockId b, size_t i) {
    if (!seen[b][i]) {
      seen[b][i] = true;
      queue.push_back({b, i});
      visit(b, i);
    }
  };
  for (const auto& [b, i] : targets) {
    reach(b, i);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const auto [b, i] = queue[head];
    const BasicBlock& block = *func.blocks[b];
    if constexpr (kDir == Direction::kForward) {
      if (i < block.insts.size()) {
        if (!stops(b, i)) {
          reach(b, i + 1);
        }
        continue;
      }
      for (BlockId succ : block.succs) {
        reach(succ, 0);
      }
    } else {
      if (i > 0) {
        if (!stops(b, i - 1)) {
          reach(b, i - 1);
        }
        continue;
      }
      for (BlockId pred : block.preds) {
        reach(pred, func.blocks[pred]->insts.size());
      }
    }
  }
}

// Calls fn(block, index, inst) for every instruction of `func`.
template <typename Fn>
void ForEachInstruction(const IrFunction& func, Fn fn) {
  for (const auto& block : func.blocks) {
    for (size_t i = 0; i < block->insts.size(); ++i) {
      fn(block->id, i, block->insts[i]);
    }
  }
}

// `slot`, plus its field slots when it is a struct variable's whole slot: a
// whole-struct load or store reads or writes every field. Found by scanning
// the slot table, independently of SlotLayout.
std::set<SlotId> SlotAndFields(const IrFunction& func, SlotId slot) {
  std::set<SlotId> slots = {slot};
  const Slot& whole = func.slots[slot];
  if (whole.var == nullptr || whole.IsFieldSlot() || whole.var->type == nullptr ||
      !whole.var->type->IsStruct()) {
    return slots;
  }
  for (SlotId other = 0; other < func.slots.size(); ++other) {
    if (func.slots[other].var == whole.var && func.slots[other].IsFieldSlot()) {
      slots.insert(other);
    }
  }
  return slots;
}

// The entry point of every block without predecessors, where the paths of a
// forward must analysis start.
std::vector<Point> Starts(const IrFunction& func) {
  std::vector<Point> starts;
  for (const auto& block : func.blocks) {
    if (block->preds.empty()) {
      starts.push_back({block->id, 0});
    }
  }
  return starts;
}

using PlainDefines = std::map<SlotId, std::set<SourceLoc>>;
using PlainPending = std::set<std::pair<SlotId, SourceLoc>>;

std::set<SlotId> Materialize(const SlotSet& slots) {
  std::set<SlotId> out;
  slots.ForEach([&](int id) { out.insert(id); });
  return out;
}

PlainDefines MaterializeDefines(const SlotLayout& layout, const DefineMap& defs) {
  PlainDefines out;
  for (SlotId s = 0; s < layout.num_slots(); ++s) {
    for (const SourceLoc& loc : layout.StoreLocs(defs, s)) {
      out[s].insert(loc);
    }
  }
  return out;
}

PlainPending MaterializePending(const SlotLayout& layout, const SlotSet& pending) {
  PlainPending out;
  for (SlotId s = 0; s < layout.num_slots(); ++s) {
    for (const SourceLoc& loc : layout.StoreLocs(pending, s)) {
      out.insert({s, loc});
    }
  }
  return out;
}

std::string Disagreement(const char* fact, const IrFunction& func, BlockId b, size_t index) {
  return std::string(fact) + " of " + func.name + " disagree with path search at block " +
         std::to_string(b) + " point " + std::to_string(index) + "/" +
         std::to_string(func.blocks[b]->insts.size());
}

}  // namespace

std::string CheckDataflowFacts(const SlotLayout& layout, const LivenessResult& liveness,
                               const DefineSetResult& defines) {
  const IrFunction& func = layout.func();
  // The facts by path search, slot by slot, in plain sets: s is live where a
  // path reaches a use of s (a load or address-take of s or of its struct)
  // before a store that kills it; s's DefineSet holds each store of s from
  // the points whose paths reach it before any other store of s.
  struct Facts {
    std::set<SlotId> live;
    PlainDefines defs;
  };
  std::vector<std::vector<Facts>> paths(func.blocks.size());
  for (const auto& block : func.blocks) {
    paths[block->id].resize(block->insts.size() + 1);
  }
  std::map<SlotId, std::vector<Point>> uses;
  std::map<SlotId, std::vector<Point>> stores;
  std::set<std::pair<Point, SlotId>> kills;
  ForEachInstruction(func, [&](BlockId b, size_t i, const Instruction& inst) {
    if (inst.op == Opcode::kLoad || inst.op == Opcode::kAddrSlot) {
      for (SlotId s : SlotAndFields(func, inst.slot)) {
        uses[s].push_back({b, i});
      }
    } else if (inst.op == Opcode::kStore) {
      for (SlotId s : SlotAndFields(func, inst.slot)) {
        kills.insert({{b, i}, s});
      }
      stores[inst.slot].push_back({b, i});
    }
  });
  for (const auto& [s, points] : uses) {
    ForEachConnectedPoint<Direction::kBackward>(
        func, points, [&](BlockId b, size_t i) { return kills.count({{b, i}, s}) > 0; },
        [&](BlockId b, size_t i) { paths[b][i].live.insert(s); });
  }
  for (const auto& [s, points] : stores) {
    const std::set<Point> defining(points.begin(), points.end());
    for (const Point& store : points) {
      const SourceLoc loc = func.blocks[store.first]->insts[store.second].loc;
      ForEachConnectedPoint<Direction::kBackward>(
          func, {store}, [&](BlockId b, size_t i) { return defining.count({b, i}) > 0; },
          [&](BlockId b, size_t i) { paths[b][i].defs[s].insert(loc); });
    }
  }

  // The solver's facts: block boundaries from the results, the points inside
  // a block from the replay the detector uses, each materialized into the
  // plain sets.
  std::string failure;
  auto compare = [&](BlockId b, size_t index, const SlotSet& live, const DefineMap& defs) {
    if (!failure.empty()) {
      return;
    }
    const Facts& path = paths[b][index];
    if (Materialize(live) != path.live) {
      failure = Disagreement("liveness", func, b, index);
    } else if (MaterializeDefines(layout, defs) != path.defs) {
      failure = Disagreement("DefineSets", func, b, index);
    }
  };
  struct State {
    SlotSet live;
    DefineMap defs;
  };
  for (const auto& block : func.blocks) {
    const BlockId b = block->id;
    compare(b, 0, liveness.live_in[b], defines.in[b]);
    size_t index = block->insts.size();
    State point{liveness.live_out[b], defines.out[b]};
    WalkBlock<Direction::kBackward>(
        *block, point,
        [&layout](const Instruction& inst, State& state) {
          ApplyLivenessTransfer(layout, inst, state.live);
          ApplyDefineTransfer(layout, inst, state.defs);
        },
        [&](const Instruction&, const State& state) {
          compare(b, index--, state.live, state.defs);
        });
    compare(b, 0, point.live, point.defs);
  }
  return failure;
}

std::string CheckPendingStoreFacts(const SlotLayout& layout, const PendingStores& analysis,
                                   const std::vector<SlotSet>& in,
                                   const std::vector<SlotSet>& out) {
  const IrFunction& func = layout.func();
  // The tracked slots, stated plainly: address-taken, non-global,
  // non-synthetic whole locals.
  std::set<SlotId> address_taken;
  ForEachInstruction(func, [&](BlockId, size_t, const Instruction& inst) {
    if (inst.op == Opcode::kAddrSlot) {
      address_taken.insert(inst.slot);
    }
  });
  std::vector<std::vector<PlainPending>> paths(func.blocks.size());
  std::vector<std::vector<bool>> reachable(func.blocks.size());
  for (const auto& block : func.blocks) {
    paths[block->id].resize(block->insts.size() + 1);
    reachable[block->id].assign(block->insts.size() + 1, false);
  }
  ForEachConnectedPoint<Direction::kForward>(
      func, Starts(func), [](BlockId, size_t) { return false; },
      [&](BlockId b, size_t i) { reachable[b][i] = true; });
  for (SlotId x : address_taken) {
    const Slot& slot = func.slots[x];
    if (slot.var == nullptr || slot.var->is_global || slot.is_synthetic || slot.IsFieldSlot()) {
      continue;
    }
    // x's events: a store to x, or a possible read of x (a load or
    // address-take of x; a call or an indirect access, since x escaped).
    auto store_at = [&](BlockId b, size_t i) -> const SourceLoc* {
      const Instruction& inst = func.blocks[b]->insts[i];
      return inst.op == Opcode::kStore && inst.slot == x ? &inst.loc : nullptr;
    };
    auto reads_at = [&](BlockId b, size_t i) {
      const Instruction& inst = func.blocks[b]->insts[i];
      switch (inst.op) {
        case Opcode::kLoad:
        case Opcode::kAddrSlot:
          return inst.slot == x;
        case Opcode::kCall:
        case Opcode::kLoadInd:
        case Opcode::kStoreInd:
          return true;
        default:
          return false;
      }
    };
    std::set<SourceLoc> locs;
    ForEachInstruction(func, [&](BlockId b, size_t i, const Instruction&) {
      if (const SourceLoc* loc = store_at(b, i)) {
        locs.insert(*loc);
      }
    });
    // L is pending at p when p is reachable and no path from a start reaches
    // p with a last x-event other than the store L: the points such a path
    // reaches are those connected, without crossing a store L, to a start or
    // to the point after a reachable read or other store.
    for (const SourceLoc& loc : locs) {
      std::vector<Point> other_last = Starts(func);
      ForEachInstruction(func, [&](BlockId b, size_t i, const Instruction&) {
        const SourceLoc* stored = store_at(b, i);
        if (reachable[b][i] && (reads_at(b, i) || (stored != nullptr && *stored != loc))) {
          other_last.push_back({b, i + 1});
        }
      });
      std::vector<std::vector<bool>> pending = reachable;
      ForEachConnectedPoint<Direction::kForward>(
          func, other_last,
          [&](BlockId b, size_t i) {
            const SourceLoc* stored = store_at(b, i);
            return stored != nullptr && *stored == loc;
          },
          [&](BlockId b, size_t i) { pending[b][i] = false; });
      for (const auto& block : func.blocks) {
        for (size_t i = 0; i <= block->insts.size(); ++i) {
          if (pending[block->id][i]) {
            paths[block->id][i].insert({x, loc});
          }
        }
      }
    }
  }

  // The solver's facts: both block boundaries, and the replay inside every
  // block a start reaches. A block no start reaches stayed TOP, which the
  // solver stores as empty, as the path search finds it.
  std::string failure;
  auto compare = [&](BlockId b, size_t index, const SlotSet& solved) {
    if (failure.empty() && MaterializePending(layout, solved) != paths[b][index]) {
      failure = Disagreement("pending stores", func, b, index);
    }
  };
  for (const auto& block : func.blocks) {
    const BlockId b = block->id;
    const size_t end = block->insts.size();
    compare(b, 0, in[b]);
    compare(b, end, out[b]);
    if (!reachable[b][0]) {
      continue;
    }
    size_t index = 0;
    SlotSet point = in[b];
    WalkBlock<Direction::kForward>(
        *block, point,
        [&analysis](const Instruction& inst, SlotSet& pending) {
          analysis.Transfer(inst, pending);
        },
        [&](const Instruction&, const SlotSet& pending) { compare(b, index++, pending); });
    compare(b, end, point);
  }
  return failure;
}

const char* OracleKindName(OracleKind kind) {
  switch (kind) {
    case OracleKind::kCleanFrontend:
      return "clean_frontend";
    case OracleKind::kJobsDeterminism:
      return "jobs_determinism";
    case OracleKind::kMetricsParity:
      return "metrics_parity";
    case OracleKind::kJsonRoundTrip:
      return "json_round_trip";
    case OracleKind::kMetamorphic:
      return "metamorphic";
    case OracleKind::kDegradedRun:
      return "degraded_run";
    case OracleKind::kIncrementalEquivalence:
      return "incremental_equivalence";
    case OracleKind::kDataflow:
      return "dataflow";
  }
  return "unknown";
}

std::optional<OracleKind> OracleKindFromName(const std::string& name) {
  for (OracleKind kind : AllOracles()) {
    if (name == OracleKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::vector<OracleKind> AllOracles() {
  return {OracleKind::kCleanFrontend,  OracleKind::kJobsDeterminism,
          OracleKind::kMetricsParity,  OracleKind::kJsonRoundTrip,
          OracleKind::kMetamorphic,    OracleKind::kDegradedRun,
          OracleKind::kIncrementalEquivalence, OracleKind::kDataflow};
}

bool OracleVerdict::Failed(OracleKind kind) const {
  for (const OracleFailure& failure : failures) {
    if (failure.oracle == kind) {
      return true;
    }
  }
  return false;
}

OracleRunner::OracleRunner(OracleOptions options) : options_(std::move(options)) {}

AnalysisReport OracleRunner::Analyze(const TestProgram& program, int jobs,
                                     bool collect_metrics) const {
  AnalysisOptions options;
  options.checkers = options_.checkers;
  options.cross_scope_only = false;
  options.jobs = jobs;
  options.collect_metrics = collect_metrics;
  AnalysisReport report = Analysis(options).RunOnSources(program.ToSources());
  if (jobs > 1 && options_.parallel_fault) {
    options_.parallel_fault(report);
  }
  return report;
}

std::string OracleRunner::SerializeFindings(const AnalysisReport& report) {
  std::string out;
  out += "findings\n";
  for (const UnusedDefCandidate& cand : report.findings) {
    AppendCandidate(out, cand);
  }
  out += "raw\n";
  for (const UnusedDefCandidate& cand : report.raw_candidates) {
    AppendCandidate(out, cand);
  }
  const PruneStats& prune = report.prune_stats;
  out += "prune|" + std::to_string(prune.original);
  for (const LedgerPrunePattern& pattern : prune.Patterns()) {
    out += "|" + std::to_string(pattern.pruned);
  }
  out += "|" + std::to_string(prune.remaining) + "\n";
  out += "non_cross_scope|" + std::to_string(report.non_cross_scope) + "\n";
  out += "diagnostics|" + std::to_string(report.diagnostic_warnings) + "|" +
         std::to_string(report.diagnostic_errors) + "\n";
  return out;
}

std::set<std::string> OracleRunner::FingerprintSet(const AnalysisReport& report) {
  std::set<std::string> set;
  for (const UnusedDefCandidate& cand : report.findings) {
    set.insert(cand.checker + ":" + cand.fingerprint);
  }
  return set;
}

OracleVerdict OracleRunner::Check(const TestProgram& program) const {
  OracleVerdict verdict;
  std::vector<int> jobs = options_.jobs;
  if (jobs.empty()) {
    jobs = {1, 2, 8};
  }

  AnalysisReport base = Analyze(program, jobs.front(), /*collect_metrics=*/false);
  std::string base_serialized = SerializeFindings(base);

  if (Enabled(OracleKind::kCleanFrontend)) {
    if (base.diagnostic_errors != 0) {
      verdict.failures.push_back(
          {OracleKind::kCleanFrontend, "",
           std::to_string(base.diagnostic_errors) + " diagnostic error(s) on generated input"});
    }
  }

  AnalysisReport last_parallel;
  bool have_parallel = false;
  if (Enabled(OracleKind::kJobsDeterminism) || Enabled(OracleKind::kMetricsParity)) {
    for (size_t i = 1; i < jobs.size(); ++i) {
      AnalysisReport report = Analyze(program, jobs[i], /*collect_metrics=*/false);
      if (Enabled(OracleKind::kJobsDeterminism)) {
        std::string serialized = SerializeFindings(report);
        if (serialized != base_serialized) {
          verdict.failures.push_back(
              {OracleKind::kJobsDeterminism, "",
               "jobs=" + std::to_string(jobs[i]) + " diverges from jobs=" +
                   std::to_string(jobs.front()) + " (" +
                   std::to_string(report.findings.size()) + " vs " +
                   std::to_string(base.findings.size()) + " findings)"});
        }
      }
      if (i + 1 == jobs.size()) {
        last_parallel = std::move(report);
        have_parallel = true;
      }
    }
  }

  if (Enabled(OracleKind::kMetricsParity)) {
    // Serial and (when available) widest-parallel parity: metrics collection
    // must be a pure observer.
    AnalysisReport with_metrics = Analyze(program, jobs.front(), /*collect_metrics=*/true);
    if (SerializeFindings(with_metrics) != base_serialized) {
      verdict.failures.push_back({OracleKind::kMetricsParity, "",
                                  "collect_metrics changed findings at jobs=" +
                                      std::to_string(jobs.front())});
    }
    if (have_parallel) {
      AnalysisReport parallel_metrics =
          Analyze(program, jobs.back(), /*collect_metrics=*/true);
      if (SerializeFindings(parallel_metrics) != SerializeFindings(last_parallel)) {
        verdict.failures.push_back({OracleKind::kMetricsParity, "",
                                    "collect_metrics changed findings at jobs=" +
                                        std::to_string(jobs.back())});
      }
    }
  }

  if (Enabled(OracleKind::kJsonRoundTrip)) {
    AnalysisReport with_metrics = Analyze(program, jobs.front(), /*collect_metrics=*/true);
    std::string json = ReportToJson(with_metrics);
    std::string error;
    std::optional<JsonValue> doc = ParseJson(json, &error);
    if (!doc.has_value()) {
      verdict.failures.push_back(
          {OracleKind::kJsonRoundTrip, "", "report JSON does not parse: " + error});
    } else {
      const JsonValue& findings = doc->Get("findings");
      if (doc->GetInt("schema_version") != 8) {
        verdict.failures.push_back({OracleKind::kJsonRoundTrip, "", "schema_version != 8"});
      } else if (findings.Size() != with_metrics.findings.size()) {
        verdict.failures.push_back(
            {OracleKind::kJsonRoundTrip, "",
             "finding count mismatch: " + std::to_string(findings.Size()) + " in JSON vs " +
                 std::to_string(with_metrics.findings.size())});
      } else {
        for (size_t i = 0; i < with_metrics.findings.size(); ++i) {
          const UnusedDefCandidate& cand = with_metrics.findings[i];
          const JsonValue& entry = findings.At(i);
          if (entry.GetString("fingerprint") != cand.fingerprint ||
              entry.GetString("checker") != cand.checker ||
              entry.GetString("file") != cand.file ||
              entry.GetInt("line") != cand.def_loc.line ||
              entry.GetInt("column") != cand.def_loc.column ||
              entry.GetString("function") != cand.function ||
              entry.GetString("variable") != cand.slot_name ||
              entry.GetString("kind") != CandidateKindName(cand.kind)) {
            verdict.failures.push_back({OracleKind::kJsonRoundTrip, "",
                                        "finding " + std::to_string(i) +
                                            " lost fields in the JSON round-trip"});
            break;
          }
        }
        const JsonValue& diagnostics = doc->Get("diagnostics");
        if (diagnostics.GetInt("warnings") != with_metrics.diagnostic_warnings ||
            diagnostics.GetInt("errors") != with_metrics.diagnostic_errors) {
          verdict.failures.push_back(
              {OracleKind::kJsonRoundTrip, "", "diagnostics block mismatch"});
        }
      }
    }
  }

  if (Enabled(OracleKind::kMetamorphic)) {
    ProtectedSlots protected_slots = ProtectedSlots::FromReport(base);
    std::set<std::string> base_fps = FingerprintSet(base);
    for (Transform transform : AllTransforms()) {
      TestProgram mutant =
          ApplyTransform(program, transform, options_.mutation_seed, protected_slots);
      AnalysisReport report = Analyze(mutant, jobs.front(), /*collect_metrics=*/false);
      if (report.diagnostic_errors != 0 && base.diagnostic_errors == 0) {
        verdict.failures.push_back({OracleKind::kMetamorphic, TransformName(transform),
                                    "transform broke the parse (" +
                                        std::to_string(report.diagnostic_errors) +
                                        " diagnostic error(s))"});
        continue;
      }
      std::set<std::string> mutant_fps = FingerprintSet(report);
      if (mutant_fps != base_fps) {
        std::set<std::string> lost;
        std::set_difference(base_fps.begin(), base_fps.end(), mutant_fps.begin(),
                            mutant_fps.end(), std::inserter(lost, lost.begin()));
        std::set<std::string> gained;
        std::set_difference(mutant_fps.begin(), mutant_fps.end(), base_fps.begin(),
                            base_fps.end(), std::inserter(gained, gained.begin()));
        verdict.failures.push_back({OracleKind::kMetamorphic, TransformName(transform),
                                    "fingerprint set changed; lost=[" + JoinFingerprints(lost) +
                                        "] gained=[" + JoinFingerprints(gained) + "]"});
      }
    }
  }

  if (Enabled(OracleKind::kDegradedRun)) {
    // Salt the mutation seed so the injection sites differ from campaign
    // iteration to iteration even when the same seed reruns other oracles.
    const uint64_t seed = options_.mutation_seed ^ 0x9e3779b97f4a7c15ull;
    AnalysisReport clean =
        AnalyzeForDegraded(program, jobs.front(), seed, options_.fault_rate, /*inject=*/false,
                           options_.checkers);
    if (clean.degraded || !clean.quarantined.empty()) {
      verdict.failures.push_back(
          {OracleKind::kDegradedRun, "", "clean run (no injection) reports degraded"});
    } else {
      bool aborted = false;
      AnalysisReport faulted;
      try {
        faulted =
            AnalyzeForDegraded(program, jobs.front(), seed, options_.fault_rate, /*inject=*/true,
                               options_.checkers);
      } catch (const std::exception& e) {
        aborted = true;
        verdict.failures.push_back(
            {OracleKind::kDegradedRun, "",
             std::string("pipeline aborted under injected faults: ") + e.what()});
      }
      if (!aborted) {
        if (faulted.degraded != !faulted.quarantined.empty()) {
          verdict.failures.push_back(
              {OracleKind::kDegradedRun, "",
               "degraded flag inconsistent with the quarantine list (" +
                   std::to_string(faulted.quarantined.size()) + " unit(s))"});
        }
        std::set<std::string> clean_fps = FingerprintSet(clean);
        std::set<std::string> faulted_fps = FingerprintSet(faulted);
        std::set<std::string> gained;
        std::set_difference(faulted_fps.begin(), faulted_fps.end(), clean_fps.begin(),
                            clean_fps.end(), std::inserter(gained, gained.begin()));
        if (!gained.empty()) {
          verdict.failures.push_back(
              {OracleKind::kDegradedRun, "",
               "faulted run reports fingerprints absent from the clean run: [" +
                   JoinFingerprints(gained) + "]"});
        }
        std::string faulted_findings = SerializeFindings(faulted);
        std::string faulted_quarantine = SerializeQuarantine(faulted);
        for (size_t i = 1; i < jobs.size(); ++i) {
          AnalysisReport report;
          try {
            report =
                AnalyzeForDegraded(program, jobs[i], seed, options_.fault_rate, /*inject=*/true,
                                   options_.checkers);
          } catch (const std::exception& e) {
            verdict.failures.push_back(
                {OracleKind::kDegradedRun, "",
                 "pipeline aborted under injected faults at jobs=" + std::to_string(jobs[i]) +
                     ": " + e.what()});
            continue;
          }
          if (SerializeFindings(report) != faulted_findings ||
              SerializeQuarantine(report) != faulted_quarantine) {
            verdict.failures.push_back(
                {OracleKind::kDegradedRun, "",
                 "faulted run diverges at jobs=" + std::to_string(jobs[i]) + " from jobs=" +
                     std::to_string(jobs.front()) + " (findings or quarantine list)"});
          }
        }
      }
    }
  }

  if (Enabled(OracleKind::kIncrementalEquivalence)) {
    // Replay the program as a history (one commit per file, then an edit
    // appending a probe function to the first file) and hold each commit to
    // a full run. Feed the snapshot entry the program cold, the edit, a
    // delete of the edited file and its re-add, and hold each snapshot to a
    // sources-mode run. Serial plus the widest job count — the
    // jobs_determinism oracle already covers the middle.
    using Sources = std::vector<std::pair<std::string, std::string>>;
    Repository repo;
    AuthorId author = repo.AddAuthor("fuzz");
    int64_t timestamp = 1'650'000'000;
    const Sources sources = program.ToSources();
    for (const auto& [path, content] : sources) {
      repo.AddCommit(author, timestamp += 60, "add " + path, {{path, content}});
    }
    Sources probed = sources;
    // The first store to w is dead, so the edit shows in every report.
    probed.front().second +=
        "\nint inc_probe(int z) {\n  int w = z + 1;\n  w = z + 2;\n  return w;\n}\n";
    repo.AddCommit(author, timestamp += 60, "probe edit", {probed.front()});
    const std::vector<Sources> snapshots = {sources, probed,
                                            Sources(sources.begin() + 1, sources.end()), sources};

    std::set<int> job_counts = {jobs.front(), jobs.back()};
    for (int job_count : job_counts) {
      AnalysisOptions options;
      options.checkers = options_.checkers;
      options.cross_scope_only = false;
      options.jobs = job_count;
      IncrementalEngine engine(options);
      IncrementalEngine snapshot_engine(options);
      Analysis full(options);
      // False (with a recorded failure) when `result` differs from `fresh`.
      auto same = [&](const IncrementalResult& result, const AnalysisReport& fresh,
                      const std::string& where) {
        if (SerializeFindings(result.report) == SerializeFindings(fresh)) {
          return true;
        }
        verdict.failures.push_back({OracleKind::kIncrementalEquivalence, "",
                                    "incremental report diverges from the full run at " +
                                        where + " (jobs " + std::to_string(job_count) + ")"});
        return false;
      };
      for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
        if (!same(engine.AnalyzeCommit(repo, commit), full.RunOnRepository(repo.PrefixCopy(commit)),
                  "commit " + std::to_string(commit))) {
          break;
        }
      }
      for (size_t i = 0; i < snapshots.size(); ++i) {
        Sources sorted = snapshots[i];
        std::sort(sorted.begin(), sorted.end());
        if (!same(snapshot_engine.AnalyzeSnapshot(snapshots[i]), full.RunOnSources(sorted),
                  "snapshot " + std::to_string(i))) {
          break;
        }
      }
    }
  }

  if (Enabled(OracleKind::kDataflow)) {
    for (const auto& module : base.owned_project->modules()) {
      for (const auto& func : module->functions) {
        const SlotLayout layout(*func);
        const LivenessResult liveness = ComputeLiveness(layout);
        std::string failure = CheckDataflowFacts(layout, liveness, ComputeDefineSets(layout));
        if (failure.empty()) {
          const PendingStores analysis(layout, liveness.address_taken);
          std::vector<SlotSet> in;
          std::vector<SlotSet> out;
          analysis.Solve(in, out, nullptr);
          failure = CheckPendingStoreFacts(layout, analysis, in, out);
        }
        if (!failure.empty()) {
          verdict.failures.push_back({OracleKind::kDataflow, "", failure});
          return verdict;
        }
      }
    }
  }

  return verdict;
}

std::function<void(AnalysisReport&)> DropOverwrittenFindingsFault() {
  return [](AnalysisReport& report) {
    report.findings.erase(
        std::remove_if(report.findings.begin(), report.findings.end(),
                       [](const UnusedDefCandidate& cand) { return cand.overwritten; }),
        report.findings.end());
  };
}

}  // namespace testing
}  // namespace vc
