#include "src/checkers/checker_context.h"

namespace vc {

CheckerContext::CheckerContext(const Project& project, FileId file, const IrFunction& func,
                               BudgetMeter* meter)
    : project_(project),
      file_(file),
      path_(project.sources().Path(file)),
      func_(func),
      meter_(meter) {}

UnusedDefCandidate CheckerContext::SlotCandidate(SlotId slot, SourceLoc loc,
                                                CandidateKind kind) const {
  const Slot& s = func_.slots[slot];
  UnusedDefCandidate cand;
  cand.function = func_.name;
  cand.slot_name = s.name;
  cand.file = path_;
  cand.def_loc = loc;
  cand.ir_func = &func_;
  cand.slot = slot;
  cand.var = s.var;
  cand.is_synthetic = s.is_synthetic;
  cand.is_field_slot = s.IsFieldSlot();
  cand.kind = kind;
  return cand;
}

const SlotLayout& CheckerContext::layout() {
  if (layout_ == nullptr) {
    layout_ = std::make_unique<SlotLayout>(func_);
  }
  return *layout_;
}

const LivenessResult& CheckerContext::liveness() {
  if (liveness_ == nullptr) {
    liveness_ = std::make_unique<LivenessResult>(ComputeLiveness(layout(), meter_));
  }
  return *liveness_;
}

const DefineSetResult& CheckerContext::defines() {
  if (defines_ == nullptr) {
    defines_ = std::make_unique<DefineSetResult>(ComputeDefineSets(layout(), meter_));
  }
  return *defines_;
}

const PointsTo& CheckerContext::points_to() {
  if (points_to_ == nullptr) {
    points_to_ = std::make_unique<PointsTo>(func_);
  }
  return *points_to_;
}

}  // namespace vc
