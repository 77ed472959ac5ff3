// The pipeline's stage list: parse, then paper Fig. 2 (detect -> authorship
// and cross-scope filter -> prune -> rank). Each row is (enumerator,
// snake_case name), and the name is used verbatim wherever a stage is named:
// the trace span, the "stage" field of stage_start/stage_end events, the
// pipeline.<name>_seconds histogram, the JSON report's metrics.stages key, the
// ledger's stages key, the run-diff row <name>_seconds and the --metrics
// table row. Dependency-free, so the ledger and vc_obs_lint share it.

#ifndef VALUECHECK_SRC_SUPPORT_PIPELINE_STAGES_H_
#define VALUECHECK_SRC_SUPPORT_PIPELINE_STAGES_H_

#include <array>
#include <cstddef>
#include <numeric>

namespace vc {

#define VC_FORALL_PIPELINE_STAGES(_)       \
  _(kParse, parse)                         \
  _(kDetect, detect)                       \
  _(kAuthorship, authorship)               \
  _(kCrossScopeFilter, cross_scope_filter) \
  _(kPrune, prune)                         \
  _(kRank, rank)

enum class PipelineStage {
#define VC_STAGE_ENUMERATOR(id, name) id,
  VC_FORALL_PIPELINE_STAGES(VC_STAGE_ENUMERATOR)
#undef VC_STAGE_ENUMERATOR
};

inline constexpr std::array kPipelineStages = {
#define VC_STAGE_VALUE(id, name) PipelineStage::id,
    VC_FORALL_PIPELINE_STAGES(VC_STAGE_VALUE)
#undef VC_STAGE_VALUE
};

inline constexpr const char* PipelineStageName(PipelineStage stage) {
  constexpr const char* kNames[] = {
#define VC_STAGE_NAME(id, name) #name,
      VC_FORALL_PIPELINE_STAGES(VC_STAGE_NAME)
#undef VC_STAGE_NAME
  };
  return kNames[static_cast<size_t>(stage)];
}

// One value per stage, indexed by the stage enum.
template <typename T>
struct PerStage {
  std::array<T, kPipelineStages.size()> values{};

  T& operator[](PipelineStage stage) { return values[static_cast<size_t>(stage)]; }
  const T& operator[](PipelineStage stage) const { return values[static_cast<size_t>(stage)]; }
  T Sum() const { return std::accumulate(values.begin(), values.end(), T{}); }
};

// Wall-clock seconds per stage of one run (0 for a stage the run skipped).
using StageSeconds = PerStage<double>;

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_PIPELINE_STAGES_H_
