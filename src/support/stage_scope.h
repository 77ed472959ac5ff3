// The one instrument at every pipeline stage boundary.
//
// A PipelineRun is one run's stage record, opened before its first stage so
// the run's wall clock and thread-pool delta cover parse too. A StageScope
// times one stage into it and, for that stage, always opens the span <name>
// and emits stage_start/stage_end (each a no-op while its channel is off).
// Only when the run collects metrics does it also record the
// pipeline.<name>_seconds histogram and sample process peak RSS at the
// stage's end, so a run without --metrics pays no /proc read or histogram.

#ifndef VALUECHECK_SRC_SUPPORT_STAGE_SCOPE_H_
#define VALUECHECK_SRC_SUPPORT_STAGE_SCOPE_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/support/pipeline_stages.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace vc {

class PipelineRun {
 public:
  // `collect` is the run's AnalysisOptions::collect_metrics; it also switches
  // on the metrics registry and memory tracking the pipeline consults.
  explicit PipelineRun(bool collect);

  bool collect() const { return collect_; }
  double ElapsedSeconds() const;
  // Global-pool activity since construction; zero when not collecting.
  ThreadPoolStats PoolDelta() const;

  StageSeconds seconds;
  PerStage<uint64_t> peak_rss_bytes;  // sampled only when collecting

 private:
  bool collect_;
  std::chrono::steady_clock::time_point start_;
  ThreadPoolStats pool_before_;
};

class StageScope {
 public:
  StageScope(PipelineRun& run, PipelineStage stage);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  // Attaches a count to the span and to the stage_end event.
  void Count(const char* key, int64_t value);

 private:
  PipelineRun& run_;
  PipelineStage stage_;
  std::chrono::steady_clock::time_point start_;
  TraceSpan span_;
  std::vector<std::pair<const char*, int64_t>> counts_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_STAGE_SCOPE_H_
