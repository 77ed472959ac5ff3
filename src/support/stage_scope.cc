#include "src/support/stage_scope.h"

#include <string>

#include "src/support/events.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"

namespace vc {

PipelineRun::PipelineRun(bool collect)
    : collect_(collect), start_(std::chrono::steady_clock::now()) {
  if (collect_) {
    MetricsRegistry::Global().Enable();
    MemoryTracker::Global().Enable();
    pool_before_ = ThreadPool::Global().stats();
  }
}

double PipelineRun::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

ThreadPoolStats PipelineRun::PoolDelta() const {
  return collect_ ? ThreadPool::Global().stats().Delta(pool_before_) : ThreadPoolStats();
}

StageScope::StageScope(PipelineRun& run, PipelineStage stage)
    : run_(run),
      stage_(stage),
      start_(std::chrono::steady_clock::now()),
      span_(PipelineStageName(stage), "pipeline") {
  RunEvent("stage_start").Str("stage", PipelineStageName(stage));
}

StageScope::~StageScope() {
  const char* name = PipelineStageName(stage_);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  run_.seconds[stage_] = seconds;
  if (run_.collect()) {
    MetricsRegistry::Global().GetHistogram(std::string("pipeline.") + name + "_seconds")
        .Record(seconds);
    run_.peak_rss_bytes[stage_] = ProcessPeakRssBytes();
  }
  RunEvent end("stage_end");
  end.Str("stage", name);
  for (const auto& [key, value] : counts_) {
    end.Num(key, value);
  }
}

void StageScope::Count(const char* key, int64_t value) {
  span_.Arg(key, value);
  counts_.emplace_back(key, value);
}

}  // namespace vc
