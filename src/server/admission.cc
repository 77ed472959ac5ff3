#include "src/server/admission.h"

namespace vc {

AdmissionController::AdmissionController(Options options) : options_(options) {
  if (options_.max_inflight < 1) {
    options_.max_inflight = 1;
  }
  if (options_.max_queue < 0) {
    options_.max_queue = 0;
  }
}

AdmissionController::Outcome AdmissionController::Enter() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_) {
    return Outcome::kShedDraining;
  }
  if (inflight_ < options_.max_inflight) {
    ++inflight_;
    if (inflight_ > inflight_hwm_) {
      inflight_hwm_ = inflight_;
    }
    return Outcome::kAdmitted;
  }
  if (queued_ >= options_.max_queue) {
    return Outcome::kShedQueueFull;
  }
  ++queued_;
  if (queued_ > queued_hwm_) {
    queued_hwm_ = queued_;
  }
  slot_free_.wait(lock, [this] {
    return draining_ || inflight_ < options_.max_inflight;
  });
  --queued_;
  if (draining_) {
    return Outcome::kShedDraining;
  }
  ++inflight_;
  if (inflight_ > inflight_hwm_) {
    inflight_hwm_ = inflight_;
  }
  return Outcome::kAdmitted;
}

void AdmissionController::Leave() {
  std::lock_guard<std::mutex> lock(mutex_);
  --inflight_;
  slot_free_.notify_one();
}

void AdmissionController::BeginDrain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  slot_free_.notify_all();
}

bool AdmissionController::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

int64_t AdmissionController::RetryAfterMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double estimate_ms = mean_service_seconds_ * 1e3 * static_cast<double>(queued_ + 1);
  return estimate_ms < 10.0 ? 10 : static_cast<int64_t>(estimate_ms);
}

int AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_;
}

int AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

int AdmissionController::inflight_high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_hwm_;
}

int AdmissionController::queued_high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_hwm_;
}

void AdmissionController::RecordServiceSeconds(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Running mean; enough signal for a back-off hint.
  ++service_samples_;
  mean_service_seconds_ +=
      (seconds - mean_service_seconds_) / static_cast<double>(service_samples_);
}

}  // namespace vc
