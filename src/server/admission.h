// Admission control for the serve daemon (DESIGN.md §19).
//
// The controller enforces the two-number overload contract: at most
// `max_inflight` requests execute concurrently, and at most `max_queue`
// requests wait for a slot. Everything past that is SHED — refused with an
// explicit RETRY_AFTER hint — instead of growing an unbounded backlog whose
// queueing delay would blow every deadline anyway (the classic overload
// collapse). Draining is a one-way admission state: new arrivals shed
// immediately while in-flight work runs to completion.
//
// State machine per request:
//
//   arrive ──> shed(draining)            when draining
//          ──> shed(queue_full)          when waiters == max_queue
//          ──> wait ──> admitted ──> Leave()
//                   └─> shed(draining)   drain began while queued
//
// The controller is pure synchronization (mutex + condvar + counters): no
// sockets, no analysis types, so overload scenarios are unit-testable with
// plain threads.

#ifndef VALUECHECK_SRC_SERVER_ADMISSION_H_
#define VALUECHECK_SRC_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace vc {

class AdmissionController {
 public:
  struct Options {
    int max_inflight = 2;
    int max_queue = 8;
  };

  enum class Outcome {
    kAdmitted,
    kShedQueueFull,
    kShedDraining,
  };

  explicit AdmissionController(Options options);

  // Blocks until a slot is free (kAdmitted — caller MUST Leave() when done)
  // or the request is shed. Never blocks when shedding.
  Outcome Enter();

  // Releases an admitted request's slot.
  void Leave();

  // Flips to draining: queued waiters wake and shed, future arrivals shed.
  void BeginDrain();
  bool draining() const;

  // Suggested client back-off when shedding: one mean service time per
  // waiter ahead of the client, floored at 10ms. Monotone in load, so
  // loadgen's backoff scales with actual pressure.
  int64_t RetryAfterMs() const;

  // Observability (sampled; exact under the lock).
  int inflight() const;
  int queued() const;
  int inflight_high_water() const;
  int queued_high_water() const;
  const Options& options() const { return options_; }

  // Feeds the RetryAfterMs estimate; call with each completed request's
  // execution seconds.
  void RecordServiceSeconds(double seconds);

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  int inflight_ = 0;
  int queued_ = 0;
  int inflight_hwm_ = 0;
  int queued_hwm_ = 0;
  bool draining_ = false;
  double mean_service_seconds_ = 0.05;  // prior until real samples arrive
  int64_t service_samples_ = 0;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SERVER_ADMISSION_H_
