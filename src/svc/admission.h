// AdmissionController: the service front-end's load shedder. Two gates in
// sequence, both cheap enough to sit on the producer path:
//
//  1. Per-stream token bucket — each stream refills at `stream_rate_rps`
//     tokens per second up to `stream_burst`; an offer with no token is
//     shed with reason `rate`. This bounds any one stream's share of the
//     disk regardless of how fast it offers.
//
//  2. SCAN-tour wait oracle — an analytic bound on how long a newly
//     admitted request would wait behind the current queue. With d
//     requests pending and the scheduler serving in (cascaded) SCAN
//     order over requests spread across the stroke, one full tour costs
//     about
//
//         W(d) = d * fixed_cost_ms + sweep_cost_ms
//
//     where fixed_cost_ms is the seek-free per-request cost (rotational
//     latency + transfer + overhead) and sweep_cost_ms is the full-stroke
//     seek the tour amortizes across the batch (the space-time view of a
//     SCAN pass: total head travel is one stroke no matter how many
//     requests the sweep collects). A new admit waits at most one tour,
//     so the controller sheds with reason `load` when W(d) exceeds
//     `slo_wait_ms`. Derivation and calibration in DESIGN.md section 12.
//
// A third reason, `ring_full`, is recorded by the server when an admitted
// offer still fails to enter the bounded ingest ring (backpressure); the
// controller owns the counter so the accounting reconciles in one place:
//
//     offered == admitted + rejected_rate + rejected_load
//                + rejected_ring_full
//
// Thread safety: producers call Admit()/RecordAdmit()/RecordRingReject()
// concurrently. Each producer thread counts on its own stripe: one of
// kStripes cache-line-aligned sets of the five counters, picked once per
// thread from a process-wide relaxed ticket. Up to kStripes threads that
// take consecutive tickets never write one line; more share stripes
// round-robin, and since a thread that ends keeps its ticket, a new
// thread can land on a live one's stripe. The counters are relaxed
// atomics, because a shared stripe has two writers.
// counters() sums the stripes. Each count is monotone, and the identity
// above holds exactly once producers are quiescent (a mid-run counters()
// snapshot reads the counters one by one, so it is not a consistent cut).
// Which stripe a thread picks changes no sum, so virtual-time runs stay
// deterministic. The internal mutex guards only the token buckets, and is
// taken only while the rate gate is on: with both gates off, an offer
// costs two relaxed increments on its own thread's line and no lock. The
// load gate reads its queue-depth argument only when slo_wait_ms > 0, so
// callers may skip computing the depth otherwise (load_gate()).

#ifndef CSFC_SVC_ADMISSION_H_
#define CSFC_SVC_ADMISSION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace csfc {
namespace svc {

struct AdmissionConfig {
  /// Token buckets are pre-sized to this many streams (stream ids hash in
  /// with a modulo, so the controller never allocates after construction).
  uint32_t max_streams = 64;
  /// Per-stream sustained rate, requests/second. 0 disables the rate gate.
  double stream_rate_rps = 0.0;
  /// Per-stream burst depth in requests. 0 picks max(1, stream_rate_rps).
  double stream_burst = 0.0;
  /// Target worst-case enqueue-to-dispatch wait. 0 disables load shedding.
  double slo_wait_ms = 0.0;
  /// Seek-free per-request service cost (latency + transfer + overhead).
  double fixed_cost_ms = 1.0;
  /// Full-stroke seek cost amortized over one SCAN tour.
  double sweep_cost_ms = 10.0;

  Status Validate() const;
};

enum class AdmitDecision : uint8_t {
  kAdmit,
  kRejectRate,
  kRejectLoad,
};

class AdmissionController {
 public:
  /// Monotonic counters; snapshot via counters().
  struct Counters {
    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t rejected_rate = 0;
    uint64_t rejected_load = 0;
    uint64_t rejected_ring_full = 0;
    uint64_t rejected() const {
      return rejected_rate + rejected_load + rejected_ring_full;
    }
  };

  /// `config` must already Validate().
  explicit AdmissionController(const AdmissionConfig& config);

  /// Gates one offer from `stream` at time `now` against a queue of
  /// `queue_depth` pending requests. Counts the offer and any rate/load
  /// rejection; an admit is only counted once the caller lands the
  /// request in the ring and calls RecordAdmit().
  AdmitDecision Admit(uint32_t stream, SimTime now, size_t queue_depth)
      EXCLUDES(mu_);

  /// Whether Admit() reads its `queue_depth` argument.
  bool load_gate() const { return config_.slo_wait_ms > 0.0; }

  /// The admitted offer made it into the ingest ring.
  void RecordAdmit() {
    Mine().admitted.fetch_add(1, std::memory_order_relaxed);
  }
  /// The admitted offer bounced off a full ring (backpressure). The
  /// stream's token stays spent — a full ring should also slow the
  /// offending streams down.
  void RecordRingReject() {
    Mine().rejected_ring_full.fetch_add(1, std::memory_order_relaxed);
  }

  /// The oracle, exposed for tests and the serve CLI's report.
  double PredictedWaitMs(size_t queue_depth) const;

  Counters counters() const;

  const AdmissionConfig& config() const { return config_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    SimTime last_refill = 0;
  };

  /// One producer's counters, alone on its cache line.
  struct alignas(kCacheLine) Stripe {
    std::atomic<uint64_t> offered{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> rejected_rate{0};
    std::atomic<uint64_t> rejected_load{0};
    std::atomic<uint64_t> rejected_ring_full{0};
  };

  /// Stripes per controller: enough for the soak's and the CLI's
  /// producers, 512 bytes in all.
  static constexpr uint32_t kStripes = 8;
  static constexpr uint32_t kNoStripe = ~uint32_t{0};
  /// The calling thread's stripe index, taken on its first offer.
  static inline thread_local uint32_t stripe_index_ = kNoStripe;

  /// The calling thread's stripe.
  Stripe& Mine() {
    if (stripe_index_ == kNoStripe) stripe_index_ = TakeStripe();
    return stripes_[stripe_index_];
  }
  /// Next stripe index from the process-wide ticket.
  static uint32_t TakeStripe();

  /// Refills `stream`'s bucket to `now` and takes one token from it;
  /// false when the bucket holds less than one.
  bool TakeToken(uint32_t stream, SimTime now) EXCLUDES(mu_);

  AdmissionConfig config_;
  double burst_;  ///< resolved burst (config_.stream_burst or its default)
  mutable Mutex mu_;
  std::vector<Bucket> buckets_ GUARDED_BY(mu_);
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace svc
}  // namespace csfc

#endif  // CSFC_SVC_ADMISSION_H_
