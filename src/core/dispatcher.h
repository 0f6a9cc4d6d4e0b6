// Part 2 of the Cascaded-SFC scheduler: the dispatcher (Section 3).
//
// Requests enter keyed by their characterization value v_c (lower value =
// higher priority) and leave in one of three queue disciplines:
//
//  * Non-preemptive: two queues. The active queue q is served to
//    exhaustion while arrivals collect in the waiting queue q'; when q
//    empties, the queues swap. Starvation-free but suffers priority
//    inversion (new urgent requests wait a whole batch).
//
//  * Fully-preemptive: a single queue; every arrival competes immediately.
//    Perfect priority order, but a stream of urgent arrivals starves
//    everything else.
//
//  * Conditionally-preemptive (the paper's contribution): an arrival
//    preempts the current batch only if it beats the *currently served*
//    request T_cur by more than the blocking window w: v_new < v_cur - w
//    (Figure 3). Arrivals inside the window wait in q'. w = 0 degenerates
//    to fully-preemptive; w >= 1 (the whole space) to non-preemptive.
//
// Two policies refine the conditional discipline:
//
//  * SP (Serve-and-Promote, Section 3.2): before each dispatch, requests
//    in q' that now beat the next-to-be-served request by more than w are
//    promoted into q — bounding the priority inversion caused by blocked
//    windows.
//
//  * ER (Expand-and-Reset, Section 3.3): every preemption multiplies w by
//    the expansion factor e, so a sustained burst of urgent arrivals
//    drives the scheduler toward non-preemptive (starvation-free)
//    operation; w resets to its configured value when the active batch is
//    exhausted (queue swap). The scheduler thus oscillates between
//    conditional and non-preemptive modes.
//
// Both queues are calendar queues of (key, slot) entries
// (core/calendar_queue.h) over a shared request slot pool, rather than
// node-allocating maps; (v_c, seq) FIFO ordering is bit-identical to the
// map formulation, which survives as the test oracle
// tests/core/reference_dispatcher.h.

#ifndef CSFC_CORE_DISPATCHER_H_
#define CSFC_CORE_DISPATCHER_H_

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "common/function_ref.h"
#include "common/status.h"
#include "core/calendar_queue.h"
#include "core/cvalue.h"
#include "obs/tracer.h"
#include "workload/request.h"

namespace csfc {

/// Batch re-characterization hook: called exactly once per rekey with all
/// waiting requests; must fill out[i] with the new v_c of *reqs[i]
/// (out.size() == reqs.size()). This is the swap-time hot path — the one
/// call lets the encapsulator hoist its per-batch invariants. A
/// FunctionRef, not a std::function: the owning scheduler's lambda lives
/// on the caller's stack for the duration of the call.
using BatchRekeyFn =
    FunctionRef<void(std::span<const Request* const>, std::span<CValue>)>;

/// Queue discipline of the dispatcher.
enum class QueueDiscipline {
  kNonPreemptive,
  kFullyPreemptive,
  kConditionallyPreemptive,
};

/// Standalone-dispatcher default for DispatcherConfig::calendar_buckets
/// == 0. ~1K ranges keeps the calendar's metadata arrays L1-resident
/// while holding per-bucket occupancy to a few entries even at depth
/// 10^4; measurably better at those depths than finer slicings whose
/// metadata spills to L2 (and cheaper to set up). Deeper backlogs refine
/// the geometry (see DispatcherConfig::calendar_buckets). The cascaded
/// scheduler derives its figure from its own SFC3 partition parameters
/// instead, targeting the same total (core/cascaded_scheduler.cc).
inline constexpr uint32_t kDefaultCalendarBuckets = 1024;

/// Dispatcher configuration.
struct DispatcherConfig {
  QueueDiscipline discipline = QueueDiscipline::kConditionallyPreemptive;
  /// Blocking window w as a fraction of the characterization space [0, 1].
  double window = 0.05;
  /// SP policy (conditional discipline only).
  bool serve_promote = true;
  /// ER policy (conditional discipline only).
  bool expand_reset = false;
  /// ER expansion factor e (> 1).
  double expansion_factor = 2.0;
  /// Starting calendar bucket count of q and q' (see BucketedSlotHeap).
  /// 0 = derive: the cascaded scheduler slices its R SFC3 sweep
  /// partitions at up-to-cylinder granularity, targeting
  /// ~kDefaultCalendarBuckets ranges in total; a standalone dispatcher
  /// uses kDefaultCalendarBuckets directly. Capped at
  /// BucketedSlotHeap::kMaxBuckets. Once q and q' together hold more than
  /// BucketedSlotHeap::kScanInsertMax entries per bucket, the dispatcher
  /// refines both to kMaxBuckets for good; dispatch order is the same at
  /// every geometry.
  uint32_t calendar_buckets = 0;

  Status Validate() const;
};

/// Priority-queue machinery shared by the three disciplines.
class Dispatcher {
 public:
  static Result<Dispatcher> Create(const DispatcherConfig& config);

  /// Inserts a request with characterization value `v`. The push_back-style
  /// overload pair keeps both call shapes single-transfer: lvalue callers
  /// copy straight into the slot pool, movers (the simulator's arrival
  /// handoff) move straight in — neither pays an intermediate Request.
  CSFC_HOT void Insert(CValue v, const Request& r);
  CSFC_HOT void Insert(CValue v, Request&& r);

  /// Removes and returns the next request to serve (nullopt when empty).
  /// The payload is moved out of the slot pool, never copied.
  CSFC_HOT std::optional<Request> Pop();

  size_t size() const { return active_.size() + waiting_.size(); }
  bool empty() const { return size() == 0; }

  /// True when the next Pop() will swap the queues (the active batch is
  /// exhausted and a new one is about to form from q').
  bool NeedsSwapForPop() const { return active_.empty() && !waiting_.empty(); }

  /// Recomputes the characterization value of every waiting (q') request:
  /// gathers them, invokes `key` exactly once for the whole set, and
  /// restores calendar order in one per-bucket sweep (sequence numbers,
  /// and so FIFO among ties, are kept). Used by the Cascaded-SFC scheduler
  /// to re-characterize a forming batch against the *current* head
  /// position and time through Encapsulator::CharacterizeBatch, so the
  /// SFC3 cylinder sweep of each batch is coherent (and deadline urgency
  /// is current) instead of frozen at the various enqueue instants.
  CSFC_HOT void RekeyWaitingBatch(BatchRekeyFn key);

  /// Current blocking window (grows under ER).
  double current_window() const { return window_; }
  /// Total preemptions performed (conditional discipline).
  uint64_t preemptions() const { return preemptions_; }
  /// Total SP promotions performed.
  uint64_t promotions() const { return promotions_; }
  /// Total queue swaps.
  uint64_t swaps() const { return swaps_; }
  /// Current calendar bucket count of q and q': the starting geometry,
  /// or BucketedSlotHeap::kMaxBuckets once a deep backlog refined it.
  uint32_t calendar_buckets() const { return active_.num_buckets(); }

  /// Attaches the tracer preempt / SP-promote / queue-swap / ER-reset
  /// events are emitted through (null or disabled = no tracing; the only
  /// residual cost is one branch per queue op). Event timestamps come
  /// from Tracer::now(), which the owning scheduler stamps from the
  /// DispatchContext before delegating.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  const DispatcherConfig& config() const { return config_; }

 private:
  /// "No request served yet" sentinel for current_ / preempt_bound_:
  /// NaN compares false against every arrival.
  static constexpr CValue kNoCurrent =
      std::numeric_limits<double>::quiet_NaN();

  explicit Dispatcher(const DispatcherConfig& config);

  CSFC_HOT void Swap();
  /// Reslices q and q' to BucketedSlotHeap::kMaxBuckets (cold; once).
  void Refine();
  /// Shared body of the Insert overloads; R is Request& or Request&&.
  template <typename R>
  CSFC_HOT void InsertImpl(CValue v, R&& r);
  /// Parks `r` in the slot pool and returns its slot index. Pop frees
  /// slots inline (payloads move straight from the pool into the returned
  /// optional, so there is no take-side counterpart).
  template <typename R>
  CSFC_HOT uint32_t AllocSlot(R&& r);

  /// Slot pool geometry: slot s lives at pool_[s >> kChunkBits][s &
  /// kChunkMask].
  static constexpr uint32_t kChunkBits = 12;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  /// The payload parked in `slot`.
  Request& Payload(uint32_t slot) {
    return pool_[slot >> kChunkBits][slot & kChunkMask];
  }

  DispatcherConfig config_;
  double window_;
  /// v_c of the most recently dispatched request — the paper's T_cur, the
  /// request the disk is serving. Arrival comparisons use this, not the
  /// queue head (Figure 3 vs. Figure 4 narrative). It persists after the
  /// service completes; a stale value is harmless because the queues are
  /// then empty and every path drains the newcomer immediately. NaN
  /// until the first dispatch: every comparison against it is false,
  /// which is exactly the "nothing served yet, no preemption" rule.
  CValue current_ = kNoCurrent;
  /// current_ - window_, maintained wherever either changes: the
  /// conditional-preemption test in Insert is then one compare, with the
  /// NaN start meaning "never preempt" for free.
  CValue preempt_bound_ = kNoCurrent;
  /// Pop runs the SP scan (conditional discipline with serve_promote);
  /// folded to one flag at construction for the per-pop gate.
  bool sp_scan_ = false;
  /// Combined depth past which Insert refines both queues: kScanInsertMax
  /// entries per starting bucket; SIZE_MAX once refined, or when the
  /// starting geometry is already the finest.
  size_t refine_above_ = std::numeric_limits<size_t>::max();
  BucketedSlotHeap active_;   // q
  BucketedSlotHeap waiting_;  // q'
  /// Request payloads, indexed by the slot in each queue entry. Queues
  /// only ever shuffle 16-byte (v, seq, slot) entries; payloads stay put
  /// between Insert and Pop, including across SP promotions and queue
  /// swaps. The pool is a list of kChunkSize-request chunks, each reserved
  /// whole when added and filled in place, so growth appends a chunk and
  /// never moves a parked payload (a flat vector would move them all, with
  /// old and new buffers both alive at the peak). A copied Dispatcher's
  /// last chunk keeps no spare reserve and may reallocate on a later
  /// insert; that is harmless, because slots are indices and no payload
  /// pointer outlives a call.
  std::vector<std::vector<Request>> pool_;
  std::vector<uint32_t> free_;
  /// Scratch for RekeyWaitingBatch (gathered payload pointers + new keys),
  /// reused across swaps so batch rekey settles to zero allocations.
  std::vector<const Request*> rekey_reqs_;
  std::vector<CValue> rekey_vals_;
  uint64_t seq_ = 0;
  uint64_t preemptions_ = 0;
  uint64_t promotions_ = 0;
  uint64_t swaps_ = 0;
  /// Borrowed observability tracer (see set_tracer); a copy shares the
  /// same tracer handle.
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace csfc

#endif  // CSFC_CORE_DISPATCHER_H_
