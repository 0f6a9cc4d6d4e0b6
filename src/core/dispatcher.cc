#include "core/dispatcher.h"

#include <cassert>
#include <limits>
#include <utility>

namespace csfc {

Status DispatcherConfig::Validate() const {
  if (window < 0.0) {
    return Status::InvalidArgument("window must be >= 0");
  }
  if (expand_reset && expansion_factor <= 1.0) {
    return Status::InvalidArgument("expansion_factor must be > 1");
  }
  if (calendar_buckets > BucketedSlotHeap::kMaxBuckets) {
    return Status::InvalidArgument(
        "calendar_buckets exceeds the v_c grid resolution");
  }
  return Status::OK();
}

Result<Dispatcher> Dispatcher::Create(const DispatcherConfig& config) {
  if (Status s = config.Validate(); !s.ok()) return s;
  return Dispatcher(config);
}

Dispatcher::Dispatcher(const DispatcherConfig& config)
    : config_(config),
      window_(config.window),
      sp_scan_(config.discipline == QueueDiscipline::kConditionallyPreemptive &&
               config.serve_promote) {
  const uint32_t buckets = config_.calendar_buckets != 0
                               ? config_.calendar_buckets
                               : kDefaultCalendarBuckets;
  // Both queues share one calendar geometry so Swap stays a pointer
  // exchange and SP promotion a per-bucket run move.
  active_.Configure(buckets);
  waiting_.Configure(buckets);
  if (active_.num_buckets() < BucketedSlotHeap::kMaxBuckets) {
    refine_above_ =
        size_t{active_.num_buckets()} * BucketedSlotHeap::kScanInsertMax;
  }
}

void Dispatcher::Refine() {
  // Both at once: the queues must keep sharing one geometry.
  active_.Refine();
  waiting_.Refine();
  refine_above_ = std::numeric_limits<size_t>::max();
}

template <typename R>
uint32_t Dispatcher::AllocSlot(R&& r) {
  if (!free_.empty()) {
    const uint32_t slot = free_.back();
    free_.pop_back();
    Payload(slot) = std::forward<R>(r);
    return slot;
  }
  if (pool_.empty() || pool_.back().size() == kChunkSize) {
    pool_.emplace_back().reserve(kChunkSize);  // csfc:alloc-ok(one chunk per kChunkSize slots of peak depth, then recycles)
  }
  std::vector<Request>& chunk = pool_.back();
  chunk.push_back(std::forward<R>(r));  // csfc:alloc-ok(fills the chunk's reserve in place)
  return static_cast<uint32_t>(((pool_.size() - 1) << kChunkBits) |
                               (chunk.size() - 1));
}

void Dispatcher::Insert(CValue v, const Request& r) { InsertImpl(v, r); }

void Dispatcher::Insert(CValue v, Request&& r) {
  InsertImpl(v, std::move(r));
}

template <typename R>
void Dispatcher::InsertImpl(CValue v, R&& r) {
  const RequestId id = r.id;  // for the preempt trace after the transfer
  const QueueKey key{v, seq_++};
  // Route before parking the payload: the queue decision is pure flag
  // math, and knowing the target queue up front lets its lines prefetch
  // underneath the payload copy into the slot pool.
  bool preempt = false;
  switch (config_.discipline) {
    case QueueDiscipline::kFullyPreemptive:
      preempt = true;
      break;
    case QueueDiscipline::kNonPreemptive:
      // The batch always forms in q'.
      break;
    case QueueDiscipline::kConditionallyPreemptive:
      // Figure 3: the arrival is compared against T_cur, the request the
      // disk is currently serving (the most recently dispatched one); it
      // preempts only when significantly higher priority (Figure 3c).
      // Lower priority, higher-but-inside-the-window (Figures 3a, 3b), or
      // nothing served yet (NaN bound): wait for the next batch in q'.
      preempt = v < preempt_bound_;
      break;
  }
  BucketedSlotHeap& q = preempt ? active_ : waiting_;
  q.PrefetchFor(v);
  const uint32_t slot = AllocSlot(std::forward<R>(r));
  q.Push(key, slot);
  // Past ~kScanInsertMax entries per bucket every insert pays a binary
  // search and a memmove over a long run; one bucket per grid cell keeps
  // runs short at any depth the grid can separate.
  if (size() > refine_above_) Refine();
  if (preempt &&
      config_.discipline == QueueDiscipline::kConditionallyPreemptive) {
    ++preemptions_;
    if (config_.expand_reset) {
      window_ *= config_.expansion_factor;
      preempt_bound_ = current_ - window_;
    }
    if (tracer_ != nullptr && tracer_->enabled()) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kPreempt;
      e.t = tracer_->now();
      e.id = id;
      e.vc = v;
      e.window = window_;
      tracer_->Emit(e);
    }
  }
  // Re-issue the next-pop pool prefetch (Pop's tail already issued one a
  // full op earlier): if the arrival did not displace the minimum this
  // doubles the prefetch lead on the same two lines for ~free, and if it
  // did, the new minimum's slot is the one just written — still hot.
  if (!active_.empty()) {
    const char* next =
        reinterpret_cast<const char*>(&Payload(active_.MinSlot()));
    __builtin_prefetch(next);
    __builtin_prefetch(next + 64);
  }
}

void Dispatcher::Swap() {
  swap(active_, waiting_);
  ++swaps_;
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  if (tracing) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kQueueSwap;
    e.t = tracer_->now();
    e.queue_depth = size();
    tracer_->Emit(e);
  }
  if (config_.expand_reset) {
    window_ = config_.window;  // ER reset
    preempt_bound_ = current_ - window_;
    if (tracing) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kWindowReset;
      e.t = tracer_->now();
      e.window = window_;
      tracer_->Emit(e);
    }
  }
}

std::optional<Request> Dispatcher::Pop() {
  if (sp_scan_ && !active_.empty() && !waiting_.empty()) {
    // SP: promote q' requests that now significantly beat the batch head.
    // The threshold is fixed before the scan (promoted requests do not
    // themselves lower it), matching the reference implementation. Both
    // minima come from caches, so the common no-promotion case is decided
    // in two loads and a compare.
    const CValue bound = active_.MinValue() - window_;
    if (waiting_.MinValue() < bound) {
      // The whole below-threshold slice moves in one bulk transfer
      // (mostly O(1) run moves), handing each promoted entry to the
      // tracer in service order when one is attached.
      if (tracer_ != nullptr && tracer_->enabled()) {
        promotions_ += waiting_.DrainBelowInto(
            bound, active_, [this](const BucketedSlotHeap::Entry& e) {
              obs::TraceEvent ev;
              ev.kind = obs::TraceEventKind::kPromote;
              ev.t = tracer_->now();
              ev.id = Payload(e.slot).id;
              ev.vc = e.v;
              ev.window = window_;
              tracer_->Emit(ev);
            });
      } else {
        promotions_ += waiting_.DrainBelowInto(
            bound, active_, [](const BucketedSlotHeap::Entry&) {});
      }
    }
  }
  if (active_.empty()) {
    if (waiting_.empty()) return std::nullopt;
    Swap();
  }
  const BucketedSlotHeap::Entry e = active_.PopMin();
  current_ = e.v;
  preempt_bound_ = current_ - window_;
  // The next pop's payload is known now: start pulling it in while the
  // caller processes this one and the next arrival is inserted. At depth
  // >= 10^4 the slot pool outgrows L2 and this hides most of the
  // payload-move miss. A Request spans two cache lines; the move reads
  // both.
  if (!active_.empty()) {
    const char* next =
        reinterpret_cast<const char*>(&Payload(active_.MinSlot()));
    __builtin_prefetch(next);
    __builtin_prefetch(next + 64);
  }
  // Move the payload straight from its slot into the returned optional:
  // one ~100-byte transfer per pop, not a slot -> local -> optional pair.
  std::optional<Request> out(std::move(Payload(e.slot)));
  free_.push_back(e.slot);  // csfc:alloc-ok(free list capacity tracks the slot pool)
  return out;
}

void Dispatcher::RekeyWaitingBatch(BatchRekeyFn key) {
  const size_t n = waiting_.size();
  rekey_reqs_.resize(n);  // csfc:alloc-ok(rekey scratch reused across swaps)
  size_t gathered = 0;
  // Gather in AssignKeys' consumption order (bucket traversal order).
  waiting_.ForEachEntrySlot(
      [&](uint32_t slot) { rekey_reqs_[gathered++] = &Payload(slot); });
  assert(gathered == n);
  rekey_vals_.resize(n);  // csfc:alloc-ok(rekey scratch reused across swaps)
  key(rekey_reqs_, rekey_vals_);
  waiting_.AssignKeys(rekey_vals_);
}

}  // namespace csfc
