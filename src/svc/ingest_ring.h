// MpscIngestRing: the bounded lock-free multi-producer / single-consumer
// ring the service front-end ingests through. Producer threads TryPush
// admitted requests; the dispatcher thread batch-drains them into the
// scheduler. Bounded on purpose: a full ring is backpressure, surfaced to
// the caller as a ring_full rejection rather than an unbounded queue
// silently absorbing overload.
//
// The algorithm is the classic bounded-queue design with one atomic
// sequence number per cell (Vyukov). Each cell's `seq` encodes its state
// relative to the head/tail tickets:
//
//   seq == ticket       cell is free for the producer holding `ticket`
//   seq == ticket + 1   cell holds the element for that ticket (consumer
//                       side reads at seq == pos + 1)
//   otherwise           another lap owns the cell (full / not yet filled)
//
// Memory ordering (the contract DESIGN.md section 12 documents):
//   * producers CAS the tail ticket seq_cst — the ticket only partitions
//     cells between producers and publishes no payload, but the claim is
//     the producer's half of a store-buffering handshake: size() loads
//     the tail seq_cst, so a consumer that raises a seq_cst "waiting"
//     flag and then sees size() == 0 is ordered before any claim whose
//     producer then reads that flag false (svc/server.cc's idle wake);
//   * the payload is published by the producer's seq.store(release) and
//     acquired by the consumer's seq.load(acquire) — this pair is the
//     only producer->consumer edge and is what makes the element's
//     non-atomic payload visible;
//   * the consumer recycles a cell for the next lap with
//     seq.store(pos + capacity, release), which a producer acquires
//     before overwriting the slot.
//
// Single consumer: head_ is only ever advanced by the draining thread, so
// it needs no CAS; it stays atomic (relaxed) only so size() is readable
// from other threads as an approximation.
//
// Cells are padded to the destructive-interference range so the head and
// tail tickets and neighboring cells do not false-share.

#ifndef CSFC_SVC_INGEST_RING_H_
#define CSFC_SVC_INGEST_RING_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"

namespace csfc {
namespace svc {

/// `AtomicSize` is a seam for the deterministic interleaving explorer
/// (tests/svc/model_check.h): production code always uses the default
/// `std::atomic<size_t>`; the model checker substitutes an instrumented
/// atomic that yields to a controlled scheduler at every operation. The
/// substitute must mirror the std::atomic member signatures used below.
/// csfc_analyze treats `AtomicSize` members as atomics via the
/// [atomics].extra_types list in tools/csfc_analyze/concurrency.toml.
template <typename T, typename AtomicSize = std::atomic<size_t>>
class MpscIngestRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit MpscIngestRing(size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? size_t{2} : capacity) - 1),
        cells_(mask_ + 1) {
    for (size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscIngestRing(const MpscIngestRing&) = delete;
  MpscIngestRing& operator=(const MpscIngestRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Approximate occupancy (exact only when producers and the consumer
  /// are quiescent). The tail load is seq_cst to pair with TryPush's claim
  /// (see the header comment); on x86 it is a plain load either way.
  size_t size() const {
    const size_t tail = tail_.load(std::memory_order_seq_cst);
    const size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

  /// Attempts to push from any producer thread. Returns false when the
  /// ring is full (backpressure); the element is untouched in that case.
  CSFC_HOT bool TryPush(T&& value) {
    size_t pos = tail_.load(std::memory_order_relaxed);
    // Every retry means another producer won the CAS or the consumer
    // recycled a lap boundary, so each pass follows system-wide progress;
    // a full ring exits through the dif<0 branch below.
    // csfc:spin-ok(lock-free: retries only follow other threads' progress)
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        // Cell is free for this ticket; claim it. The release below
        // publishes the payload; seq_cst orders the claim for size()'s
        // readers (a locked cmpxchg on x86 whatever the order).
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_seq_cst)) {
          cell.value = std::move(value);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `pos`; retry with the new ticket.
      } else if (dif < 0) {
        // The consumer has not recycled this cell from the previous lap:
        // the ring is full.
        return false;
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Drains up to `max` elements into `out` (caller-owned buffer, not
  /// cleared). Single consumer only. Returns the number drained; no
  /// allocation as long as `out` has capacity for `max` more elements
  /// (callers reserve once and reuse the buffer across drains).
  CSFC_HOT size_t DrainInto(std::vector<T>& out, size_t max) {
    size_t pos = head_.load(std::memory_order_relaxed);
    size_t drained = 0;
    while (drained < max) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.seq.load(std::memory_order_acquire);
      if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) < 0) {
        break;  // next cell not yet published: ring drained
      }
      out.push_back(std::move(cell.value));  // csfc:alloc-ok(caller pre-reserves the drain buffer; growth settles after the first drain)
      // Recycle the cell for the producers' next lap.
      cell.seq.store(pos + capacity(), std::memory_order_release);
      ++pos;
      ++drained;
    }
    if (drained != 0) head_.store(pos, std::memory_order_relaxed);
    return drained;
  }

 private:
  struct alignas(kCacheLine) Cell {
    AtomicSize seq;
    T value;
  };

  const size_t mask_;
  std::vector<Cell> cells_;
  alignas(kCacheLine) AtomicSize tail_{0};  ///< producers' ticket
  alignas(kCacheLine) AtomicSize head_{0};  ///< consumer cursor
};

}  // namespace svc
}  // namespace csfc

#endif  // CSFC_SVC_INGEST_RING_H_
