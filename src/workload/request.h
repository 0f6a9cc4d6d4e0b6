// The multimedia disk request: the multi-dimensional point the Cascaded-SFC
// scheduler linearizes. A request carries D priority-like QoS parameters
// (level 0 = most important), an absolute real-time deadline (or
// kNoDeadline), a cylinder position, and a transfer size.

#ifndef CSFC_WORKLOAD_REQUEST_H_
#define CSFC_WORKLOAD_REQUEST_H_

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "common/small_vector.h"
#include "common/types.h"

namespace csfc {

/// Per-request vector of priority levels, one per QoS dimension: at most
/// kMaxPriorityDims, the paper's maximum of 12 dimensions (Fig. 6), held
/// inline. Workload and metrics configs and the trace parser reject more.
inline constexpr size_t kMaxPriorityDims = 12;
using PriorityVec = SmallVector<PriorityLevel, kMaxPriorityDims>;

/// Sentinel deadline for requests with relaxed (no) deadlines.
inline constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

/// A disk request flowing through the simulator. Fields are ordered widest
/// first so the struct packs into 96 bytes with no heap part: every ring
/// cell, drain buffer, slot-pool entry and std::optional<Request> hand-off
/// copies it as one memcpy.
struct Request {
  RequestId id = 0;
  /// Absolute arrival time.
  SimTime arrival = 0;
  /// Absolute deadline; kNoDeadline when relaxed.
  SimTime deadline = kNoDeadline;
  /// Transfer size in bytes.
  uint64_t bytes = 64 * 1024;
  /// Target cylinder.
  Cylinder cylinder = 0;
  /// Owning stream for stream workloads (0 when not applicable).
  uint32_t stream = 0;
  /// QoS priority levels; empty for single-class workloads.
  PriorityVec priorities;
  /// True for writes (affects nothing in the base disk model but is kept
  /// for stream workloads and trace fidelity).
  bool is_write = false;

  bool has_deadline() const { return deadline != kNoDeadline; }

  /// The priority level on dimension `k`, or 0 if the request has fewer
  /// dimensions.
  PriorityLevel priority(size_t k) const {
    return k < priorities.size() ? priorities[k] : 0;
  }

  /// Debug rendering: "id=3 t=12.5ms dl=100ms cyl=77 pri=[1,0,4]".
  std::string DebugString() const;
};

// Requests move through the ingest ring, drain buffers, slot pools and
// growing vectors on the zero-copy dispatch path; a member that made the
// copy non-trivial (or grew the struct) would put a per-request cost back
// on every one of those hops.
static_assert(std::is_trivially_copyable_v<Request>,
              "Request must stay trivially copyable: every queue hop is a "
              "memcpy");
// A throwing move would silently degrade every vector growth and slot
// recycle to copies.
static_assert(std::is_nothrow_move_constructible_v<Request> &&
                  std::is_nothrow_move_assignable_v<Request>,
              "Request's moves must be noexcept");
static_assert(sizeof(Request) == 96, "Request must stay 96 bytes");

}  // namespace csfc

#endif  // CSFC_WORKLOAD_REQUEST_H_
