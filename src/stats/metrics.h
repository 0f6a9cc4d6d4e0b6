// Simulation metrics: everything Section 5/6 plots.
//
//  * Priority inversion (Section 5.1): at each dispatch, for each QoS
//    dimension k, the number of still-waiting requests whose level on k is
//    strictly more important than the dispatched request's. Experiments
//    report totals as a percentage of the FIFO discipline's count on the
//    same workload (normalization happens in the experiment harness).
//  * Deadline misses, overall and per (dimension, level) — Figures 8-10
//    plus the selectivity breakdown of Figure 9.
//  * Seek-time and service accounting — Figure 10c.
//  * The Section-6 weighted loss cost: sum over levels of w_i * m_i / r_i
//    with weights decreasing linearly so the top level costs `hi_weight`
//    times the bottom one.

#ifndef CSFC_STATS_METRICS_H_
#define CSFC_STATS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/tracer.h"
#include "workload/request.h"

namespace csfc {

/// Shape of the QoS metric space — the one description of how many
/// dimensions and levels the metrics layer tracks, consumed by both
/// SimulatorConfig and MetricsCollector (previously duplicated as
/// SimulatorConfig.metric_dims/metric_levels + MetricsCollector(dims,
/// levels) arguments).
struct MetricsConfig {
  /// QoS dimensions tracked (paper maximum: 12).
  uint32_t dims = 3;
  /// Priority levels per dimension.
  uint32_t levels = 16;

  Status Validate() const;
};

/// Aggregated results of one simulation run.
struct RunMetrics {
  uint64_t arrivals = 0;
  uint64_t completions = 0;

  /// Priority inversions per QoS dimension (see header comment).
  std::vector<uint64_t> inversions_per_dim;
  uint64_t total_inversions() const;
  /// Population stddev of the per-dimension inversion counts (fairness
  /// metric of Figure 7a).
  double inversion_stddev() const;
  /// Smallest per-dimension inversion count (the "most favored dimension"
  /// of Figure 7b).
  uint64_t min_dim_inversions() const;

  /// Requests with deadlines that completed after them.
  uint64_t deadline_misses = 0;
  /// Requests that carried deadlines.
  uint64_t deadline_total = 0;
  /// misses_per_dim_level[k][l]: misses among requests at level l of
  /// dimension k. totals_per_dim_level mirrors it with totals.
  std::vector<std::vector<uint64_t>> misses_per_dim_level;
  std::vector<std::vector<uint64_t>> totals_per_dim_level;

  double total_seek_ms = 0.0;
  double total_service_ms = 0.0;
  /// Mean seek per served request.
  double mean_seek_ms() const;

  /// Completion - arrival, per request.
  RunningStat response_ms;
  /// Response-time statistics broken down by dimension-0 priority level
  /// (empty when no dimensions are tracked). The per-level max is the
  /// starvation indicator the ER policy exists to bound: a fully
  /// preemptive dispatcher lets the low levels' max grow without bound.
  std::vector<RunningStat> response_per_level;
  /// Simulated time at the last completion.
  SimTime makespan = 0;

  /// Section-6 weighted loss cost over dimension `dim`: weights fall
  /// linearly from hi_weight (level 0) to lo_weight (last level).
  double WeightedLossCost(size_t dim = 0, double hi_weight = 11.0,
                          double lo_weight = 1.0) const;

  /// Full metric set as one JSON object (the export schema every bench
  /// and tool emits; see DESIGN.md section 10).
  std::string ToJson() const;
};

/// Collects RunMetrics during a simulation. The simulator drives it; tests
/// may drive it directly. When a tracer is attached it also emits the
/// arrival / dispatch / completion / deadline-miss lifecycle events.
///
/// Call contract: OnArrival(r) as `r` enters the scheduler (before
/// Enqueue) and OnDispatch(r, ...) as it leaves (after Dispatch), with the
/// priorities it arrived with. The collector counts priority inversions
/// against the requests that arrived and were not yet dispatched, so that
/// set must be exactly the scheduler's queue.
class MetricsCollector {
 public:
  /// `config.dims` QoS dimensions with `config.levels` levels each are
  /// tracked; requests with fewer dimensions contribute to the dimensions
  /// they have.
  explicit MetricsCollector(const MetricsConfig& config);

  /// Attaches the tracer lifecycle events are emitted through (may be
  /// null / disabled; must outlive the collector's On* calls).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Counts `r` as waiting.
  void OnArrival(const Request& r);

  /// Stops counting `r` as waiting and charges, per dimension, one
  /// inversion for every waiting request at a strictly more important
  /// level. `queue_depth` (the scheduler's queue size after the dispatch)
  /// only feeds the trace event, so untraced callers may pass 0.
  void OnDispatch(const Request& r, size_t queue_depth);

  /// Called when service finishes. `seek_ms`/`service_ms` are that
  /// request's contributions.
  void OnCompletion(const Request& r, SimTime finish_time, double seek_ms,
                    double service_ms);

  const RunMetrics& metrics() const { return metrics_; }
  RunMetrics TakeMetrics() { return std::move(metrics_); }

 private:
  /// Multiset of the waiting requests' levels on one dimension. Levels
  /// in [0, levels) have one 32-bit counter each, 16 to a 64-byte block,
  /// plus a Fenwick tree over the block sums. Add and Remove touch one
  /// counter (and, past 16 levels, O(log blocks) tree nodes); CountBelow
  /// is one fixed-length masked sum inside the level's block plus a tree
  /// prefix over the whole blocks before it. At <= 16 levels there is one
  /// block and no tree walk at all. Levels past the grid, which trace
  /// replays may carry up to 2^32-1, go to an ordered map, so every count
  /// stays exact. A counter or block sum never exceeds the number of
  /// requests waiting, which is far below 2^32.
  class WaitingLevels {
   public:
    explicit WaitingLevels(uint32_t levels);
    void Add(PriorityLevel level);
    void Remove(PriorityLevel level);
    /// Waiting entries with a level strictly below `level`.
    uint64_t CountBelow(PriorityLevel level) const;

   private:
    static constexpr uint32_t kBlockLevels = 16;
    struct alignas(64) Block {
      uint32_t count[kBlockLevels];
    };
    /// Waiting entries in blocks [0, b).
    uint64_t BlocksBelow(size_t b) const;

    uint32_t levels_;
    std::vector<Block> blocks_;  ///< level l counts in blocks_[l / 16]
    /// 1-based Fenwick tree over the sums of blocks [0, blocks - 1): no
    /// prefix query reaches past the last block's start.
    std::vector<uint64_t> tree_;
    std::map<PriorityLevel, uint64_t> overflow_;  ///< level -> count
  };

  uint32_t dims_;
  uint32_t levels_;
  RunMetrics metrics_;
  /// waiting_[k]: levels of the waiting requests on dimension k.
  std::vector<WaitingLevels> waiting_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace csfc

#endif  // CSFC_STATS_METRICS_H_
