#include "stats/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/json.h"

namespace csfc {

Status MetricsConfig::Validate() const {
  if (dims > kMaxPriorityDims) {
    return Status::InvalidArgument("metrics dims must be <= 12");
  }
  return Status::OK();
}

uint64_t RunMetrics::total_inversions() const {
  uint64_t total = 0;
  for (uint64_t v : inversions_per_dim) total += v;
  return total;
}

double RunMetrics::inversion_stddev() const {
  if (inversions_per_dim.empty()) return 0.0;
  double mean = 0.0;
  for (uint64_t v : inversions_per_dim) mean += static_cast<double>(v);
  mean /= static_cast<double>(inversions_per_dim.size());
  double var = 0.0;
  for (uint64_t v : inversions_per_dim) {
    const double d = static_cast<double>(v) - mean;
    var += d * d;
  }
  var /= static_cast<double>(inversions_per_dim.size());
  return std::sqrt(var);
}

uint64_t RunMetrics::min_dim_inversions() const {
  if (inversions_per_dim.empty()) return 0;
  return *std::min_element(inversions_per_dim.begin(),
                           inversions_per_dim.end());
}

double RunMetrics::mean_seek_ms() const {
  return completions == 0 ? 0.0
                          : total_seek_ms / static_cast<double>(completions);
}

double RunMetrics::WeightedLossCost(size_t dim, double hi_weight,
                                    double lo_weight) const {
  if (dim >= misses_per_dim_level.size()) return 0.0;
  const auto& misses = misses_per_dim_level[dim];
  const auto& totals = totals_per_dim_level[dim];
  const size_t levels = misses.size();
  double cost = 0.0;
  for (size_t l = 0; l < levels; ++l) {
    if (totals[l] == 0) continue;
    const double frac =
        levels > 1 ? static_cast<double>(l) / static_cast<double>(levels - 1)
                   : 0.0;
    const double w = hi_weight + frac * (lo_weight - hi_weight);
    cost += w * static_cast<double>(misses[l]) / static_cast<double>(totals[l]);
  }
  return cost;
}

std::string RunMetrics::ToJson() const {
  obs::JsonWriter w;
  const auto stat = [&w](const char* key, const RunningStat& s) {
    w.Key(key).BeginObject();
    w.Field("count", s.count());
    w.Field("mean", s.mean());
    w.Field("stddev", s.stddev());
    w.Field("min", s.min());
    w.Field("max", s.max());
    w.EndObject();
  };
  w.BeginObject();
  w.Field("arrivals", arrivals);
  w.Field("completions", completions);
  w.Field("makespan_ms", SimToMs(makespan));
  stat("response_ms", response_ms);
  w.Key("response_per_level").BeginArray();
  for (const RunningStat& s : response_per_level) {
    w.BeginObject();
    w.Field("count", s.count());
    w.Field("mean", s.mean());
    w.Field("max", s.max());
    w.EndObject();
  }
  w.EndArray();
  w.Key("inversions_per_dim").BeginArray();
  for (uint64_t v : inversions_per_dim) w.Value(v);
  w.EndArray();
  w.Field("total_inversions", total_inversions());
  w.Field("inversion_stddev", inversion_stddev());
  w.Key("deadline").BeginObject();
  w.Field("misses", deadline_misses);
  w.Field("total", deadline_total);
  w.Field("miss_rate", deadline_total == 0
                           ? 0.0
                           : static_cast<double>(deadline_misses) /
                                 static_cast<double>(deadline_total));
  w.EndObject();
  const auto grid = [&w](const char* key,
                         const std::vector<std::vector<uint64_t>>& g) {
    w.Key(key).BeginArray();
    for (const std::vector<uint64_t>& dim : g) {
      w.BeginArray();
      for (uint64_t v : dim) w.Value(v);
      w.EndArray();
    }
    w.EndArray();
  };
  grid("misses_per_dim_level", misses_per_dim_level);
  grid("totals_per_dim_level", totals_per_dim_level);
  w.Key("seek").BeginObject();
  w.Field("total_ms", total_seek_ms);
  w.Field("mean_ms", mean_seek_ms());
  w.EndObject();
  w.Field("service_total_ms", total_service_ms);
  w.Field("weighted_loss_cost", WeightedLossCost());
  w.EndObject();
  return w.Take();
}

MetricsCollector::WaitingLevels::WaitingLevels(uint32_t levels)
    : levels_(levels),
      blocks_((size_t{levels} + kBlockLevels - 1) / kBlockLevels, Block{}),
      tree_(blocks_.size(), 0) {}

void MetricsCollector::WaitingLevels::Add(PriorityLevel level) {
  if (level >= levels_) {
    ++overflow_[level];
    return;
  }
  ++blocks_[level / kBlockLevels].count[level % kBlockLevels];
  for (size_t i = level / kBlockLevels + 1; i < tree_.size(); i += i & -i) {
    ++tree_[i];
  }
}

void MetricsCollector::WaitingLevels::Remove(PriorityLevel level) {
  if (level >= levels_) {
    const auto it = overflow_.find(level);
    assert(it != overflow_.end() && "removed a level that was never added");
    if (it != overflow_.end() && --it->second == 0) overflow_.erase(it);
    return;
  }
  uint32_t& count = blocks_[level / kBlockLevels].count[level % kBlockLevels];
  assert(count > 0 && "removed a level that was never added");
  --count;
  for (size_t i = level / kBlockLevels + 1; i < tree_.size(); i += i & -i) {
    --tree_[i];
  }
}

uint64_t MetricsCollector::WaitingLevels::BlocksBelow(size_t b) const {
  uint64_t count = 0;
  for (; b > 0; b -= b & -b) count += tree_[b];
  return count;
}

uint64_t MetricsCollector::WaitingLevels::CountBelow(
    PriorityLevel level) const {
  if (level < levels_) {
    // All 16 counters of the level's block, masked to those below it: a
    // fixed-length loop the compiler vectorizes, with no data-dependent
    // exit to mispredict. (A `j < below ? count : 0` select compiles to
    // exactly such an exit at -O2.)
    const Block& block = blocks_[level / kBlockLevels];
    const uint32_t below = level % kBlockLevels;
    uint32_t in_block = 0;
    for (uint32_t j = 0; j < kBlockLevels; ++j) {
      const uint32_t mask = 0u - static_cast<uint32_t>(j < below);
      in_block += block.count[j] & mask;
    }
    return BlocksBelow(level / kBlockLevels) + in_block;
  }
  // Past the grid: everything on it, plus the smaller overflow levels.
  const size_t last = blocks_.size() - 1;
  uint64_t count = BlocksBelow(last);
  for (const uint32_t c : blocks_[last].count) count += c;
  for (auto it = overflow_.begin();
       it != overflow_.end() && it->first < level; ++it) {
    count += it->second;
  }
  return count;
}

MetricsCollector::MetricsCollector(const MetricsConfig& config)
    : dims_(config.dims), levels_(std::max(config.levels, 1u)) {
  metrics_.inversions_per_dim.assign(dims_, 0);
  metrics_.misses_per_dim_level.assign(
      dims_, std::vector<uint64_t>(levels_, 0));
  metrics_.totals_per_dim_level.assign(
      dims_, std::vector<uint64_t>(levels_, 0));
  if (dims_ > 0) metrics_.response_per_level.resize(levels_);
  waiting_.assign(dims_, WaitingLevels(levels_));
}

void MetricsCollector::OnArrival(const Request& r) {
  ++metrics_.arrivals;
  const size_t dims = std::min<size_t>(dims_, r.priorities.size());
  for (size_t k = 0; k < dims; ++k) waiting_[k].Add(r.priorities[k]);
  if (tracer_ != nullptr && tracer_->enabled()) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kArrival;
    e.t = r.arrival;
    e.id = r.id;
    e.cylinder = r.cylinder;
    e.level = r.priorities.empty() ? 0 : r.priorities[0];
    e.deadline = r.deadline;
    tracer_->Emit(e);
  }
}

void MetricsCollector::OnDispatch(const Request& r, size_t queue_depth) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kDispatch;
    e.t = tracer_->now();
    e.id = r.id;
    e.cylinder = r.cylinder;
    e.level = r.priorities.empty() ? 0 : r.priorities[0];
    e.queue_depth = queue_depth;
    tracer_->Emit(e);
  }
  // Dimensions `r` lacks rank it at level 0, below which nothing waits.
  const size_t dims = std::min<size_t>(dims_, r.priorities.size());
  for (size_t k = 0; k < dims; ++k) {
    WaitingLevels& waiting = waiting_[k];
    waiting.Remove(r.priorities[k]);
    // Waiting requests more important (smaller level) than the dispatched
    // one on dimension k: one inversion each.
    metrics_.inversions_per_dim[k] += waiting.CountBelow(r.priorities[k]);
  }
}

void MetricsCollector::OnCompletion(const Request& r, SimTime finish_time,
                                    double seek_ms, double service_ms) {
  ++metrics_.completions;
  metrics_.total_seek_ms += seek_ms;
  metrics_.total_service_ms += service_ms;
  const double response = SimToMs(finish_time - r.arrival);
  metrics_.response_ms.Add(response);
  if (dims_ > 0 && !r.priorities.empty()) {
    const size_t level = std::min<size_t>(r.priorities[0], levels_ - 1);
    metrics_.response_per_level[level].Add(response);
  }
  metrics_.makespan = std::max(metrics_.makespan, finish_time);
  const bool missed = r.has_deadline() && finish_time > r.deadline;
  if (r.has_deadline()) {
    ++metrics_.deadline_total;
    if (missed) ++metrics_.deadline_misses;
    const size_t dims = std::min<size_t>(dims_, r.priorities.size());
    for (size_t k = 0; k < dims; ++k) {
      const size_t level = std::min<size_t>(r.priorities[k], levels_ - 1);
      ++metrics_.totals_per_dim_level[k][level];
      if (missed) ++metrics_.misses_per_dim_level[k][level];
    }
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kCompletion;
    e.t = finish_time;
    e.id = r.id;
    e.level = r.priorities.empty() ? 0 : r.priorities[0];
    e.seek_ms = seek_ms;
    e.service_ms = service_ms;
    e.response_ms = response;
    e.missed = missed;
    tracer_->Emit(e);
    if (missed) {
      obs::TraceEvent miss;
      miss.kind = obs::TraceEventKind::kDeadlineMiss;
      miss.t = finish_time;
      miss.id = r.id;
      tracer_->Emit(miss);
    }
  }
}

}  // namespace csfc
