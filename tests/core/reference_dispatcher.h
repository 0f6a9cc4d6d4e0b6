// Reference dispatcher: the original std::map-backed implementation, kept
// verbatim as the semantic oracle for the calendar-queue Dispatcher. The
// equivalence suites replay every op against both and assert they agree;
// it is not used on any production path.

#ifndef CSFC_TESTS_CORE_REFERENCE_DISPATCHER_H_
#define CSFC_TESTS_CORE_REFERENCE_DISPATCHER_H_

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/dispatcher.h"

namespace csfc {

class ReferenceDispatcher {
 public:
  explicit ReferenceDispatcher(const DispatcherConfig& config)
      : config_(config), window_(config.window) {}

  void Insert(CValue v, const Request& r) {
    const auto key = std::make_pair(v, seq_++);
    switch (config_.discipline) {
      case QueueDiscipline::kFullyPreemptive:
        active_.emplace(key, r);
        return;
      case QueueDiscipline::kNonPreemptive:
        waiting_.emplace(key, r);
        return;
      case QueueDiscipline::kConditionallyPreemptive: {
        if (!current_.has_value()) {
          waiting_.emplace(key, r);
          return;
        }
        const CValue v_cur = *current_;
        if (v < v_cur - window_) {
          active_.emplace(key, r);
          ++preemptions_;
          if (config_.expand_reset) window_ *= config_.expansion_factor;
        } else {
          waiting_.emplace(key, r);
        }
        return;
      }
    }
  }

  std::optional<Request> Pop() {
    if (config_.discipline == QueueDiscipline::kConditionallyPreemptive &&
        config_.serve_promote && !active_.empty() && !waiting_.empty()) {
      const CValue v_cur = active_.begin()->first.first;
      auto it = waiting_.begin();
      while (it != waiting_.end() && it->first.first < v_cur - window_) {
        active_.insert(*it);
        it = waiting_.erase(it);
        ++promotions_;
      }
    }
    if (active_.empty()) {
      if (waiting_.empty()) return std::nullopt;
      Swap();
    }
    auto it = active_.begin();
    // Copy, not move: the reference stays the verbatim seed implementation.
    Request r = it->second;
    current_ = it->first.first;
    active_.erase(it);
    return r;
  }

  /// Rekeys q' from one call of `key` over every waiting request; ties
  /// keep their insertion sequence.
  void RekeyWaitingBatch(BatchRekeyFn key) {
    std::vector<const Request*> reqs;
    reqs.reserve(waiting_.size());
    for (const auto& [old_key, r] : waiting_) reqs.push_back(&r);
    std::vector<CValue> vals(waiting_.size());
    key(reqs, vals);
    Queue rekeyed;
    size_t i = 0;
    for (auto& [old_key, r] : waiting_) {
      rekeyed.emplace(std::make_pair(vals[i++], old_key.second), std::move(r));
    }
    waiting_ = std::move(rekeyed);
  }

  size_t size() const { return active_.size() + waiting_.size(); }
  bool empty() const { return size() == 0; }
  bool NeedsSwapForPop() const { return active_.empty() && !waiting_.empty(); }
  double current_window() const { return window_; }
  uint64_t preemptions() const { return preemptions_; }
  uint64_t promotions() const { return promotions_; }
  uint64_t swaps() const { return swaps_; }

 private:
  // Key: (v_c, insertion sequence) so exact ties dispatch FIFO.
  using Queue = std::map<std::pair<CValue, uint64_t>, Request>;

  void Swap() {
    std::swap(active_, waiting_);
    ++swaps_;
    if (config_.expand_reset) window_ = config_.window;  // ER reset
  }

  DispatcherConfig config_;
  double window_;
  std::optional<CValue> current_;
  Queue active_;   // q
  Queue waiting_;  // q'
  uint64_t seq_ = 0;
  uint64_t preemptions_ = 0;
  uint64_t promotions_ = 0;
  uint64_t swaps_ = 0;
};

}  // namespace csfc

#endif  // CSFC_TESTS_CORE_REFERENCE_DISPATCHER_H_
