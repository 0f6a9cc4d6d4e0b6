// The Cascaded-SFC multimedia disk scheduler: encapsulator + dispatcher
// behind the common Scheduler interface, so it plugs into the same
// simulator as every baseline.

#ifndef CSFC_CORE_CASCADED_SCHEDULER_H_
#define CSFC_CORE_CASCADED_SCHEDULER_H_

#include <memory>
#include <string>

#include "common/annotations.h"
#include "core/dispatcher.h"
#include "core/encapsulator.h"
#include "sched/scheduler.h"

namespace csfc {

/// Complete Cascaded-SFC configuration.
struct CascadedConfig {
  EncapsulatorConfig encapsulator;
  DispatcherConfig dispatcher;
  /// When a new batch forms (queue swap), recompute every waiting
  /// request's v_c against the current head position and time, so each
  /// batch's SFC3 sweep is coherent and deadline urgency is up to date.
  /// Irrelevant (and skipped) when only priority stages are active.
  bool recharacterize_on_swap = true;
};

/// The paper's scheduler.
class CascadedSfcScheduler final : public Scheduler {
 public:
  /// Builds the scheduler and its own encapsulator.
  static Result<std::unique_ptr<CascadedSfcScheduler>> Create(
      const CascadedConfig& config);
  /// Builds the scheduler over `encapsulator`, which must be non-null and
  /// built from config.encapsulator. The encapsulator is immutable, so every
  /// scheduler of one configuration can share it (the registry's csfc
  /// factory does); each scheduler still owns its queues.
  static Result<std::unique_ptr<CascadedSfcScheduler>> Create(
      const CascadedConfig& config,
      std::shared_ptr<const Encapsulator> encapsulator);

  std::string_view name() const override { return name_; }
  CSFC_HOT void Enqueue(Request r, const DispatchContext& ctx) override;
  /// Batch arrivals go through Encapsulator::CharacterizeBatch so the
  /// per-batch invariants (stage weights, normalization) are hoisted once
  /// per drained ring batch instead of once per request. Keys are
  /// identical to what sequential Enqueue would assign under the same
  /// context. The tracing path falls back to per-request Enqueue so the
  /// per-stage characterize events keep their exact shape.
  void EnqueueBatch(std::span<Request> batch,
                    const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return dispatcher_->size(); }
  /// Emits characterize events (with the per-stage SFC1/SFC2/SFC3
  /// intermediate values) on every Enqueue and batch re-key, and wires
  /// the dispatcher's preempt / SP-promote / queue-swap / ER-reset
  /// events. See Scheduler::Observe for the lifetime contract.
  void Observe(obs::Tracer& tracer) override;

  /// The characterization value assigned to the most recent Enqueue (for
  /// tests and introspection).
  CValue last_cvalue() const { return last_cvalue_; }

  const Dispatcher& dispatcher() const { return *dispatcher_; }
  const Encapsulator& encapsulator() const { return *encapsulator_; }

 private:
  CascadedSfcScheduler(std::shared_ptr<const Encapsulator> encapsulator,
                       Dispatcher dispatcher, bool recharacterize_on_swap);

  std::shared_ptr<const Encapsulator> encapsulator_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::string name_;
  CValue last_cvalue_ = 0.0;
  bool recharacterize_on_swap_;
  obs::Tracer* tracer_ = nullptr;  // borrowed; set by Observe
  /// Scratch for EnqueueBatch (payload pointers + keys), reused across
  /// drained batches.
  std::vector<const Request*> batch_ptr_scratch_;
  std::vector<CValue> batch_key_scratch_;
};

}  // namespace csfc

#endif  // CSFC_CORE_CASCADED_SCHEDULER_H_
