#include "core/cascaded_scheduler.h"

#include <algorithm>
#include <utility>

namespace csfc {

Result<std::unique_ptr<CascadedSfcScheduler>> CascadedSfcScheduler::Create(
    const CascadedConfig& config) {
  Result<std::unique_ptr<Encapsulator>> e =
      Encapsulator::Create(config.encapsulator);
  if (!e.ok()) return e.status();
  return Create(config, std::move(*e));
}

Result<std::unique_ptr<CascadedSfcScheduler>> CascadedSfcScheduler::Create(
    const CascadedConfig& config,
    std::shared_ptr<const Encapsulator> encapsulator) {
  DispatcherConfig dc = config.dispatcher;
  if (dc.calendar_buckets == 0) {
    // Derive the calendar geometry from the SFC3 partition parameters the
    // encapsulator already carries: R sweep partitions of the v_c space,
    // each sliced at cylinder granularity. Slices per sweep are capped so
    // the total lands near kDefaultCalendarBuckets — the point where the
    // calendar's metadata arrays stay L1-resident (finer slicing
    // measurably loses at every queue depth).
    const uint32_t sweeps = std::max(config.encapsulator.partitions_r, 1u);
    const uint32_t max_slices = std::max(kDefaultCalendarBuckets / sweeps, 1u);
    const uint32_t slices =
        std::max(std::min(config.encapsulator.cylinders, max_slices), 1u);
    dc.calendar_buckets =
        std::min(sweeps * slices, BucketedSlotHeap::kMaxBuckets);
  }
  Result<Dispatcher> d = Dispatcher::Create(dc);
  if (!d.ok()) return d.status();
  // Re-characterization only matters when some stage depends on the
  // dispatch context (deadline urgency or cylinder distance).
  const EncapsulatorConfig& ec = config.encapsulator;
  const bool context_dependent =
      ec.stage2_mode != Stage2Mode::kDisabled ||
      ec.stage3_mode != Stage3Mode::kDisabled;
  return std::unique_ptr<CascadedSfcScheduler>(new CascadedSfcScheduler(
      std::move(encapsulator), std::move(*d),
      config.recharacterize_on_swap && context_dependent));
}

CascadedSfcScheduler::CascadedSfcScheduler(
    std::shared_ptr<const Encapsulator> encapsulator, Dispatcher dispatcher,
    bool recharacterize_on_swap)
    : encapsulator_(std::move(encapsulator)),
      dispatcher_(std::make_unique<Dispatcher>(std::move(dispatcher))),
      recharacterize_on_swap_(recharacterize_on_swap) {
  name_ = "csfc[" + encapsulator_->config().Signature() + "]";
}

void CascadedSfcScheduler::Observe(obs::Tracer& tracer) {
  tracer_ = &tracer;
  dispatcher_->set_tracer(&tracer);
}

void CascadedSfcScheduler::Enqueue(Request r, const DispatchContext& ctx) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->set_now(ctx.now);
    const StageValues sv = encapsulator_->CharacterizeStages(r, ctx);
    last_cvalue_ = sv.vc;
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kCharacterize;
    e.t = ctx.now;
    e.id = r.id;
    e.v1 = sv.v1;
    e.v2 = sv.v2;
    e.vc = sv.vc;
    tracer_->Emit(e);
  } else {
    last_cvalue_ = encapsulator_->Characterize(r, ctx);
  }
  dispatcher_->Insert(last_cvalue_, std::move(r));
}

void CascadedSfcScheduler::EnqueueBatch(std::span<Request> batch,
                                        const DispatchContext& ctx) {
  if (batch.empty()) return;
  if (tracer_ != nullptr && tracer_->enabled()) {
    for (Request& r : batch) Enqueue(std::move(r), ctx);
    return;
  }
  batch_ptr_scratch_.resize(batch.size());
  batch_key_scratch_.resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) batch_ptr_scratch_[i] = &batch[i];
  encapsulator_->CharacterizeBatch(batch_ptr_scratch_, ctx,
                                   batch_key_scratch_);
  for (size_t i = 0; i < batch.size(); ++i) {
    dispatcher_->Insert(batch_key_scratch_[i], std::move(batch[i]));
  }
  last_cvalue_ = batch_key_scratch_.back();
}

std::optional<Request> CascadedSfcScheduler::Dispatch(
    const DispatchContext& ctx) {
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  if (tracing) tracer_->set_now(ctx.now);
  if (recharacterize_on_swap_ && dispatcher_->NeedsSwapForPop()) {
    // Batch formation: the whole forming batch is re-characterized against
    // the current head/time in one CharacterizeBatch call, so the
    // encapsulator hoists its per-batch invariants once instead of
    // re-deriving them per waiting request. This is the dominant swap-time
    // cost at high queue depths.
    if (tracing) {
      // Tracing path: same batch shape, but per-stage values are needed so
      // v_c drift between arrival and service is attributable.
      dispatcher_->RekeyWaitingBatch(
          [this, &ctx](std::span<const Request* const> reqs,
                       std::span<CValue> out) {
            for (size_t i = 0; i < reqs.size(); ++i) {
              const StageValues sv =
                  encapsulator_->CharacterizeStages(*reqs[i], ctx);
              obs::TraceEvent e;
              e.kind = obs::TraceEventKind::kCharacterize;
              e.t = ctx.now;
              e.id = reqs[i]->id;
              e.v1 = sv.v1;
              e.v2 = sv.v2;
              e.vc = sv.vc;
              e.rekey = true;
              tracer_->Emit(e);
              out[i] = sv.vc;
            }
          });
    } else {
      dispatcher_->RekeyWaitingBatch(
          [this, &ctx](std::span<const Request* const> reqs,
                       std::span<CValue> out) {
            encapsulator_->CharacterizeBatch(reqs, ctx, out);
          });
    }
  }
  return dispatcher_->Pop();
}

}  // namespace csfc
