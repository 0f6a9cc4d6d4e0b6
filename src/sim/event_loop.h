// The virtual-time event loop of the disk server, defined once: the
// offline simulator (DiskServerSimulator::Run) and the service
// front-end's virtual mode (svc::ServiceServer::RunVirtual) both run it,
// and the wall-clock pump drives the same DiskState in its own passes.

#ifndef CSFC_SIM_EVENT_LOOP_H_
#define CSFC_SIM_EVENT_LOOP_H_

#include <optional>
#include <utility>

#include "common/annotations.h"
#include "common/types.h"
#include "workload/generator.h"

namespace csfc {

/// The modeled disk: its clock, its head and the request in service.
struct DiskState {
  SimTime now = 0;
  Cylinder head = 0;
  bool busy = false;
  SimTime completion_time = 0;
  Request in_service;
  double service_ms = 0.0;  ///< modeled service time of `in_service`

  /// Puts `r` in service at `now` for `ms` modeled milliseconds. The disk
  /// stays busy for `ms * scale` of the clock (the pump's pacing).
  void Start(Request&& r, double ms, double scale = 1.0) {
    in_service = std::move(r);
    service_ms = ms;
    completion_time = AddSaturating(now, MsToSim(ms * scale));
    busy = true;
  }

  /// Ends the service in progress: the head rests on the served cylinder.
  void Finish() {
    head = in_service.cylinder;
    busy = false;
  }
};

/// Runs every arrival of `gen` through `disk` until the generator is dry
/// and nothing is left to dispatch. Whenever the disk is idle, dispatch()
/// may start a pending request (DiskState::Start). A completion is taken
/// iff it is due no later than the next arrival, and complete() runs once
/// the head rests on the served cylinder; otherwise arrive(Request&&)
/// takes the next arrival. Each hook runs with `disk.now` at its event's
/// time, and is a template parameter, so no event pays an indirect call.
template <typename Dispatch, typename Complete, typename Arrive>
CSFC_DETERMINISTIC void RunEventLoop(RequestGenerator& gen, DiskState& disk,
                                     Dispatch&& dispatch, Complete&& complete,
                                     Arrive&& arrive) {
  std::optional<Request> next = gen.Next();
  for (;;) {
    if (!disk.busy) dispatch();
    if (disk.busy && (!next || disk.completion_time <= next->arrival)) {
      disk.now = disk.completion_time;
      disk.Finish();
      complete();
    } else if (next) {
      disk.now = next->arrival;
      arrive(std::move(*next));
      next = gen.Next();
    } else {
      return;  // no arrivals left and nothing to dispatch
    }
  }
}

}  // namespace csfc

#endif  // CSFC_SIM_EVENT_LOOP_H_
