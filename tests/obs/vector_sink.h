// VectorSink: the tests' in-memory trace sink. It keeps every event it
// receives, in arrival order, in a plain vector the test reads afterwards.
//
// Unlocked, like every single-threaded sink: one per simulator run, or
// behind obs::LockedSink when parallel sweep points share it.

#ifndef CSFC_TESTS_OBS_VECTOR_SINK_H_
#define CSFC_TESTS_OBS_VECTOR_SINK_H_

#include <vector>

#include "obs/trace_event.h"

namespace csfc {
namespace obs {

struct VectorSink final : EventSink {
  void OnEvent(const TraceEvent& event) override { events.push_back(event); }

  std::vector<TraceEvent> events;
};

}  // namespace obs
}  // namespace csfc

#endif  // CSFC_TESTS_OBS_VECTOR_SINK_H_
