// Section 4.2 (Generalization): degenerate Cascaded-SFC configurations
// that emulate classical schedulers, plus convenience factories for the
// configurations the paper's experiments use. Each preset is verified
// against the genuine baseline implementation in presets_test.cc.

#ifndef CSFC_CORE_PRESETS_H_
#define CSFC_CORE_PRESETS_H_

#include <string>

#include "core/cascaded_scheduler.h"

namespace csfc {

/// EDF emulation: no SFC1, stage-2 formula with f >> 1 (deadline
/// dominates), no SFC3, fully-preemptive queue.
CascadedConfig PresetEdf(double deadline_horizon_ms = 1000.0);

/// Multi-queue emulation (priority levels served strictly in order,
/// deadline order within a level): stage-2 curve = C-Scan with priority
/// major, fully-preemptive queue.
CascadedConfig PresetMultiQueue(uint32_t priority_bits,
                                double deadline_horizon_ms = 1000.0);

/// C-SCAN emulation: only SFC3 with R = 1 (a single cylinder sweep per
/// batch), non-preemptive queue.
CascadedConfig PresetCScan(uint32_t cylinders);

/// SCAN-EDF emulation: stage-2 formula with f >> 1 and deadline
/// granularity expressed by the stage-3 partition count.
CascadedConfig PresetScanEdf(uint32_t cylinders,
                             double deadline_horizon_ms = 1000.0);

/// The Figure 5-7 configuration: SFC1 only (relaxed deadlines,
/// transfer-dominated service), conditionally-preemptive with window `w`.
CascadedConfig PresetStage1Only(const std::string& curve, uint32_t dims,
                                uint32_t bits, double window,
                                bool serve_promote = true);

/// The Figure 8-9 configuration: SFC1 (hilbert by default) + stage-2
/// formula with balance factor `f`; SFC3 off.
CascadedConfig PresetStage12(const std::string& sfc1, uint32_t dims,
                             uint32_t bits, double f, double window,
                             double deadline_horizon_ms);

/// The Figure 10 configuration: SFC1+SFC2 via `sfc1`/formula, SFC3 as the
/// R-partitioned C-Scan.
CascadedConfig PresetFull(const std::string& sfc1, uint32_t dims,
                          uint32_t bits, double f, uint32_t r,
                          uint32_t cylinders, double window,
                          double deadline_horizon_ms);

/// The Figure 11 configurations: single priority dimension entered
/// directly into a 2-D stage-2 curve against the deadline.
/// `deadline_major` true puts the deadline on the X (major) axis — the
/// paper's "-X" variants (EDF-like); false yields "-Y" (multi-queue-like).
CascadedConfig PresetStage2Curve(const std::string& sfc2, bool deadline_major,
                                 uint32_t bits, double window,
                                 double deadline_horizon_ms);

}  // namespace csfc

#endif  // CSFC_CORE_PRESETS_H_
