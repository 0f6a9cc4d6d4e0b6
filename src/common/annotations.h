// Contract annotations, checked by tools/csfc_analyze.
//
// CSFC_HOT marks a function as part of the scheduler's per-request hot
// path: the dispatch/rekey/characterize loop whose allocation behavior
// the paper's bounds depend on (a malloc inside Pop() turns the bounded
// priority-inversion argument into "bounded, plus whatever the allocator
// does"). csfc_analyze verifies that no allocation — `new`, malloc-family
// calls, `std::function` construction, node-based containers, or
// unsanctioned container growth — is reachable from a CSFC_HOT function
// or from a REQUIRES-annotated lock region.
//
// Amortized growth that provably settles (slot pools, heap storage,
// scratch buffers reused across calls) is sanctioned explicitly: put
//
//   // csfc:alloc-ok(<short reason>)
//
// on the allocating line, or on a call line to sanction everything that
// call allocates: the analyzer skips a marked line and does not walk into
// a marked call. The marker keeps every sanctioned allocation visible and
// greppable rather than silently grandfathered.
//
// CSFC_DETERMINISTIC marks a function whose output must be a pure
// function of its inputs and recorded seeds: the simulator run loop,
// ServiceServer::RunVirtual, the characterization kernels, every
// Dispatch method, the SFC encode/decode maps, and the RunParallel
// result merge. Every bit-identity pin in this repo (batch vs
// per-request characterization, calendar vs the std::map reference,
// RunVirtual vs offline sim, twice-run sweeps, the
// csfc_golden cross-build ledger) rides on these functions, so
// csfc_analyze's determinism-taint family verifies their bodies touch
// no wall clock outside the common/clock seam, no std::random_device /
// time() / unseeded engine, no environment read outside the manifested
// allowlist, no pointer-to-integer cast (address-dependent ordering),
// and no thread-id-dependent branching. Unordered-container use inside
// one needs an explicit marker:
//
//   // csfc:unordered-ok(<why iteration order cannot reach output>)
//
// and a libm transcendental (log/exp/pow/sin/cos/...) on a deterministic
// path needs
//
//   // csfc:libm-ok(<why the call is reproducible across builds>)
//
// since those functions are correctly-rounded nowhere and pinned only
// per libm build (the golden ledger is what actually pins the values).
//
// Both macros expand to nothing: the analyzer matches them textually and
// walks the calls from each annotated function.

#ifndef CSFC_COMMON_ANNOTATIONS_H_
#define CSFC_COMMON_ANNOTATIONS_H_

#define CSFC_HOT
#define CSFC_DETERMINISTIC

#endif  // CSFC_COMMON_ANNOTATIONS_H_
