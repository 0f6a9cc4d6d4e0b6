// Contract annotations, checked by tools/csfc_analyze.
//
// CSFC_HOT marks a function as part of the scheduler's per-request hot
// path: the dispatch/rekey/characterize loop whose allocation behavior
// the paper's bounds depend on (a malloc inside Pop() turns the bounded
// priority-inversion argument into "bounded, plus whatever the allocator
// does"). csfc_analyze verifies that no allocation — `new`, malloc-family
// calls, `std::function` construction, node-based containers, or
// unsanctioned container growth — is reachable from a CSFC_HOT function,
// and that no allocating call sits inside a REQUIRES-annotated lock
// region reachable from one.
//
// Amortized growth that provably settles (slot pools, heap storage,
// scratch buffers reused across calls) is sanctioned explicitly: put
//
//   // csfc:alloc-ok(<short reason>)
//
// on the allocating line. The analyzer skips marked lines; the marker
// keeps every sanctioned allocation visible and greppable rather than
// silently grandfathered.
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
// Under clang the macros expand to `annotate` attributes the AST engine
// reads directly; other compilers see nothing (the regex fallback engine
// matches the macro textually, so annotations work under gcc too).

#ifndef CSFC_COMMON_ANNOTATIONS_H_
#define CSFC_COMMON_ANNOTATIONS_H_

#if defined(__clang__)
#define CSFC_HOT __attribute__((annotate("csfc_hot")))
#define CSFC_DETERMINISTIC __attribute__((annotate("csfc_deterministic")))
#else
#define CSFC_HOT  // no-op: the analyzer's regex engine matches the token
#define CSFC_DETERMINISTIC  // no-op: matched textually by the regex engine
#endif

#endif  // CSFC_COMMON_ANNOTATIONS_H_
