// Package analysis is nocvet: a project-specific static-analysis suite
// that enforces, at compile time, the invariants every shipped result of
// this repository depends on. The Table-2 goldens, the canonical
// instance hash that keys the nocd cache, and the workers-1..N
// bit-identical pins all assume properties that a single stray statement
// can silently break — a map iteration leaking its order into a result,
// a wall-clock read inside an engine, an allocation on the scratch-lane
// hot path, a blocking send that ignores cancellation. Runtime tests
// catch such violations only when an execution happens to hit them;
// these analyzers reject them before the code runs at all.
//
// # The determinism contract
//
// nocvet enforces five named policies:
//
//   - detmap: iteration order of a Go map must never influence anything
//     that escapes the loop in an order-sensitive way — slices that are
//     later compared or emitted, serialized output, hash inputs, or
//     floating-point accumulation. The sanctioned fix is sorted-key
//     extraction: collect the keys into a slice, sort it, iterate the
//     slice. Writes into other maps, delete calls, and exact integer
//     accumulation (commutative, so order-free) are allowed. In test
//     files only one rule applies: a map range whose body spawns
//     t.Run subtests is flagged, because it scrambles -v output and
//     failure order between runs.
//
//   - detsource: the engine packages (internal/search, internal/core,
//     internal/wormhole, internal/energy, internal/mapping) must not
//     read nondeterministic sources: time.Now/Since/Until, os.Getenv
//     and friends, or the globally-seeded top-level functions of
//     math/rand. The sanctioned seams are explicit seeded RNGs
//     (rand.New(rand.NewSource(seed))) and the progress-callback
//     plumbing, which carry all the entropy an engine is allowed.
//
//   - hotpath: functions annotated //nocvet:noalloc (the CDCM scratch
//     path: Simulator.RunScratch, CWM.SwapDelta/Commit,
//     Mapping.ValidateInto, and their callees) must not allocate:
//     no make/new, no heap-escaping composite literals, no append to
//     slices that are not rooted in a parameter or receiver (scratch
//     backing), no closures, no fmt calls, no allocating string
//     operations, no boxing conversions to interfaces, no map stores
//     (an insert may grow the bucket array — hot-path telemetry belongs
//     in atomics, not maps) — and every callee must itself be annotated
//     //nocvet:noalloc, with the math and sync/atomic packages exempt
//     (pure arithmetic and single-word atomic operations, the
//     sanctioned hot-path instrumentation primitive). Branches that
//     terminate in an error return or panic are exempt: they end the
//     run, so a cold-path allocation there cannot perturb the steady
//     state the testing.AllocsPerRun pins measure.
//
//   - ctxflow: cancellation must thread through every engine entry
//     point. Exported Run/Explore/CompareModels in internal/search and
//     internal/core must accept a context.Context (directly, via an
//     options struct, or via a receiver field — the engines' Ctx-field
//     seam), and a function that has a context must not perform a
//     bare blocking channel send the context cannot interrupt (sends
//     inside a select with a default or alternative arm, or on a code
//     path where the context is known nil, are fine).
//
//   - mutexhold: no potentially-blocking operation while holding a
//     mutex — channel sends and receives outside a multi-arm select,
//     par.Pool.Close, par.ForEachCtx fan-outs, sync.WaitGroup.Wait, and
//     HTTP response writes (including SSE flushes). The service
//     package's locks guard bookkeeping; anything that can park a
//     goroutine must run after Unlock. Pool.TrySubmit is exempt by
//     contract: it refuses instead of blocking.
//
// # Annotation grammar
//
// Two comment directives steer the suite:
//
//	//nocvet:noalloc
//
// placed in a function's doc comment opts that function into the
// hotpath policy. The analyzer also requires it on every function a
// noalloc function calls, which is how the property propagates down the
// call tree without whole-program analysis.
//
//	//nocvet:ignore <reason>
//
// suppresses all nocvet findings on its line — or, when the line opens
// a statement (an if, a loop, a call spanning lines), on that whole
// statement. The reason is mandatory; an ignore without one is itself a
// finding. Ignores are the escape hatch for code that is correct for
// reasons the analyzers cannot see (an order-insensitive fan-out over a
// subscriber set, a call through a callback its caller keeps
// allocation-free); the reason string
// is the reviewer-facing justification.
//
// # Running
//
// The multichecker lives in cmd/nocvet:
//
//	go run ./cmd/nocvet ./...
//
// exits nonzero if any finding survives ignore filtering. CI runs it as
// a blocking gate (make lint). Each analyzer has table-driven fixtures
// under internal/analysis/testdata with caught-violation and
// sanctioned-pattern corpora, exercised by the analysistest harness.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library: packages are enumerated with `go list -export` and
// type-checked from source against compiler export data, so the suite
// needs no dependencies beyond the Go toolchain itself.
package analysis
