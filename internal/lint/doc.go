// Package lint is the simulator's domain-specific static analysis suite:
// five analyzers that machine-check the invariants the experimental claims
// rest on, plus the tiny framework that runs them.
//
// The invariants are the ones the repository otherwise enforces only by
// convention and golden-file diffing:
//
//   - detrand: results must be bit-deterministic, so simulator code may not
//     read wall-clock time (time.Now and friends) or use math/rand; virtual
//     time flows through hw.Clock and randomness through internal/simrand.
//   - maporder: Go map iteration order is randomised per run, so a range
//     over a map may not let the visit order escape into rows, rendered
//     tables, formatted output or the trace log without a sorted-keys idiom.
//   - tracecomp: all cycle charging goes through trace.Comp handles interned
//     at construction time (the flat-ledger invariant that bought the
//     22 -> 4.2 ns/op charge path); component names may not be built with
//     fmt.Sprintf or string concatenation at a charge site.
//   - boundedgo: all parallelism goes through the bounded worker pool in
//     internal/core/runner.go, so stop-on-failure and the serial==parallel
//     determinism guarantee hold; naked go statements are forbidden
//     elsewhere.
//   - regspec: every result column schema is a compile-time constant:
//     core.Col's name and unit are string constants, never computed.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf) but is self-contained: packages are loaded with
// `go list -export` plus the standard library's go/parser and go/types, so
// the suite builds with no third-party dependencies. cmd/vmmklint is the
// multichecker binary; `go run ./cmd/vmmklint ./...` must exit clean on this
// repository and CI enforces that on every push.
//
// A finding can be suppressed with a trailing or preceding line comment
//
//	//vmmklint:ignore <reason>
//
// The reason is mandatory; a bare directive is itself a diagnostic. The
// directive applies to its own source line and the line directly below it,
// and is meant for the handful of sites where the rule is deliberately
// broken (there are currently none in the tree).
package lint
