// Package scenario is the fault-injection scenario matrix: a table-driven
// negative-testing harness in the spirit of functional-test matrices where
// every row is a deliberate failure with an expected, typed outcome.
//
// Each scenario is one row — (id, subsystem, injected fault, expected
// outcome) plus a Run function that builds the system under test and
// triggers the fault. The expected outcome is typed: a sentinel error the
// armed run must return (matched with errors.Is), an expected panic (for
// hw-contract violations, which panic by design), and/or a post-mortem
// state predicate run after the fault (trace invariants, ledger
// consistency, filesystem bitmap/inode agreement). Each layer declares its
// rows in one literal table (rows_<subsystem>.go), and the matrix is the
// seven tables sorted by id.
//
// The harness asserts every row both ways: once armed (the fault fires and
// the outcome must match) and once disarmed (the same Run with injection
// off must pass cleanly), so a row can never "pass" by merely being broken.
// Rows execute deterministically on pooled hw.Machines via the bounded
// core.Runner fan-out — results are byte-identical at any -parallel width —
// and render as text and stable JSON through the core.Result model.
// `vmmklab scenarios` is the user-visible face.
package scenario
