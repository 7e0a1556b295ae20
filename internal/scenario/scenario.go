package scenario

import (
	"slices"
	"strings"

	"vmmk/internal/hw"
	"vmmk/internal/simrand"
)

// Subsystems every scenario row must name — the layers of the simulator,
// each of which contributes negative scenarios to the matrix.
var Subsystems = []string{"cluster", "fslite", "hw", "mk", "mkos", "vmm", "vmmos"}

// Outcome is the typed expected result of a scenario's armed run: a
// sentinel error, an expected panic, a post-mortem state predicate, and/or
// a cross-leg comparison. Desc is the short human-readable label the
// listings and result tables show. At least one of Err, Panic, Check or
// Compare must be set (TestRowsWellFormed enforces it).
type Outcome struct {
	// Desc is the short label for the expected outcome ("ErrGrantRevoked",
	// "panic: CPU index out of range", "bitmap consistent, old data intact").
	Desc string
	// Err, when non-nil, is the sentinel the armed Run must return,
	// matched with errors.Is. When nil, the armed Run must return nil.
	Err error
	// Panic, when non-empty, is a substring the armed Run must panic with.
	// Expected panics are hw-contract violations ("always a kernel bug").
	Panic string
	// Check, when non-nil, is the post-mortem state predicate: it runs
	// after Run in both the armed and the disarmed leg and must return nil.
	Check func(env *Env) error
	// Compare, when non-nil, is the cross-leg trace invariant: it runs once
	// after both legs pass their own grading, with the control and armed
	// Envs. By then the legs' machines are back in the pool, so Compare
	// must consult only what Run copied into Env.State (recorder deltas,
	// counts, costs) — never a live *hw.Machine.
	Compare func(control, armed *Env) error
}

// S is one scenario row of the matrix.
type S struct {
	// ID is "<subsystem>/<slug>", unique across the matrix.
	ID string
	// Subsystem is the layer under test: one of Subsystems.
	Subsystem string
	// Fault is the one-line description of the injected fault.
	Fault string
	// Cfg shapes the machine the row runs on; nil means DefaultConfig.
	Cfg *hw.MachineConfig
	// Expect is the typed expected outcome of the armed run.
	Expect Outcome
	// Run builds the system under test and triggers the fault when
	// env.Armed — and must run the identical path, injection disabled,
	// when not. The harness executes both legs.
	Run func(env *Env) error
}

// Env is the per-leg execution environment the harness hands a row.
type Env struct {
	// M is the pooled machine the leg runs on.
	M *hw.Machine
	// Armed reports whether the fault is injected this leg. Rows branch on
	// it to enable their fault hooks; everything else must be identical.
	Armed bool
	// State carries whatever Run built (the stack under test) to the
	// post-mortem Check. Each leg gets a fresh Env, so no state crosses
	// legs or repeated matrix runs.
	State any

	// pool is the worker's machine pool the leg takes its machines from,
	// arch the descriptor they are built for, and extra the machines
	// Machine handed out beyond M. The harness puts them all back when the
	// leg ends.
	pool  *hw.MachinePool
	arch  *hw.Arch
	extra []*hw.Machine
}

// Machine takes an additional pooled machine for this leg (beyond env.M) —
// e.g. the destination host of a migration row. It goes back to the
// worker's pool with the rest of the leg's machines.
func (e *Env) Machine(cfg *hw.MachineConfig) *hw.Machine {
	if cfg == nil {
		cfg = DefaultConfig
	}
	m := e.pool.Get(e.arch, cfg)
	e.extra = append(e.extra, m)
	return m
}

// release puts the leg's machines back in the reverse of the order they
// were taken, mirroring the pool's LIFO reuse so repeated legs see the same
// machine sequence.
func (e *Env) release() {
	for i := len(e.extra) - 1; i >= 0; i-- {
		e.pool.Put(e.extra[i])
	}
	e.pool.Put(e.M)
	e.extra = nil
}

// DefaultConfig is the machine shape rows get when they declare no Cfg.
var DefaultConfig = &hw.MachineConfig{Frames: 1024}

// matrix holds every layer's rows, sorted by ID.
var matrix = func() []S {
	rows := slices.Concat(clusterRows, fsliteRows, hwRows, mkRows, mkosRows, vmmRows, vmmosRows)
	slices.SortFunc(rows, func(a, b S) int { return strings.Compare(a.ID, b.ID) })
	return rows
}()

// Rows returns the full matrix, sorted by ID.
func Rows() []S {
	return slices.Clone(matrix)
}

// Lookup returns the row with the given id.
func Lookup(id string) (S, bool) {
	for _, s := range matrix {
		if s.ID == id {
			return s, true
		}
	}
	return S{}, false
}

// ShuffledIDs returns every row ID in the seeded pseudo-random order the
// `scenarios -shuffle` mode runs them in. The permutation is a pure
// function of the seed, so a shuffled run is exactly reproducible — the
// point is to prove no row depends on its neighbours' pool residue, not to
// add nondeterminism.
func ShuffledIDs(seed uint64) []string {
	perm := simrand.New(seed).Perm(len(matrix))
	ids := make([]string, len(matrix))
	for i, j := range perm {
		ids[i] = matrix[j].ID
	}
	return ids
}
