package core

import (
	"context"

	"vmmk/internal/hw"
)

// Machine pooling. Booting a hw.Machine is the dominant fixed cost of an
// experiment cell, and cells destroy their machine the moment the row is
// computed. The runner therefore gives every worker its own hw.MachinePool,
// carried to the cells through the context: cells acquire a machine (a
// Reset one when the pool has seen the same architecture/config identity
// before, a fresh boot otherwise) and release it when the cell is done.
//
// Pools are strictly per worker — no locks on the hot path, and each
// worker's acquire/release sequence is deterministic. Because a Reset
// machine is observably identical to a new one (the contract
// hw.Machine.Reset pins, and TestExperimentsPooledVsFresh verifies per
// experiment), cells are free to ignore which kind they got: the tables are
// byte-identical either way, at any -parallel width.

// poolCtxKey carries the current worker's MachinePool in a cell context.
type poolCtxKey struct{}

// withPool attaches a worker's machine pool to the context handed to cells.
func withPool(ctx context.Context, p *hw.MachinePool) context.Context {
	return context.WithValue(ctx, poolCtxKey{}, p)
}

// poolFrom extracts the worker's machine pool; nil (build-fresh machines)
// when the context does not carry one — e.g. direct API calls bypassing the
// runner.
func poolFrom(ctx context.Context) *hw.MachinePool {
	p, _ := ctx.Value(poolCtxKey{}).(*hw.MachinePool)
	return p
}

// AcquireMachine hands out a machine for arch/cfg from the cell's worker
// pool and returns it together with the release that puts it back (Reset)
// for the next cell. The experiments and any harness built on RunCells (the
// scenario matrix) acquire their machines here. Without a pool in the
// context both degrade gracefully: the machine is a plain NewMachine and
// the release is a no-op.
func AcquireMachine(ctx context.Context, arch *hw.Arch, cfg *hw.MachineConfig) (*hw.Machine, func()) {
	p := poolFrom(ctx)
	m := p.Get(arch, cfg)
	return m, func() { p.Put(m) }
}
