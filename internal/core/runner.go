package core

import (
	"runtime"
	"sync"

	"vmmk/internal/hw"
)

// Runner is the experiment engine: it executes the independent cells an
// experiment decomposes into on a bounded worker pool. One cell is one
// (platform, parameter-point) pair booting its own Platform/hw.Machine, so
// cells share no state and any interleaving yields the same table — results
// land at their cell's index, and every simrand stream is seeded inside the
// cell that consumes it, so serial and parallel runs are byte-identical.
//
// Machine pooling. Booting a hw.Machine is the dominant fixed cost of a
// cell, and cells are done with their machine the moment the row is
// computed. Every worker therefore owns a hw.MachinePool and hands it to
// each cell it runs as an argument: the cell takes its machines with Get (a
// Reset one, re-targeted to the cell's architecture and frame count, when
// the pool holds one of the cell's CPU count and log capacity, a fresh
// boot otherwise) and gives each back with Put. Pools are
// strictly per worker, so the hot path takes no lock and each worker's
// get/put sequence is deterministic. Because a Reset machine is observably
// identical to a new one (the contract hw.Machine.Reset pins, and
// TestExperimentsPooledVsFresh verifies per experiment), cells need not
// care which kind they got: the tables are byte-identical either way, at
// any -parallel width.
type Runner struct {
	// Parallel caps the number of cells in flight; <= 0 means GOMAXPROCS.
	Parallel int

	// poolMu guards pools, the idle machine pools handed to workers. Each
	// worker borrows one pool for the duration of an experiment (so the
	// per-cell get/put path is lock-free) and returns it when the fan-out
	// joins, which lets machines warm in one experiment be reused by the
	// next on the same Runner.
	poolMu sync.Mutex
	pools  []*hw.MachinePool
}

// NewRunner returns a runner with the given worker cap (<= 0: GOMAXPROCS).
func NewRunner(parallel int) *Runner { return &Runner{Parallel: parallel} }

func (r *Runner) workers() int {
	if r == nil || r.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Parallel
}

// borrowPool hands a worker an idle machine pool, creating one when all are
// in use. A nil Runner gets a nil pool, which hw.MachinePool.Get treats as
// "always build fresh".
func (r *Runner) borrowPool() *hw.MachinePool {
	if r == nil {
		return nil
	}
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if n := len(r.pools); n > 0 {
		p := r.pools[n-1]
		r.pools[n-1] = nil
		r.pools = r.pools[:n-1]
		return p
	}
	return hw.NewMachinePool()
}

// returnPool puts a worker's pool back for the next experiment on this
// Runner.
func (r *Runner) returnPool(p *hw.MachinePool) {
	if r == nil || p == nil {
		return
	}
	r.poolMu.Lock()
	r.pools = append(r.pools, p)
	r.poolMu.Unlock()
}

// RunCells executes n independent cells on up to r.Parallel workers and
// returns their results in cell order. Each cell gets its worker's own
// machine pool as an argument (see Runner), so serial and parallel runs are
// identical. Every experiment fans out through it, and so does any
// deterministic harness outside the registry (the scenario matrix). A
// failure stops the cells not yet started; the lowest-indexed failure
// actually observed is returned after in-flight cells drain.
func RunCells[T any](r *Runner, n int, cell func(pool *hw.MachinePool, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	workers := min(r.workers(), n)
	if workers == 1 {
		// Serial fast path: no goroutines, deterministic by construction.
		pool := r.borrowPool()
		defer r.returnPool(pool)
		for i := range out {
			v, err := cell(pool, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		mu      sync.Mutex
		errIdx  = n
		cellErr error // non-nil stops the cells not yet started
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return cellErr != nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker owns a machine pool for the whole fan-out:
			// per-cell reuse stays lock-free and deterministic.
			pool := r.borrowPool()
			defer r.returnPool(pool)
			for i := range idx {
				if failed() {
					continue // drain the channel without running cells
				}
				v, err := cell(pool, i)
				if err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, cellErr = i, err
					}
					mu.Unlock()
					continue
				}
				out[i] = v
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if cellErr != nil {
		return nil, cellErr
	}
	return out, nil
}

// runFlat is RunCells for experiments whose cells each yield a slice of
// rows: the per-cell groups are concatenated in cell order.
func runFlat[T any](r *Runner, n int, cell func(pool *hw.MachinePool, i int) ([]T, error)) ([]T, error) {
	groups, err := RunCells(r, n, cell)
	if err != nil {
		return nil, err
	}
	var out []T
	for _, g := range groups {
		out = append(out, g...)
	}
	return out, nil
}

// runFuncs executes a fixed list of heterogeneous cells (each already bound
// to its parameters) and concatenates their row groups in list order — the
// shape E3, E7 and E9 decompose into.
func runFuncs[T any](r *Runner, cells []func(pool *hw.MachinePool) ([]T, error)) ([]T, error) {
	return runFlat(r, len(cells), func(pool *hw.MachinePool, i int) ([]T, error) {
		return cells[i](pool)
	})
}
