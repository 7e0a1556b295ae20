package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"vmmk/internal/hw"
)

// TestRunCellsOrderAndValues checks that results land at their cell's index
// no matter how the pool schedules them.
func TestRunCellsOrderAndValues(t *testing.T) {
	for _, parallel := range []int{1, 2, 8, 64} {
		r := NewRunner(parallel)
		out, err := RunCells(r, 100, func(_ *hw.MachinePool, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if len(out) != 100 {
			t.Fatalf("parallel=%d: got %d results", parallel, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

// TestRunCellsEmpty checks the degenerate case.
func TestRunCellsEmpty(t *testing.T) {
	out, err := RunCells(NewRunner(4), 0, func(_ *hw.MachinePool, i int) (int, error) {
		t.Fatal("cell ran for n=0")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", out, err)
	}
}

// TestRunCellsFirstError checks that a failing cell aborts the run and that
// the reported error is a real cell error, with the serial runner picking
// the lowest failing index exactly.
func TestRunCellsFirstError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("cell %d exploded", i) }
	for _, parallel := range []int{1, 4} {
		r := NewRunner(parallel)
		_, err := RunCells(r, 50, func(_ *hw.MachinePool, i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, boom(i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("parallel=%d: expected error", parallel)
		}
		if parallel == 1 && err.Error() != "cell 3 exploded" {
			t.Fatalf("serial: got %q, want the first failing cell", err)
		}
	}
}

// TestRunCellsErrorStopsLaterCells checks a failure actually prunes work:
// with one worker, nothing after the failing cell may run; with four, the
// cells not yet started when the failure lands are skipped.
func TestRunCellsErrorStopsLaterCells(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		var ran atomic.Int32
		_, err := RunCells(NewRunner(parallel), 1000, func(_ *hw.MachinePool, i int) (int, error) {
			ran.Add(1)
			if i == 5 {
				return 0, errors.New("stop here")
			}
			return 0, nil
		})
		if err == nil {
			t.Fatalf("parallel=%d: expected error", parallel)
		}
		got := ran.Load()
		if parallel == 1 && got != 6 {
			t.Fatalf("serial: ran %d cells, want 6 (0..5)", got)
		}
		if got >= 1000 {
			t.Fatalf("parallel=%d: the failure did not prune work: all %d cells ran", parallel, got)
		}
	}
}

// TestRunFlatConcatenatesInOrder checks the flattening helper preserves
// group order.
func TestRunFlatConcatenatesInOrder(t *testing.T) {
	out, err := runFlat(NewRunner(8), 10, func(_ *hw.MachinePool, i int) ([]int, error) {
		return []int{i * 10, i*10 + 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("got %d rows, want 20", len(out))
	}
	for i, v := range out {
		want := (i/2)*10 + i%2
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestSerialParallelIdentical is the determinism guard the parallel engine
// must honour: every cell boots its own machine and seeds its own simrand
// streams, so a serial run and a -parallel 4 run of the same experiment
// must produce deeply equal tables. E1 (parameter sweep) and E7 (multi-row
// block cells) are the representative shapes; E8 adds a cross-cell derived
// column (relative cost vs native).
func TestSerialParallelIdentical(t *testing.T) {
	serial, par := NewRunner(1), NewRunner(4)

	s1, err := serial.e1(30)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := par.e1(30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, p1) {
		t.Errorf("E1 diverges:\nserial:   %+v\nparallel: %+v", s1, p1)
	}

	s7, err := serial.e7(40)
	if err != nil {
		t.Fatal(err)
	}
	p7, err := par.e7(40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s7, p7) {
		t.Errorf("E7 diverges:\nserial:   %+v\nparallel: %+v", s7, p7)
	}

	s8, err := serial.e8(15)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := par.e8(15)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s8, p8) {
		t.Errorf("E8 diverges:\nserial:   %+v\nparallel: %+v", s8, p8)
	}

	// E11's cells pair two machines each and seed per-cell write streams;
	// the migration sweep must still be order-independent.
	s11, err := serial.e11(48, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p11, err := par.e11(48, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s11, p11) {
		t.Errorf("E11 diverges:\nserial:   %+v\nparallel: %+v", s11, p11)
	}
}

// TestSerialParallelIdenticalAll renders every experiment table through
// RunAll on both a serial and a wide runner and compares the full reports
// byte for byte — the whole-harness version of the guard above.
func TestSerialParallelIdenticalAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	render := func(r *Runner) string {
		var buf strings.Builder
		if err := r.RunAll(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render(NewRunner(1))
	b := render(NewRunner(4))
	if a != b {
		t.Error("serial and parallel full reports differ")
	}
}
