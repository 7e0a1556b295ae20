package core

import (
	"reflect"
	"testing"
)

// TestE13SerialMatchesParallel is the fleet sweep's determinism
// differential: one worker and many workers must produce identical rows,
// even though the parallel run slices the fleet boots across per-worker
// machine pools.
func TestE13SerialMatchesParallel(t *testing.T) {
	// A trimmed sweep.
	fleets, churns, hostFrames := []int{2, 3}, []int{32}, 160
	serial, err := NewRunner(1).e13(fleets, churns, hostFrames)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(8).e13(fleets, churns, hostFrames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel E13 rows differ:\n%+v\nvs\n%+v", serial, parallel)
	}
}

// TestE13RowsShaped sanity-checks the sweep's content: every (fleet,
// churn, policy) cell present, churn placing guests, and the consolidation
// column distinguishing the two policies somewhere in the sweep.
func TestE13RowsShaped(t *testing.T) {
	d, err := e13Spec.Normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	fleets, churns := d.IntList("fleet"), d.IntList("churn")
	rows, err := NewRunner(1).e13(fleets, churns, d.Int("hostframes"))
	if err != nil {
		t.Fatal(err)
	}
	want := len(fleets) * len(churns) * 2
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	consol := map[string]float64{}
	for _, r := range rows {
		if r.Placed == 0 {
			t.Fatalf("cell %+v placed nothing", r)
		}
		consol[r.Policy] += r.ConsolPct
	}
	if consol["binpack"] <= consol["spread"] {
		t.Fatalf("binpack did not consolidate more than spread: %v", consol)
	}
}
