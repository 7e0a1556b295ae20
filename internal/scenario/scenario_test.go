package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// checkRows returns the first declaration rule rows break. Every row
// names its id, subsystem and injected fault; its subsystem is one of
// Subsystems and prefixes its id; it declares an expected outcome with a
// Desc and at least one of Err, Panic, Check or Compare; it has a Run; and
// no two rows share an id.
func checkRows(rows []S) error {
	seen := map[string]bool{}
	for _, s := range rows {
		if s.ID == "" || s.Subsystem == "" || s.Fault == "" {
			return fmt.Errorf("row %+v missing id, subsystem or fault", s)
		}
		if !strings.HasPrefix(s.ID, s.Subsystem+"/") {
			return fmt.Errorf("id %q must start with %q", s.ID, s.Subsystem+"/")
		}
		if !slices.Contains(Subsystems, s.Subsystem) {
			return fmt.Errorf("%s names unknown subsystem %q", s.ID, s.Subsystem)
		}
		if s.Expect.Desc == "" || (s.Expect.Err == nil && s.Expect.Panic == "" &&
			s.Expect.Check == nil && s.Expect.Compare == nil) {
			return fmt.Errorf("%s declares no expected outcome", s.ID)
		}
		if s.Run == nil {
			return fmt.Errorf("%s has no Run", s.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("duplicate id %q", s.ID)
		}
		seen[s.ID] = true
	}
	return nil
}

// TestRowsWellFormed holds the whole matrix to checkRows, and requires
// every subsystem to contribute at least one row.
func TestRowsWellFormed(t *testing.T) {
	rows := Rows()
	if err := checkRows(rows); err != nil {
		t.Fatal(err)
	}
	for _, sub := range Subsystems {
		if !slices.ContainsFunc(rows, func(s S) bool { return s.Subsystem == sub }) {
			t.Errorf("subsystem %s has no rows", sub)
		}
	}
}

// validRow is a well-formed fixture the rejection tests mutate.
func validRow() S {
	return S{
		ID: "hw/alloc-beyond-physmem", Subsystem: "hw", Fault: "fixture",
		Expect: Outcome{Desc: "d", Panic: "p"},
		Run:    func(*Env) error { return nil },
	}
}

// TestRegisterRejectsMalformed shows that checkRows, the declaration check
// TestRowsWellFormed applies to the matrix, refuses a row breaking each
// rule.
func TestRegisterRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*S)
		want   string
	}{
		{"missing id", func(s *S) { s.ID = "" }, "missing id"},
		{"missing fault", func(s *S) { s.Fault = "" }, "missing id"},
		{"id prefix", func(s *S) { s.ID = "mk/misfiled" }, "must start with"},
		{"unknown subsystem", func(s *S) { s.ID = "net/x"; s.Subsystem = "net" }, "unknown subsystem"},
		{"no outcome desc", func(s *S) { s.Expect.Desc = "" }, "no expected outcome"},
		{"no outcome hook", func(s *S) { s.Expect = Outcome{Desc: "d"} }, "no expected outcome"},
		{"no run", func(s *S) { s.Run = nil }, "has no Run"},
		{"duplicate id", func(s *S) {}, "duplicate id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validRow()
			tc.mutate(&s)
			// The fixture's id is the matrix's own, so an unmutated row
			// collides with it.
			err := checkRows(append(Rows(), s))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestRowsSortedAndCopied: Rows returns the matrix in ID order, and the
// returned slice is the caller's to mutate.
func TestRowsSortedAndCopied(t *testing.T) {
	rows := Rows()
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID }) {
		t.Error("Rows() not sorted by ID")
	}
	first := rows[0].ID
	rows[0].ID = "mutated"
	if Rows()[0].ID != first {
		t.Error("mutating Rows() result leaked into the matrix")
	}
}

// TestLookup finds every declared row and nothing else.
func TestLookup(t *testing.T) {
	for _, s := range Rows() {
		got, ok := Lookup(s.ID)
		if !ok || got.ID != s.ID {
			t.Errorf("Lookup(%q) = %v, %v", s.ID, got.ID, ok)
		}
	}
	if _, ok := Lookup("hw/absent"); ok {
		t.Error("Lookup found a row that was never declared")
	}
}

// TestListReportShape: the list output declares every row with its fault
// and expected outcome, without running anything.
func TestListReportShape(t *testing.T) {
	res := ListReport()
	if len(res.Tables) != 1 {
		t.Fatalf("list report has %d tables, want 1", len(res.Tables))
	}
	if got, want := len(res.Tables[0].Rows), len(Rows()); got != want {
		t.Errorf("list has %d rows, want %d", got, want)
	}
	text := res.Text()
	if !strings.Contains(text, "fslite/write-device-error-midfile") {
		t.Error("list text missing a known row id")
	}
}
