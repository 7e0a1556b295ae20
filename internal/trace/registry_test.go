package trace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vmmk/internal/simrand"
)

func TestInternIdempotent(t *testing.T) {
	g := NewRegistry()
	a := g.Intern("mk.srv.net")
	for i := 0; i < 10; i++ {
		if got := g.Intern("mk.srv.net"); got != a {
			t.Fatalf("re-intern returned %d, want %d", got, a)
		}
	}
	if g.Name(a) != "mk.srv.net" {
		t.Fatalf("Name(%d) = %q", a, g.Name(a))
	}
	if c, ok := g.Lookup("mk.srv.net"); !ok || c != a {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", c, ok, a)
	}
	if _, ok := g.Lookup("mk.srv.blk"); ok {
		t.Fatal("Lookup invented a handle")
	}
	if g.Intern("") != CompNone {
		t.Fatal("empty name should intern to CompNone")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d after re-interning one name, want 1", g.Len())
	}
}

// TestInternJoinKnownNameAllocatesNothing checks that InternJoin names the
// component Intern of the joined string does, and that joining a name the
// registry already holds allocates nothing, through the Registry and
// through the Recorder.
func TestInternJoinKnownNameAllocatesNothing(t *testing.T) {
	r := NewRecorder(0)
	g := r.Registry()
	known := g.Intern("mk.srv.net")
	if c := r.InternJoin("mk.", "srv.net"); c != known {
		t.Fatalf("InternJoin(mk., srv.net) = %d, Intern gave %d", c, known)
	}
	fresh := r.InternJoin("vmm.", "domU1")
	if c, ok := g.Lookup("vmm.domU1"); !ok || c != fresh || g.Name(fresh) != "vmm.domU1" {
		t.Fatalf("InternJoin(vmm., domU1) = %d named %q; Lookup = (%d, %v)", fresh, g.Name(fresh), c, ok)
	}
	if c := g.InternJoin("", ""); c != CompNone {
		t.Fatalf("InternJoin of two empty strings = %d, want CompNone", c)
	}
	prefix, name := "mk.", strings.Repeat("s", 40) // past the 32-byte stack buffer a string conversion may use
	long := r.InternJoin(prefix, name)
	if n := testing.AllocsPerRun(100, func() {
		if g.InternJoin("mk.", "srv.net") != known || r.InternJoin(prefix, name) != long {
			t.Fatal("InternJoin changed its answer")
		}
	}); n != 0 {
		t.Fatalf("InternJoin of known names allocated %.0f times per run, want 0", n)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3: mk.srv.net, vmm.domU1 and the long name", g.Len())
	}
}

// TestCyclesPrefixEquivalence pins the handle-backed CyclesPrefix to the old
// string-scanning semantics: the sum over every charged component whose name
// has the given string prefix.
func TestCyclesPrefixEquivalence(t *testing.T) {
	r := NewRecorder(0)
	charges := map[string]uint64{
		"vmm.xen":       100,
		"vmm.dom0":      200,
		"vmm.domU1":     30,
		"vmm.domU2":     40,
		"mk.kernel":     500,
		"mk.srv.net":    60,
		"mk.srv.blk":    70,
		"native.kernel": 900,
	}
	// Ask before any charge, and again once names interned after the
	// first query have been charged: the answer is worked out per query,
	// so neither order may change it.
	if got := r.CyclesPrefix("vmm.domU"); got != 0 {
		t.Fatalf("empty recorder prefix sum = %d", got)
	}
	for name, cyc := range charges {
		r.ChargeCycles(r.Intern(name), cyc)
	}
	for _, prefix := range []string{"vmm.domU", "vmm.", "mk.srv", "mk.", "native", "nosuch", ""} {
		var want uint64
		for name, cyc := range charges {
			if strings.HasPrefix(name, prefix) {
				want += cyc
			}
		}
		if got := r.CyclesPrefix(prefix); got != want {
			t.Errorf("CyclesPrefix(%q) = %d, want %d", prefix, got, want)
		}
	}
	// A name interned after the first query must count in the next one.
	r.ChargeCycles(r.Intern("vmm.domU3"), 7)
	if got := r.CyclesPrefix("vmm.domU"); got != 30+40+7 {
		t.Errorf("late-interned component missing from prefix sum: got %d", got)
	}
}

// TestQuickHandleNameAgree is the property test for the two lookup paths:
// whatever sequence of interleaved charges happens, the handle-based ledger
// and the name-based queries must agree on every component, and prefix sums
// must match a scan over Components().
func TestQuickHandleNameAgree(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := simrand.New(uint64(seed))
		r := NewRecorder(0)
		want := make(map[string]uint64)
		for _, op := range ops {
			name := fmt.Sprintf("p%d.c%d", op%3, op%7)
			cyc := uint64(rng.Intn(1000))
			if op%5 == 0 {
				r.Charge(uint64(op), Kind(op)%kindCount, r.Intern(name), cyc)
			} else {
				r.ChargeCycles(r.Intern(name), cyc)
			}
			want[name] += cyc
		}
		for name, w := range want {
			if r.Cycles(name) != w {
				return false
			}
			c, ok := r.Registry().Lookup(name)
			if !ok || r.cycles[c] != w || r.Registry().Name(c) != name {
				return false
			}
		}
		// Prefix sums against a direct scan of charged components.
		for _, prefix := range []string{"p0.", "p1.", "p2.", "p", ""} {
			var scan uint64
			for _, name := range r.Components() {
				if strings.HasPrefix(name, prefix) {
					scan += r.Cycles(name)
				}
			}
			if r.CyclesPrefix(prefix) != scan {
				return false
			}
		}
		return true
	}
	// testing/quick's default generator is time-seeded; a fixed-seed source
	// keeps the generated (seed, ops) inputs — and so the whole property
	// test — reproducible run to run, including under -shuffle=on.
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLogRingWraparound(t *testing.T) {
	const ringCap = 4
	r := NewRecorder(ringCap)
	x := r.Intern("x")
	// Exactly at capacity: no eviction yet, order preserved.
	for i := uint64(0); i < ringCap; i++ {
		r.Charge(i, KTrap, x, 1)
	}
	log := r.Log()
	if len(log) != ringCap || log[0].At != 0 || log[ringCap-1].At != ringCap-1 {
		t.Fatalf("pre-wrap log wrong: %+v", log)
	}
	// Push far past capacity, crossing the wrap point several times.
	for i := uint64(ringCap); i < 3*ringCap+1; i++ {
		r.Charge(i, KTrap, x, 1)
	}
	log = r.Log()
	if len(log) != ringCap {
		t.Fatalf("log length = %d, want %d", len(log), ringCap)
	}
	for i, rec := range log {
		want := uint64(3*ringCap+1-ringCap) + uint64(i)
		if rec.At != want {
			t.Fatalf("log[%d].At = %d, want %d (window %+v)", i, rec.At, want, log)
		}
		if rec.Component != "x" {
			t.Fatalf("log[%d].Component = %q", i, rec.Component)
		}
	}
	// Reset rewinds the ring to empty and reuses it cleanly.
	r.Reset()
	if len(r.Log()) != 0 {
		t.Fatal("reset did not clear the ring")
	}
	r.Charge(99, KTrap, x, 1)
	if log = r.Log(); len(log) != 1 || log[0].At != 99 {
		t.Fatalf("post-reset log wrong: %+v", log)
	}
}

func TestResetKeepsHandlesValid(t *testing.T) {
	r := NewRecorder(0)
	a := r.Intern("vmm.dom0")
	r.ChargeCycles(a, 10)
	r.Reset()
	if r.TotalCycles() != 0 || len(r.Components()) != 0 {
		t.Fatal("reset left ledger state behind")
	}
	r.ChargeCycles(a, 3) // the old handle must still attribute correctly
	if got := r.Cycles("vmm.dom0"); got != 3 {
		t.Fatalf("post-reset cycles = %d, want 3", got)
	}
	if got, ok := r.Registry().Lookup("vmm.dom0"); !ok || got != a {
		t.Fatal("reset invalidated interned handle")
	}
}
