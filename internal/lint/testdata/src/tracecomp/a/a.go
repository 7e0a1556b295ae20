// Package a is the tracecomp fixture: components built at charge sites must
// fire, while charging through handles interned at construction must pass.
package a

import (
	"fmt"
	"strconv"

	"vmmk/internal/trace"
)

type srv struct {
	rec  *trace.Recorder
	comp trace.Comp
}

// newSrv interns at construction — the sanctioned idiom, even for a
// dynamically built name.
func newSrv(rec *trace.Recorder, id int) *srv {
	return &srv{rec: rec, comp: rec.Intern("srv." + strconv.Itoa(id))}
}

func (s *srv) good() {
	s.rec.Charge(0, trace.KTrap, s.comp, 10)
	s.rec.ChargeCycles(s.comp, 5)
	// The batched variant through a stored handle is the sanctioned hot-loop
	// idiom.
	s.rec.ChargeN(0, trace.KTrap, s.comp, 10, 64)
}

func (s *srv) bad(name string, i int) {
	s.rec.Charge(0, trace.KTrap, s.rec.Intern(name), 10)          // want `inline Intern call`
	s.rec.ChargeCycles(s.rec.Intern("srv."+name), 5)              // want `inline Intern call`
	s.rec.ChargeCycles(s.rec.Intern(fmt.Sprintf("srv.%d", i)), 5) // want `inline Intern call`
	s.rec.ChargeCycles(s.rec.InternJoin("srv.", name), 5)         // want `inline InternJoin call`
	// Batching a loop's charges does not license building the handle there.
	s.rec.ChargeN(0, trace.KTrap, s.rec.Intern(name), 10, 64)            // want `inline Intern call`
	s.rec.ChargeN(0, trace.KTrap, handleFor(s.rec, "srv."+name), 10, 64) // want `string concatenation at the charge site`
}

// handleFor hides the Intern behind a helper; the concatenation at the
// charge site still gives the construction away.
func handleFor(rec *trace.Recorder, name string) trace.Comp { return rec.Intern(name) }

func (s *srv) alsoBad(name string) {
	s.rec.ChargeCycles(handleFor(s.rec, "srv."+name), 1) // want `string concatenation at the charge site`
}
