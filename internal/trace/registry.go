package trace

// Comp is an interned component handle: a small dense integer standing for a
// dotted component name ("vmm.dom0", "mk.srv.net"). Handles are minted by a
// Registry at boot/registration time and are then the only currency the
// charge path deals in — a Charge is two array increments, with no hashing
// and no allocation. Handles are only meaningful against the Registry that
// minted them (in practice: the Recorder of the Machine the component lives
// on).
type Comp int32

// CompNone is the zero Comp: the registry root. It is never returned by
// Intern for a non-empty name, so an uninitialised Comp field charges to the
// root slot rather than to another component — visible in summaries as "".
const CompNone Comp = 0

// Registry interns dotted component names into Comp handles, in the order
// the names are first seen. It keeps the names and nothing else: a dotted
// name's parent is the name cut at its last dot.
//
// Like the Recorder that owns it, a Registry is not safe for concurrent use;
// the simulation is single-threaded per machine.
type Registry struct {
	byName map[string]Comp
	names  []string // indexed by Comp; names[CompNone] = ""
	join   []byte   // InternJoin's reused buffer
}

// NewRegistry returns an empty registry containing only the root handle.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Comp), names: []string{""}}
}

// Intern returns the handle for name, minting it on first use. Interning is
// idempotent: the same name always yields the same handle. The empty name is
// the root, CompNone.
func (g *Registry) Intern(name string) Comp {
	if name == "" {
		return CompNone
	}
	if c, ok := g.byName[name]; ok {
		return c
	}
	c := Comp(len(g.names))
	g.names = append(g.names, name)
	g.byName[name] = c
	return c
}

// InternJoin returns Intern(prefix + name). It joins the two in a buffer it
// reuses and looks the result up without converting it, which allocates
// nothing, so it builds the joined string only for a name not yet interned.
func (g *Registry) InternJoin(prefix, name string) Comp {
	g.join = append(append(g.join[:0], prefix...), name...)
	if c, ok := g.byName[string(g.join)]; ok {
		return c
	}
	return g.Intern(string(g.join))
}

// Lookup returns the handle for name without interning it.
func (g *Registry) Lookup(name string) (Comp, bool) {
	c, ok := g.byName[name]
	return c, ok
}

// Name returns the dotted name of c ("" for CompNone or an out-of-range
// handle).
func (g *Registry) Name(c Comp) string {
	if c <= CompNone || int(c) >= len(g.names) {
		return ""
	}
	return g.names[c]
}

// Len returns the number of interned components, excluding the root.
func (g *Registry) Len() int { return len(g.names) - 1 }
