package hw

// MachinePool recycles Machines between experiment cells. Booting a machine
// allocates its physical memory, CPUs, TLBs and recorder; under the runner
// every cell used to pay that again. The pool is instead one LIFO stack of
// Reset machines: Get takes the machine on top and re-targets it to the
// architecture, frame count, CPU count and log capacity it asks for
// (Machine.retarget), so a Reset machine of one shape serves a cell of any
// other.
//
// The pool is deliberately not thread-safe: the runner gives each worker its
// own pool, which keeps the hot path lock-free and the reuse pattern
// deterministic per worker.
type MachinePool struct {
	free    []*Machine // Reset machines, the last one put on top
	hits    uint64
	miss    uint64
	inspect func(*Machine) // see Inspect
}

// NewMachinePool returns an empty pool.
func NewMachinePool() *MachinePool { return &MachinePool{} }

// Get returns a machine for arch/cfg: the pool's top machine (already
// Reset), re-targeted to arch and cfg, and a fresh NewMachine when the pool
// is empty. Either way the machine is observably what NewMachine(arch, cfg)
// builds, and a cfg of more than MaxCPUs processors panics as NewMachine
// does, before any machine leaves the pool. A nil pool always builds
// fresh, so call sites can thread an optional pool without guards.
func (p *MachinePool) Get(arch *Arch, cfg *MachineConfig) *Machine {
	if p == nil {
		return NewMachine(arch, cfg)
	}
	n := len(p.free)
	if n == 0 {
		p.miss++
		return NewMachine(arch, cfg)
	}
	c := cfg.normalized() // panics on too many CPUs, before the pop
	m := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.hits++
	m.pooled = false
	m.retarget(arch, c)
	return m
}

// Put resets m and returns it to the pool. A nil pool (or nil machine)
// drops it for the garbage collector, matching the pre-pool lifecycle.
//
// A machine sits in a pool at most once: Put panics on a machine that a
// pool holds, one put back without a Get in between. Any pooled machine
// can serve any later Get, so a second Put would let two Gets hand the one
// machine to two live cells.
func (p *MachinePool) Put(m *Machine) {
	if p == nil || m == nil {
		return
	}
	if m.pooled {
		panic("hw: machine put into a pool twice")
	}
	if p.inspect != nil {
		p.inspect(m)
	}
	m.Reset()
	m.pooled = true
	p.free = append(p.free, m)
}

// Inspect registers fn to run on every machine handed to Put, before its
// Reset: the hook tests use to audit the state each cell leaves behind.
func (p *MachinePool) Inspect(fn func(*Machine)) { p.inspect = fn }

// Stats returns how many Gets were served from the pool vs built fresh.
func (p *MachinePool) Stats() (hits, misses uint64) {
	if p == nil {
		return 0, 0
	}
	return p.hits, p.miss
}
