package hw

// MachinePool recycles Machines between experiment cells. Booting a machine
// allocates its physical memory, CPUs, TLBs and recorder; under the runner
// every cell used to pay that again. The pool instead hands back a Reset
// machine whenever one with the same CPU count and trace-log capacity has
// been released before, re-targeted to the architecture and frame count
// the Get asks for, so a Reset machine of one shape serves a cell of any
// other.
//
// The pool is deliberately not thread-safe: the runner gives each worker its
// own pool, which keeps the hot path lock-free and the reuse pattern
// deterministic per worker.
type MachinePool struct {
	free    map[poolKey][]*Machine
	hits    uint64
	miss    uint64
	inspect func(*Machine) // see Inspect
}

// poolKey identifies interchangeable machines by what a machine fixes at
// boot. The CPU count fixes the CPU slice and, on a multiprocessor, the
// "cpu<n>.ipi" and "cpu<n>.shootdown" components NewMachine interns, which
// a uniprocessor never has; the log capacity fixes the recorder's event
// log. The architecture and the frame count are not in the key: Get
// re-targets a pooled machine to them (Machine.retarget).
type poolKey struct {
	ncpus, logCap int
}

// NewMachinePool returns an empty pool.
func NewMachinePool() *MachinePool {
	return &MachinePool{free: make(map[poolKey][]*Machine)}
}

// Get returns a machine for arch/cfg: a pooled one (already Reset) when
// the pool holds one with cfg's CPU count and log capacity, re-targeted to
// arch and cfg's frame count, and a fresh NewMachine otherwise. Either way
// the machine is observably what NewMachine(arch, cfg) builds. A nil pool
// always builds fresh, so call sites can thread an optional pool without
// guards.
func (p *MachinePool) Get(arch *Arch, cfg *MachineConfig) *Machine {
	if p == nil {
		return NewMachine(arch, cfg)
	}
	c := cfg.normalized()
	k := poolKey{ncpus: c.NCPUs, logCap: c.LogCap}
	if ms := p.free[k]; len(ms) > 0 {
		m := ms[len(ms)-1]
		ms[len(ms)-1] = nil
		p.free[k] = ms[:len(ms)-1]
		p.hits++
		m.pooled = false
		m.retarget(arch, c.Frames)
		return m
	}
	p.miss++
	return NewMachine(arch, cfg)
}

// Put resets m and returns it to the pool. A nil pool (or nil machine)
// drops it for the garbage collector, matching the pre-pool lifecycle.
//
// A machine sits in a pool at most once: Put panics on a machine that a
// pool holds, one put back without a Get in between. Any pooled machine
// can serve any later Get with its CPU count and log capacity, so a
// second Put would let two Gets hand the one machine to two live cells.
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
	k := poolKey{ncpus: len(m.CPUs), logCap: m.Cfg.LogCap}
	p.free[k] = append(p.free[k], m)
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
