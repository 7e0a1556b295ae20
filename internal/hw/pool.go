package hw

// MachinePool recycles Machines between experiment cells. Booting a machine
// allocates its physical memory, CPUs, TLBs and recorder; under the runner
// every cell used to pay that again. The pool instead hands back a Reset
// machine whenever one with the same identity — architecture value plus
// normalized MachineConfig — has been released before.
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

// poolKey identifies interchangeable machines. Arch is keyed by value —
// Arch constructors return fresh pointers per call, but equal architectures
// compare equal as structs — and the config is keyed in normalized form so
// zero fields and explicit defaults land on the same entry.
type poolKey struct {
	arch Arch
	cfg  MachineConfig
}

// NewMachinePool returns an empty pool.
func NewMachinePool() *MachinePool {
	return &MachinePool{free: make(map[poolKey][]*Machine)}
}

// Get returns a machine for arch/cfg: a pooled one (already Reset) when the
// identity matches, a fresh NewMachine otherwise. A nil pool always builds
// fresh, so call sites can thread an optional pool without guards.
func (p *MachinePool) Get(arch *Arch, cfg *MachineConfig) *Machine {
	if p == nil {
		return NewMachine(arch, cfg)
	}
	k := poolKey{arch: *arch, cfg: cfg.normalized()}
	if ms := p.free[k]; len(ms) > 0 {
		m := ms[len(ms)-1]
		ms[len(ms)-1] = nil
		p.free[k] = ms[:len(ms)-1]
		p.hits++
		return m
	}
	p.miss++
	return NewMachine(arch, cfg)
}

// Put resets m and returns it to the pool. A nil pool (or nil machine)
// drops it for the garbage collector, matching the pre-pool lifecycle.
func (p *MachinePool) Put(m *Machine) {
	if p == nil || m == nil {
		return
	}
	if p.inspect != nil {
		p.inspect(m)
	}
	m.Reset()
	k := poolKey{arch: *m.Arch, cfg: m.Cfg}
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
