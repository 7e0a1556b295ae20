package cluster

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/vmm"
)

// MachineSource provides the machines a Cluster boots its hosts on. The
// experiment layer binds this to its per-worker machine pool; a nil source
// boots fresh machines. The returned release function hands the machine
// back when the cluster closes.
type MachineSource func(cfg *hw.MachineConfig) (*hw.Machine, func())

// Config shapes a Cluster. The zero value is normalized to a small but
// realistic fleet; see the field comments for the defaults.
type Config struct {
	// Hosts is the fleet size (default 2).
	Hosts int
	// HostFrames is the physical memory of each host in pages (default 192).
	HostFrames int
	// Dom0Frames is the control-domain size each host's hypervisor boots
	// with (default 32).
	Dom0Frames int
	// Policy selects the placement policy (default BinPack).
	Policy Policy
	// OvercommitPct is the admission bound in percent of host capacity:
	// a host admits a guest while committed nominal pages stay within
	// cap*OvercommitPct/100 (default 150). Physical shortfall under
	// overcommit is resolved by ballooning placed guests down.
	OvercommitPct int
	// MinResident is the floor (in pages) below which the balloon squeeze
	// never takes a guest (default 8).
	MinResident int
	// LinkPerPage is the migration link's bandwidth term in cycles per
	// page (default 2).
	LinkPerPage hw.Cycles
	// LinkLatency is the migration link's per-round propagation cost in
	// cycles (default 400).
	LinkLatency hw.Cycles
	// LinkBudget, when positive, bounds the pages any single migration's
	// link carries before it goes down — the fault-injection knob the
	// scenario matrix arms.
	LinkBudget int
	// MaxRounds is the pre-copy round budget for live migrations
	// (default 3).
	MaxRounds int
}

// defaults normalizes zero fields in place.
func (c *Config) defaults() {
	if c.Hosts <= 0 {
		c.Hosts = 2
	}
	if c.HostFrames <= 0 {
		c.HostFrames = 192
	}
	if c.Dom0Frames <= 0 {
		c.Dom0Frames = 32
	}
	if c.OvercommitPct <= 0 {
		c.OvercommitPct = 150
	}
	if c.MinResident <= 0 {
		c.MinResident = 8
	}
	if c.LinkPerPage <= 0 {
		c.LinkPerPage = 2
	}
	if c.LinkLatency <= 0 {
		c.LinkLatency = 400
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 3
	}
}

// Host is one fleet member: a machine, its hypervisor, and the control
// plane's accounting for it.
type Host struct {
	index     int
	m         *hw.Machine
	hv        *vmm.Hypervisor
	cap       int // frames available to guests after boot
	committed int // sum of placed guests' nominal sizes
	guests    []*Guest
	release   func()
}

// Index returns the host's fleet index.
func (h *Host) Index() int { return h.index }

// Machine returns the host's simulated machine.
func (h *Host) Machine() *hw.Machine { return h.m }

// Hypervisor returns the host's hypervisor.
func (h *Host) Hypervisor() *vmm.Hypervisor { return h.hv }

// Capacity returns the frames the host had available to guests at boot.
func (h *Host) Capacity() int { return h.cap }

// Committed returns the sum of placed guests' nominal sizes — the
// admission controller's view, which overcommit lets exceed physical free
// memory.
func (h *Host) Committed() int { return h.committed }

// GuestCount returns how many guests are placed on the host.
func (h *Host) GuestCount() int { return len(h.guests) }

// Guest is one placed domain as the control plane tracks it.
type Guest struct {
	// Name is the cluster-unique domain name.
	Name string
	// Nominal is the requested size in pages; ballooning may leave the
	// guest resident below it.
	Nominal int

	dom  vmm.DomID
	host *Host
}

// Host returns the fleet index of the host the guest currently runs on.
func (g *Guest) Host() int { return g.host.index }

// DomID returns the guest's current domain id (it changes on migration).
func (g *Guest) DomID() vmm.DomID { return g.dom }

// Resident returns the pages the guest currently owns on its host —
// Nominal minus whatever the balloon squeeze took and reflation has not
// yet returned.
func (g *Guest) Resident() int {
	d := g.host.hv.Domain(g.dom)
	if d == nil {
		return 0
	}
	return d.OwnedPages()
}

// Cluster is a fleet of hosts under one placement control plane.
type Cluster struct {
	cfg    Config
	hosts  []*Host
	guests []*Guest // cluster-wide, in placement order
	byName map[string]*Guest
	seq    int // next churn guest number; names are unique per cluster
	log    []string
	stats  Stats
	cand   []*Host // candidates' reusable result
}

// New boots a fleet of cfg.Hosts hosts on machines from src (nil src boots
// fresh machines) and returns the cluster. Close releases the machines.
func New(cfg Config, src MachineSource) (*Cluster, error) {
	cfg.defaults()
	c := &Cluster{cfg: cfg, byName: make(map[string]*Guest)}
	for i := 0; i < cfg.Hosts; i++ {
		m, release := obtain(src, &hw.MachineConfig{Frames: cfg.HostFrames})
		hv, _, err := vmm.New(m, cfg.Dom0Frames)
		if err != nil {
			release()
			c.Close()
			return nil, fmt.Errorf("cluster: boot host%d: %w", i, err)
		}
		c.hosts = append(c.hosts, &Host{
			index: i, m: m, hv: hv, cap: m.Mem.FreeFrames(), release: release,
		})
	}
	return c, nil
}

// obtain resolves the machine source, building fresh when src is nil.
func obtain(src MachineSource, cfg *hw.MachineConfig) (*hw.Machine, func()) {
	if src == nil {
		return hw.NewMachine(hw.X86(), cfg), func() {}
	}
	return src(cfg)
}

// Close releases every host machine back to its source, in reverse boot
// order (mirroring the machine pool's LIFO reuse). The cluster must not be
// used afterwards.
func (c *Cluster) Close() {
	for i := len(c.hosts) - 1; i >= 0; i-- {
		c.hosts[i].release()
	}
	c.hosts = nil
}

// Config returns the normalized configuration the cluster booted with.
func (c *Cluster) Config() Config { return c.cfg }

// Hosts returns the fleet in index order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Guests returns every placed guest in placement order. Migration moves a
// guest between hosts without changing its position here.
func (c *Cluster) Guests() []*Guest { return append([]*Guest(nil), c.guests...) }

// Guest returns the placed guest with the given name.
func (c *Cluster) Guest(name string) (*Guest, bool) {
	g, ok := c.byName[name]
	return g, ok
}

// Log returns the placement decision log: one line per control-plane
// action, in order. Two runs with the same (seed, policy, fleet) produce
// identical logs — the reproducibility property the tests pin.
func (c *Cluster) Log() []string { return append([]string(nil), c.log...) }

// logf appends one decision to the placement log.
func (c *Cluster) logf(format string, args ...any) {
	c.log = append(c.log, fmt.Sprintf(format, args...))
}
