package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"

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
	// Policy selects the placement policy (default BinPack).
	Policy Policy
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
}

// The fleet's fixed shape: every host boots the same control domain, and
// every placement and migration obeys the same bounds.
const (
	// dom0Frames is the control-domain size each host's hypervisor boots
	// with.
	dom0Frames = 32
	// overcommitPct is the admission bound in percent of host capacity: a
	// host admits a guest while committed nominal pages stay within
	// cap*overcommitPct/100. Physical shortfall under overcommit is
	// resolved by ballooning placed guests down.
	overcommitPct = 150
	// minResident is the floor (in pages) below which the balloon squeeze
	// never takes a guest.
	minResident = 8
	// maxRounds is the pre-copy round budget for live migrations.
	maxRounds = 3
)

// defaults normalizes zero fields in place.
func (c *Config) defaults() {
	if c.Hosts <= 0 {
		c.Hosts = 2
	}
	if c.HostFrames <= 0 {
		c.HostFrames = 192
	}
	if c.LinkPerPage <= 0 {
		c.LinkPerPage = 2
	}
	if c.LinkLatency <= 0 {
		c.LinkLatency = 400
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
	name uint32 // the name's index in the cluster's name table
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
	log    []logRecord
	names  []string // the log's name table: each guest Place placed or rejected, once
	stats  Stats
	link   vmm.Link // carries one migration at a time

	// Scratch reused from event to event: candidates' result, consolidate's
	// copy of the guests it evacuates, and evacuationPlan's simulated
	// commitments and plan.
	cand      []*Host
	snap      []*Guest
	sim, plan []int

	nameBuf [4]string // the name table's first entries, inside the cluster
}

// New boots a fleet of cfg.Hosts hosts on machines from src (nil src boots
// fresh machines) and returns the cluster. Close releases the machines. A
// fleet too large for the placement log to name its hosts is refused with
// ErrTooLarge before any host boots.
func New(cfg Config, src MachineSource) (*Cluster, error) {
	cfg.defaults()
	if cfg.Hosts > maxHosts {
		return nil, fmt.Errorf("%w: a fleet of %d hosts, at most %d", ErrTooLarge, cfg.Hosts, maxHosts)
	}
	c := &Cluster{cfg: cfg, byName: make(map[string]*Guest)}
	c.names = c.nameBuf[:0]
	c.link = vmm.Link{PerPage: cfg.LinkPerPage, Latency: cfg.LinkLatency, Budget: cfg.LinkBudget}
	for i := 0; i < cfg.Hosts; i++ {
		m, release := obtain(src, &hw.MachineConfig{Frames: cfg.HostFrames})
		hv, _, err := vmm.New(m, dom0Frames)
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
// action of the cluster's lifetime, in order. Two runs with the same
// (seed, policy, fleet) produce identical logs — the reproducibility
// property the tests pin. The cluster keeps typed records and renders them
// here, on demand: deciding costs a record append, and a run that never
// reads its log (E13's churn) never formats a line. Each line is rendered
// into one reused buffer and copied into a builder whose text the lines
// share, so a call allocates a few objects, not one per line.
func (c *Cluster) Log() []string {
	var text strings.Builder
	text.Grow(32 * len(c.log))
	var line []byte
	out := make([]string, len(c.log))
	for i := range c.log {
		line = c.log[i].appendTo(line[:0], c.names)
		start := text.Len()
		text.Write(line)
		out[i] = text.String()[start:]
	}
	return out
}

// logKind is what a placement-log record says happened.
type logKind uint8

// The record kinds, each with the line it renders to.
const (
	logPlace       logKind = iota // place <guest>(<pages>p) -> host<src>
	logReject                     // reject <guest>(<pages>p)
	logRemove                     // remove <guest> <- host<src>
	logMigrate                    // migrate <guest> host<src>->host<dst>
	logAbort                      // abort <guest> host<src>->host<dst>
	logConsolidate                // consolidate host<src> stopped at <guest>
	logLevel                      // level host<src>->host<dst> blocked at <guest>
)

// The placement log's limits: a record holds a page count in 32 bits and
// a host index in 16. New refuses a larger fleet and Place a larger guest,
// with ErrTooLarge, so no record truncates what it says. E13's fleets
// stop at 64 hosts and churn guests at 44 pages.
const (
	maxGuestPages = math.MaxUint32
	maxHosts      = math.MaxUint16 + 1
)

// logRecord is one placement decision, 16 bytes with no pointer in it.
// The guest is an index into the cluster's name table, and the page count
// is the one Place was asked for, so a line says what was true when the
// decision was made, whatever a caller later does to the Guest's exported
// fields.
type logRecord struct {
	name     uint32 // index in Cluster.names
	pages    uint32
	src, dst uint16
	kind     logKind
}

// intern adds name to the name table and returns its index. A uint32
// indexes more names than memory holds: 2^32 entries take 64 GiB.
func (c *Cluster) intern(name string) uint32 {
	c.names = append(c.names, name)
	return uint32(len(c.names) - 1)
}

// note appends one decision to the placement log. Callers pass what New
// and Place have bounded: pages up to maxGuestPages, hosts below maxHosts.
func (c *Cluster) note(kind logKind, name uint32, pages, src, dst int) {
	c.log = append(c.log, logRecord{name: name, pages: uint32(pages), src: uint16(src), dst: uint16(dst), kind: kind})
}

// appendTo renders the record's line onto b, naming the guest from names.
func (r *logRecord) appendTo(b []byte, names []string) []byte {
	guest := names[r.name]
	switch r.kind {
	case logPlace:
		b = append(append(b, "place "...), guest...)
		b = append(appendPages(b, r.pages), " -> "...)
		return appendHost(b, r.src)
	case logReject:
		return appendPages(append(append(b, "reject "...), guest...), r.pages)
	case logRemove:
		b = append(append(b, "remove "...), guest...)
		return appendHost(append(b, " <- "...), r.src)
	case logMigrate, logAbort:
		verb := "migrate "
		if r.kind == logAbort {
			verb = "abort "
		}
		b = append(append(append(b, verb...), guest...), ' ')
		return appendHost(append(appendHost(b, r.src), "->"...), r.dst)
	case logConsolidate:
		b = appendHost(append(b, "consolidate "...), r.src)
		return append(append(b, " stopped at "...), guest...)
	default: // logLevel
		b = appendHost(append(b, "level "...), r.src)
		b = appendHost(append(b, "->"...), r.dst)
		return append(append(b, " blocked at "...), guest...)
	}
}

// appendHost renders "host<i>".
func appendHost(b []byte, i uint16) []byte {
	return strconv.AppendUint(append(b, "host"...), uint64(i), 10)
}

// appendPages renders "(<n>p)".
func appendPages(b []byte, n uint32) []byte {
	return append(strconv.AppendUint(append(b, '('), uint64(n), 10), "p)"...)
}
