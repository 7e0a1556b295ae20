package scenario

import (
	"fmt"

	"vmmk/internal/cluster"
	"vmmk/internal/hw"
	"vmmk/internal/vmm"
)

// cluster rows: control-plane abuse at fleet level. The placement plane
// sits above the hypervisors, so its failures are admission and migration
// failures — a guest nobody can host, a guest placed twice, a migration
// link that dies under the transfer. Each must come back as a typed error
// with every host's books balanced, and the link-cost row grades the
// recorder delta between the control and armed legs.

// clusterState carries the fleet under test and the recorder numbers the
// cross-leg comparisons grade. Compare runs after the legs' machines are
// back in the pool, so everything it needs is copied here by Run.
type clusterState struct {
	c       *cluster.Cluster
	g       *cluster.Guest
	srcIdx  int
	dstIdx  int
	dstFree int
	dstDoms int

	// link-cost accounting, copied out for the cross-leg Compare.
	perPage, latency hw.Cycles
	srcLink, dstLink uint64
	live             *vmm.LiveStats
}

// pooledHosts binds a cluster's machine source to the leg's pool, so fleet
// rows exercise the same machine recycling as everything else.
func pooledHosts(env *Env) cluster.MachineSource {
	return func(cfg *hw.MachineConfig) (*hw.Machine, func()) {
		// The harness puts every machine the leg took back when it ends.
		return env.Machine(cfg), func() {}
	}
}

// clusterStillPlaces probes that the control plane survived: place and
// remove a probe guest.
func clusterStillPlaces(c *cluster.Cluster) error {
	if _, err := c.Place("probe", 4); err != nil {
		return fmt.Errorf("post-fault Place: %w", err)
	}
	if err := c.Remove("probe"); err != nil {
		return fmt.Errorf("post-fault Remove: %w", err)
	}
	return nil
}

// clusterRows is the cluster layer's share of the matrix.
var clusterRows = []S{
	{
		ID:        "cluster/admission-no-host-fits",
		Subsystem: "cluster",
		Fault:     "guest demands more pages than any host's whole capacity",
		Expect: Outcome{
			Desc: "ErrNoHostFits; rejection counted, control plane keeps placing",
			Err:  cluster.ErrNoHostFits,
			Check: func(env *Env) error {
				st := env.State.(*clusterState)
				s := st.c.Stats()
				if env.Armed {
					if s.Rejected != 1 {
						return fmt.Errorf("stats rejected = %d, want 1", s.Rejected)
					}
				} else if s.Rejected != 0 {
					return fmt.Errorf("control leg rejected %d placements", s.Rejected)
				}
				return clusterStillPlaces(st.c)
			},
		},
		Run: func(env *Env) error {
			c, err := cluster.New(cluster.Config{Hosts: 2, HostFrames: 96}, pooledHosts(env))
			if err != nil {
				return err
			}
			env.State = &clusterState{c: c}
			nominal := 8
			if env.Armed {
				nominal = 10_000
			}
			_, err = c.Place("greedy", nominal)
			return err
		},
	},

	{
		ID:        "cluster/double-place",
		Subsystem: "cluster",
		Fault:     "the same guest name placed a second time",
		Expect: Outcome{
			Desc: "ErrAlreadyPlaced; the first placement stands untouched",
			Err:  cluster.ErrAlreadyPlaced,
			Check: func(env *Env) error {
				st := env.State.(*clusterState)
				g, ok := st.c.Guest("a")
				if !ok {
					return fmt.Errorf("guest a lost from the books")
				}
				if g.Host() != st.srcIdx {
					return fmt.Errorf("guest a moved to host %d, was %d", g.Host(), st.srcIdx)
				}
				want := 2
				if env.Armed {
					want = 1
				}
				if got := len(st.c.Guests()); got != want {
					return fmt.Errorf("cluster tracks %d guests, want %d", got, want)
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			c, err := cluster.New(cluster.Config{Hosts: 2, HostFrames: 96}, pooledHosts(env))
			if err != nil {
				return err
			}
			a, err := c.Place("a", 16)
			if err != nil {
				return err
			}
			env.State = &clusterState{c: c, srcIdx: a.Host()}
			name := "b"
			if env.Armed {
				name = "a"
			}
			_, err = c.Place(name, 16)
			return err
		},
	},

	{
		ID:        "cluster/migration-dead-link",
		Subsystem: "cluster",
		Fault:     "cross-host migration over a link whose budget cannot carry the guest",
		Expect: Outcome{
			Desc: "ErrMigrationAborted; guest runs on at the source, destination spotless",
			Err:  vmm.ErrMigrationAborted,
			Check: func(env *Env) error {
				st := env.State.(*clusterState)
				src := st.c.Hosts()[st.srcIdx]
				dst := st.c.Hosts()[st.dstIdx]
				if env.Armed {
					if st.g.Host() != st.srcIdx {
						return fmt.Errorf("control plane moved the guest to host %d despite the abort", st.g.Host())
					}
					if !src.Hypervisor().Alive(st.g.DomID()) || src.Hypervisor().Paused(st.g.DomID()) {
						return fmt.Errorf("source guest not left running after abort")
					}
					if got := dst.Machine().Mem.FreeFrames(); got != st.dstFree {
						return fmt.Errorf("destination leaked frames: free %d, was %d", got, st.dstFree)
					}
					if got := len(dst.Hypervisor().Domains()); got != st.dstDoms {
						return fmt.Errorf("destination kept %d domains, was %d", got, st.dstDoms)
					}
					if s := st.c.Stats(); s.Aborted != 1 || s.Migrations != 0 {
						return fmt.Errorf("stats = %+v, want 1 aborted and 0 migrations", s)
					}
				} else {
					if st.g.Host() != st.dstIdx {
						return fmt.Errorf("healthy migration left the guest on host %d", st.g.Host())
					}
					if s := st.c.Stats(); s.Migrations != 1 {
						return fmt.Errorf("stats = %+v, want 1 migration", s)
					}
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			cfg := cluster.Config{Hosts: 2, HostFrames: 96, Policy: cluster.Spread}
			if env.Armed {
				cfg.LinkBudget = 4
			}
			c, err := cluster.New(cfg, pooledHosts(env))
			if err != nil {
				return err
			}
			g, err := c.Place("mover", 16)
			if err != nil {
				return err
			}
			dst := 1 - g.Host()
			st := &clusterState{
				c: c, g: g, srcIdx: g.Host(), dstIdx: dst,
				dstFree: c.Hosts()[dst].Machine().Mem.FreeFrames(),
				dstDoms: len(c.Hosts()[dst].Hypervisor().Domains()),
			}
			env.State = st
			_, err = c.MigrateGuest("mover", dst)
			return err
		},
	},

	{
		ID:        "cluster/link-cost-accounting",
		Subsystem: "cluster",
		Fault:     "migration link priced at 50x the control leg's bandwidth and latency",
		Expect: Outcome{
			Desc: "both endpoints charge exactly latency*(rounds+1) + perpage*pages",
			Compare: func(control, armed *Env) error {
				for _, leg := range []*Env{control, armed} {
					st := leg.State.(*clusterState)
					name := "control"
					if leg.Armed {
						name = "armed"
					}
					want := uint64(st.latency)*uint64(st.live.Rounds+1) +
						uint64(st.perPage)*uint64(st.live.PagesMoved)
					if st.srcLink != want {
						return fmt.Errorf("%s leg: source charged %d link cycles, want %d", name, st.srcLink, want)
					}
					if st.dstLink != want {
						return fmt.Errorf("%s leg: destination charged %d link cycles, want %d", name, st.dstLink, want)
					}
				}
				cs := control.State.(*clusterState)
				as := armed.State.(*clusterState)
				if as.srcLink <= cs.srcLink {
					return fmt.Errorf("pricey link charged %d cycles, control %d — no delta", as.srcLink, cs.srcLink)
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			perPage, latency := hw.Cycles(2), hw.Cycles(400)
			if env.Armed {
				perPage, latency = 100, 20_000
			}
			c, err := cluster.New(cluster.Config{
				Hosts: 2, HostFrames: 96, Policy: cluster.Spread,
				LinkPerPage: perPage, LinkLatency: latency,
			}, pooledHosts(env))
			if err != nil {
				return err
			}
			g, err := c.Place("mover", 24)
			if err != nil {
				return err
			}
			dst := 1 - g.Host()
			live, err := c.MigrateGuest("mover", dst)
			if err != nil {
				return err
			}
			env.State = &clusterState{
				perPage: perPage, latency: latency, live: live,
				srcLink: c.Hosts()[1-dst].Machine().Rec.Cycles(vmm.LinkComponent),
				dstLink: c.Hosts()[dst].Machine().Rec.Cycles(vmm.LinkComponent),
			}
			return nil
		},
	},
}
