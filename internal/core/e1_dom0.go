package core

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// E1 reproduces the shape of Cherkasova & Gardner's measurement that the
// paper's §3.2 leans on: under network receive load, the driver domain
// (Dom0 plus the monitor) accounts for most of the system's CPU time, and
// its per-packet cost tracks the number of page flips, not the number of
// payload bytes.

// e1Sizes is the sweep's packet sizes: small to MTU-and-beyond messages.
var e1Sizes = []int{64, 256, 1024, 1500, 4096}

// e1Spec is E1's entry in the experiment table.
var e1Spec = Spec{
	ID:    "e1",
	Title: "Dom0 CPU overhead under I/O load (CG05 shape)",
	Params: []Param{{
		Name: "packets", Kind: ParamInt, DefaultInt: 100, Max: 1 << 20,
		Unit: "packets", Help: "packet count for E1 sweeps",
	}},
	Run: func(r *Runner, p Params) (*Result, error) {
		rows, err := r.e1(p.Int("packets"))
		if err != nil {
			return nil, err
		}
		return NewResult(e1Table(rows)), nil
	},
}

// E1Row is one point of the sweep.
type E1Row struct {
	Mode        string // flip or copy
	PktSize     int
	Packets     int
	Flips       uint64
	DriverCyc   uint64  // Dom0 + monitor cycles in the window
	DriverShare float64 // driver-side fraction of total window cycles
	PerPktCyc   uint64  // driver-side cycles per packet
	PerFlipCyc  uint64  // driver-side cycles per flip (0 in copy mode)
}

// e1 runs the sweep on this runner's worker pool: one cell per
// (delivery mode, packet size) point, each booting its own stack and
// delivering that many packets to its guest.
func (r *Runner) e1(packets int) ([]E1Row, error) {
	modes := []bool{false, true}
	return RunCells(r, len(modes)*len(e1Sizes), func(pool *hw.MachinePool, i int) (E1Row, error) {
		copyMode := modes[i/len(e1Sizes)]
		size := e1Sizes[i%len(e1Sizes)]
		s, err := NewXenStack(Config{CopyMode: copyMode, pool: pool})
		if err != nil {
			return E1Row{}, err
		}
		defer s.Close()
		rec := s.M().Rec
		snap := rec.Snapshot()
		driver0 := s.DriverSideCycles()
		total0 := rec.TotalCycles()

		s.InjectPackets(packets, size, 0)
		s.DrainRx(0)

		flips := rec.CountsSince(snap, trace.KPageFlip)
		driver := s.DriverSideCycles() - driver0
		total := rec.TotalCycles() - total0
		mode := "flip"
		if copyMode {
			mode = "copy"
		}
		row := E1Row{
			Mode:      mode,
			PktSize:   size,
			Packets:   packets,
			Flips:     flips,
			DriverCyc: driver,
			PerPktCyc: driver / uint64(packets),
		}
		if total > 0 {
			row.DriverShare = float64(driver) / float64(total)
		}
		if flips > 0 {
			row.PerFlipCyc = driver / flips
		}
		return row, nil
	})
}

// E1RateRow is one point of the offered-load sweep: packets arrive on a
// schedule (not back to back), so idle time exists and the driver side's
// share of *machine time* rises with load — the x-axis of the CG05 figure.
type E1RateRow struct {
	RatePktPerSec int
	Packets       int
	DriverCyc     uint64
	WindowCyc     uint64  // total virtual time the run spanned
	DriverLoad    float64 // driver cycles / window cycles ("CPU utilisation")
	Delivered     int
}

// E1Rates runs the offered-load sweep, one cell per rate point: packets
// packets of size bytes arrive at each rate in packets per second.
func (r *Runner) E1Rates(rates []int, packets, size int) ([]E1RateRow, error) {
	return RunCells(r, len(rates), func(pool *hw.MachinePool, i int) (E1RateRow, error) {
		rate := rates[i]
		s, err := NewXenStack(Config{pool: pool})
		if err != nil {
			return E1RateRow{}, err
		}
		defer s.Close()
		// 2e9 cycles is one second of the model's nominal 2 GHz clock; the
		// experiment reports shapes, not wall-clock throughput.
		gap := hw.Cycles(2_000_000_000 / max(rate, 1))
		start := s.M().Now()
		driver0 := s.DriverSideCycles()
		for i := 0; i < packets; i++ {
			pkt := make([]byte, size)
			at := start + hw.Cycles(i+1)*gap
			s.NIC.InjectAt(at, pkt)
		}
		// Drive the machine through the whole arrival schedule, fielding
		// each interrupt as it lands (one event per dispatch round).
		for s.M().Events.Pending() > 0 {
			s.M().Events.RunUntilIdle(1)
			s.M().IRQ.DispatchPending(s.H.Comp())
		}
		s.M().IRQ.DispatchPending(s.H.Comp())
		s.Pump()
		delivered := s.DrainRx(0)
		window := uint64(s.M().Now() - start)
		driver := s.DriverSideCycles() - driver0
		row := E1RateRow{
			RatePktPerSec: rate,
			Packets:       packets,
			DriverCyc:     driver,
			WindowCyc:     window,
			Delivered:     delivered,
		}
		if window > 0 {
			row.DriverLoad = float64(driver) / float64(window)
		}
		return row, nil
	})
}

// e1Table builds the main sweep's registry table.
func e1Table(rows []E1Row) *ResultTable {
	t := NewResultTable(
		"E1 — Dom0/driver-domain CPU under network RX load (Cherkasova-Gardner shape)",
		Col("mode", ""), Col("pkt B", "bytes"), Col("pkts", "packets"), Col("flips", "flips"),
		Col("driver cyc", "cycles"), Col("driver/pkt", "cycles/packet"),
		Col("driver share", "%"), Col("cyc/flip", "cycles/flip"),
	)
	for _, r := range rows {
		t.AddRow(r.Mode, r.PktSize, r.Packets, r.Flips, r.DriverCyc, r.PerPktCyc,
			fmt.Sprintf("%.0f%%", 100*r.DriverShare), r.PerFlipCyc)
	}
	return t
}
