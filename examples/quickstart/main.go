// Quickstart: boot both systems on identical simulated hardware, run the
// same tiny workload on each, and print the comparison the library exists
// to make — who crossed which protection boundary, how often, and at what
// CPU cost.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vmmk/internal/core"
	"vmmk/internal/guestos"
)

func main() {
	log.SetFlags(0)

	fmt.Println("vmmk quickstart — one workload, two system structures")
	fmt.Println()

	// The workload: 20 received packets, 20 syscalls, 5 storage writes.
	drive := func(p core.Platform) {
		for i := 0; i < 20; i++ {
			if err := p.DoSyscall(0, guestos.SysGetPID, 0); err != nil {
				log.Fatalf("%s syscall: %v", p.Name(), err)
			}
		}
		p.InjectPackets(20, 512, 0)
		if got := p.DrainRx(0); got != 20 {
			log.Fatalf("%s: lost packets: %d/20", p.Name(), got)
		}
		for b := uint64(0); b < 5; b++ {
			if err := p.StorageWrite(0, b, []byte("quickstart")); err != nil {
				log.Fatalf("%s storage: %v", p.Name(), err)
			}
		}
	}

	table := core.NewResultTable("",
		core.Col("system", ""), core.Col("IPC-equivalent ops", "ops"), core.Col("kernel/monitor cyc", "cycles"),
		core.Col("driver-side cyc", "cycles"), core.Col("total cyc", "cycles"))
	for _, build := range []func() (core.Platform, error){
		func() (core.Platform, error) { return core.NewMKStack(core.Config{}) },
		func() (core.Platform, error) { return core.NewXenStack(core.Config{}) },
	} {
		p, err := build()
		if err != nil {
			log.Fatal(err)
		}
		rec := p.M().Rec
		snap := rec.Snapshot()
		drive(p)
		kernel := rec.Cycles("mk.kernel") + rec.Cycles("vmm.xen")
		table.AddRow(p.Name(), rec.IPCEquivalentSince(snap), kernel, p.DriverSideCycles(), rec.TotalCycles())
	}
	fmt.Println(table)
	fmt.Println("The paper's §3.2 claim in one table: the two structures do essentially")
	fmt.Println("the same number of kernel-mediated transfers for the same work.")
}
