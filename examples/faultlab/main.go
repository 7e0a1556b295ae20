// faultlab demonstrates the liability-inversion argument of §3.1: crash the
// shared storage service on each platform and survey the wreckage. The
// Parallax appliance on the VMM and the store server on the microkernel
// fail identically — their clients lose storage, nothing else notices —
// while the monolithic baseline loses everything.
//
//	go run ./examples/faultlab
package main

import (
	"fmt"
	"log"

	"vmmk/internal/core"
)

func main() {
	log.SetFlags(0)
	const guests = 4

	fmt.Println("faultlab — blast radius of a storage-service crash")
	fmt.Println()

	table := core.NewResultTable("",
		core.Col("platform", ""), core.Col("component", ""), core.Col("before", ""), core.Col("after crash", ""))
	builders := []func() (core.Platform, error){
		func() (core.Platform, error) { return core.NewMKStack(core.Config{Guests: guests}) },
		func() (core.Platform, error) { return core.NewXenStack(core.Config{Guests: guests}) },
		func() (core.Platform, error) { return core.NewNativeStack(core.Config{Guests: guests}) },
	}
	for _, build := range builders {
		p, err := build()
		if err != nil {
			log.Fatal(err)
		}
		// Every guest writes a block before the crash.
		for g := 0; g < guests; g++ {
			if p.Name() == "native" && g > 0 {
				break // the baseline models a single OS image
			}
			if err := p.StorageWrite(g, 1, []byte("precious")); err != nil {
				log.Fatalf("%s guest %d pre-crash write: %v", p.Name(), g, err)
			}
		}
		before := statusMap(p)
		p.KillStorage()
		after := map[string]string{}
		for _, cs := range p.Alive() {
			if cs.Alive {
				after[cs.Name] = "alive"
			} else {
				after[cs.Name] = "DEAD"
			}
		}
		// Service probes beat liveness bits: what actually still works?
		if err := p.StorageWrite(0, 2, []byte("x")); err != nil {
			after["storage service"] = "FAILED: " + truncate(err.Error(), 40)
		} else {
			after["storage service"] = "working"
		}
		if err := p.SendPackets(1, 64, 0); err != nil {
			after["network service"] = "FAILED: " + truncate(err.Error(), 40)
		} else {
			after["network service"] = "working"
		}

		names := append([]string{}, componentNames(p)...)
		names = append(names, "storage service", "network service")
		for _, name := range names {
			b := before[name]
			if b == "" {
				b = "working"
			}
			table.AddRow(p.Name(), name, b, after[name])
		}
	}
	fmt.Println(table)
	fmt.Println("§3.1's point, measured: the user-level storage server and the Parallax")
	fmt.Println("appliance have the same failure semantics. 'We fail to see the")
	fmt.Println("difference between a VMM and a microkernel in this respect.'")
}

func statusMap(p core.Platform) map[string]string {
	out := map[string]string{}
	for _, cs := range p.Alive() {
		if cs.Alive {
			out[cs.Name] = "alive"
		} else {
			out[cs.Name] = "DEAD"
		}
	}
	return out
}

func componentNames(p core.Platform) []string {
	var out []string
	for _, cs := range p.Alive() {
		out = append(out, cs.Name)
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
