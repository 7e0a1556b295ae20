// Command tracedump boots one platform with event logging enabled, runs a
// small canned workload, and dumps the raw kernel-event trace — the tool
// you reach for when a table in vmmklab looks wrong and you want to see
// every boundary crossing with its cycle timestamp.
//
// Usage:
//
//	tracedump [-platform mk|vmm] [-packets n] [-syscalls n] [-last n]
package main

import (
	"flag"
	"fmt"
	"os"

	"vmmk/internal/core"
	"vmmk/internal/guestos"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	platform := fs.String("platform", "vmm", "which stack to trace: mk or vmm")
	packets := fs.Int("packets", 3, "RX packets to run")
	syscalls := fs.Int("syscalls", 3, "syscalls to run")
	last := fs.Int("last", 200, "print only the last n events (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.Config{LogCap: 65536}
	var p core.Platform
	var err error
	switch *platform {
	case "mk":
		p, err = core.NewMKStack(cfg)
	case "vmm":
		p, err = core.NewXenStack(cfg)
	default:
		return fmt.Errorf("unknown platform %q", *platform)
	}
	if err != nil {
		return err
	}

	for i := 0; i < *syscalls; i++ {
		if err := p.DoSyscall(0, guestos.SysGetPID, 0); err != nil {
			return err
		}
	}
	p.InjectPackets(*packets, 256, 0)
	p.DrainRx(0)
	if err := p.StorageWrite(0, 1, []byte("trace")); err != nil {
		return err
	}

	rec := p.M().Rec
	fmt.Printf("platform: %s  packets: %d  syscalls: %d\n\n", p.Name(), *packets, *syscalls)
	fmt.Println(rec.Summary())
	log := rec.Log()
	if *last > 0 && len(log) > *last {
		log = log[len(log)-*last:]
	}
	fmt.Printf("event log (last %d entries):\n", len(log))
	for _, r := range log {
		fmt.Printf("  %12d  %-18s %-14s %6d cyc", r.At, r.Kind, r.Component, r.Cycles)
		if r.Count > 1 {
			fmt.Printf("  x%d", r.Count)
		}
		fmt.Println()
	}
	return nil
}
