// portability demonstrates §2.2's nine-platform claim: the identical OS
// personality (OS server, drivers, storage) boots and runs on every
// architecture descriptor through the microkernel's abstractions, while a
// VMM guest faces a different raw interface on each — quantified as the
// list of porting work items.
//
//	go run ./examples/portability
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"strings"

	"vmmk/internal/core"
	"vmmk/internal/guestos"
	"vmmk/internal/hw"
)

func main() {
	log.SetFlags(0)

	fmt.Println("portability — one component, nine architectures")
	fmt.Println()

	res, err := core.NewRunner(0).RunExperiment(context.Background(), "e6", nil)
	if err != nil {
		log.Fatal(err)
	}
	e6 := res.Tables[0]
	col := func(name string) int {
		return slices.IndexFunc(e6.Columns, func(c core.Column) bool { return c.Name == name })
	}
	arch, status, which := col("arch"), col("mk component"), col("which")
	table := core.NewResultTable("",
		core.Col("architecture", ""), core.Col("mk personality", ""), core.Col("VMM guest port items", "items"))
	for _, r := range e6.Rows {
		items := "(baseline)"
		if w := r[which].(string); w != "" {
			items = strings.ReplaceAll(w, ", ", "; ")
		}
		table.AddRow(r[arch], r[status], items)
	}
	fmt.Println(table)

	// Show it concretely: the same IPC echo on the two extremes of the
	// span, an embedded ARM and a big-iron PPC64.
	fmt.Println("cycle cost of the same IPC round trip across the span:")
	for _, arch := range hw.AllArchs() {
		s, err := core.NewMKStack(core.Config{Arch: arch})
		if err != nil {
			log.Fatal(err)
		}
		t0 := s.M().Now()
		if err := s.DoSyscall(0, guestos.SysGetPID, 0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %6d cycles\n", arch.Name, s.M().Now()-t0)
	}
	fmt.Println()
	fmt.Println("\"software that is written for an L4 microkernel naturally runs on nine")
	fmt.Println("different processor platforms\" — the costs differ, the code does not.")
}
