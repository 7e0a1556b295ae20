// Command vmmklint is the simulator's domain-specific multichecker: it runs
// the internal/lint analyzer suite (detrand, maporder, tracecomp, boundedgo,
// regspec) over the given package patterns and exits non-zero on any
// finding. CI runs `go run ./cmd/vmmklint ./...` on every push; the repo
// must stay clean. The experiment and scenario declarations are values in
// literal tables, so their rules are tests, not analyzers:
// TestSpecsWellFormed (internal/core) and TestRowsWellFormed
// (internal/scenario).
//
// Usage:
//
//	go run ./cmd/vmmklint [-json] [packages]
//
// With no patterns it checks ./... relative to the current directory.
// Findings print as file:line:col: message (analyzer); -json emits one JSON
// object per finding instead. A finding can be suppressed with a
// `//vmmklint:ignore <reason>` comment on the same line or the line above —
// the reason is mandatory and the escape hatch is for the rare site where
// the rule is deliberately broken (see DESIGN.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vmmk/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	list := flag.Bool("analyzers", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vmmklint [-json] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Machine-checks the simulator's determinism and charging invariants.\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmmklint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(lint.All(), pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmmklint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		if *jsonOut {
			b, err := json.Marshal(d)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vmmklint:", err)
				os.Exit(2)
			}
			fmt.Println(string(b))
			continue
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
