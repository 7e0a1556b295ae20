// Command vmmklab runs the paper-reproduction experiments and prints their
// result tables.
//
// Usage:
//
//	vmmklab [flags] <experiment>...
//	vmmklab all
//	vmmklab list
//	vmmklab scenarios [list] [-run id,id,...] [-shuffle seed]
//
// Experiments are e1 through e13 (see EXPERIMENTS.md for the index). The
// parameter flags are generated from the experiment registry
// (internal/core): each declared parameter becomes one flag, shared by
// every experiment that declares it, with the default its declaration
// gives. Run `vmmklab -h` for the generated list, or read the table
// EXPERIMENTS.md embeds from the registry.
//
// Engine and output flags (not experiment parameters):
//
//	-parallel n  max experiment cells in flight (default GOMAXPROCS)
//	-csv         emit CSV instead of aligned tables
//	-json        emit one JSON document per experiment (see EXPERIMENTS.md
//	             for the schema); try `vmmklab e3 -json | jq`
//
// `vmmklab scenarios` runs the fault-injection scenario matrix
// (internal/scenario): every row injects one fault and checks the stack
// reports the declared typed error, panic, post-mortem state or cross-leg
// trace invariant. `scenarios list` prints the declared rows; -run selects
// a subset; -shuffle <seed> runs the whole matrix in a seeded
// pseudo-random order (the same seed always yields the same order). -run
// and -shuffle apply only to a scenarios run: with an experiment, with
// `scenarios list` or with each other they are usage errors. A failing row
// exits nonzero — the CI scenarios job keys on that.
//
// Flags may appear before or after experiment names (vmmklab e12 -cpus 2
// works). Every parameter flag must be positive (each -cpus entry likewise);
// zero or negative values are usage errors, not silent clamps — enforced by
// the registry's shared validator.
//
// Every experiment decomposes into independent cells — one simulated
// machine per (platform, parameter-point) pair — which fan out across
// -parallel workers. Results are deterministic: any -parallel value
// produces byte-identical tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"vmmk/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vmmklab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vmmklab", flag.ContinueOnError)
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max experiment cells in flight")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit one JSON document per experiment")
	runIDs := fs.String("run", "", "comma-separated scenario ids (scenarios subcommand only)")
	shuffle := fs.Uint64("shuffle", 0, "seed for a pseudo-random scenario order (scenarios subcommand only; 0 = ID order)")
	// Every experiment parameter flag is generated from the registry: one
	// flag per declared parameter name, shared across the experiments that
	// declare it.
	intFlags := map[string]*int{}
	listFlags := map[string]*string{}
	for _, p := range core.FlagParams() {
		switch p.Kind {
		case core.ParamIntList:
			listFlags[p.Name] = fs.String(p.Name, p.DefaultString(), p.Help)
		default:
			intFlags[p.Name] = fs.Int(p.Name, p.DefaultInt, p.Help)
		}
	}
	// Accept flags on either side of experiment names ("vmmklab e12 -cpus
	// 2" reads naturally): parse, peel off leading positionals, and keep
	// parsing whatever remains. The flag package's conventions survive
	// the loop: a standalone "--" ends flag parsing for everything after
	// it, and a lone "-" is an ordinary (non-flag) argument.
	var positional, tail []string
	rest := args
	for i, a := range args {
		if a == "--" {
			rest = args[:i]
			tail = args[i+1:]
			break
		}
	}
	for {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rest = fs.Args()
		for len(rest) > 0 && (rest[0] == "-" || !strings.HasPrefix(rest[0], "-")) {
			positional = append(positional, rest[0])
			rest = rest[1:]
		}
		if len(rest) == 0 {
			break
		}
	}
	positional = append(positional, tail...)
	if *csv && *jsonOut {
		return fmt.Errorf("usage: -csv and -json are mutually exclusive")
	}
	// Validate every parameter through the registry's shared validator —
	// a zero or negative value is a usage error even when the selected
	// experiments don't read that flag. (-parallel is engine config, not
	// an experiment parameter: <= 0 falls back to GOMAXPROCS by design.)
	values := core.Params{}
	for _, p := range core.FlagParams() {
		switch p.Kind {
		case core.ParamIntList:
			v, err := p.Parse(*listFlags[p.Name])
			if err != nil {
				fs.Usage()
				return err
			}
			values[p.Name] = v
		default:
			v := *intFlags[p.Name]
			if err := p.Validate(v); err != nil {
				fs.Usage()
				return err
			}
			values[p.Name] = v
		}
	}
	if len(positional) == 0 {
		fs.Usage()
		return fmt.Errorf("no experiment given; try 'vmmklab list'")
	}
	// The scenario matrix is a subcommand, not an experiment: it has its
	// own table (internal/scenario) and pass/fail semantics.
	if positional[0] == "scenarios" {
		return runScenarios(positional[1:], *runIDs, *shuffle, *parallel, *csv, *jsonOut)
	}
	if *runIDs != "" || *shuffle != 0 {
		return fmt.Errorf("usage: -run and -shuffle select scenario rows; they apply only to the scenarios subcommand")
	}

	var ids []string
	for _, a := range positional {
		switch a {
		case "all":
			for _, s := range core.Specs() {
				ids = append(ids, s.ID)
			}
		case "list":
			for _, s := range core.Specs() {
				fmt.Printf("%-4s %s\n", s.ID, s.Title)
			}
			return nil
		default:
			if _, ok := core.Lookup(a); !ok {
				return fmt.Errorf("unknown experiment %q (try 'list')", a)
			}
			ids = append(ids, a)
		}
	}

	eng := core.NewRunner(*parallel)
	for _, id := range ids {
		spec, _ := core.Lookup(id)
		params := core.Params{}
		for _, p := range spec.Params {
			params[p.Name] = values[p.Name]
		}
		res, err := eng.RunExperiment(context.Background(), id, params)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		switch {
		case *jsonOut:
			b, err := res.JSON()
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Println(string(b))
		case *csv:
			fmt.Printf("== %s: %s ==\n", spec.ID, spec.Title)
			fmt.Print(res.CSV())
		default:
			fmt.Printf("== %s: %s ==\n", spec.ID, spec.Title)
			fmt.Print(res.Text())
		}
	}
	return nil
}
