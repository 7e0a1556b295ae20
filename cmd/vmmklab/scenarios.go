package main

import (
	"fmt"
	"strings"

	"vmmk/internal/core"
	"vmmk/internal/scenario"
)

// runScenarios is the `vmmklab scenarios` subcommand: the fault-injection
// scenario matrix (internal/scenario). With no further arguments it runs
// the whole matrix; `scenarios list` prints the declared rows without
// running anything; -run selects a comma-separated subset; -shuffle runs
// the whole matrix in a seeded pseudo-random order, proving no row depends
// on its neighbours' pool residue. Output goes through the same
// text/CSV/JSON renderers as the experiments. Any failing row makes the
// command return an error (nonzero exit) — this is what the CI scenarios
// job keys on.
func runScenarios(positional []string, runIDs string, shuffle uint64, parallel int, csv, jsonOut bool) error {
	list := false
	for _, a := range positional {
		switch a {
		case "list":
			list = true
		default:
			return fmt.Errorf("unknown scenarios argument %q (try 'scenarios list' or -run <ids>)", a)
		}
	}
	if shuffle != 0 && (list || runIDs != "") {
		return fmt.Errorf("usage: -shuffle runs the whole matrix; it cannot combine with list or -run")
	}
	if list && runIDs != "" {
		return fmt.Errorf("usage: list prints every row; it cannot combine with -run")
	}

	var res *core.Result
	var failed int
	if list {
		res = scenario.ListReport()
	} else {
		var ids []string
		if shuffle != 0 {
			ids = scenario.ShuffledIDs(shuffle)
		}
		if runIDs != "" {
			for _, id := range strings.Split(runIDs, ",") {
				if id = strings.TrimSpace(id); id != "" {
					ids = append(ids, id)
				}
			}
		}
		results, err := scenario.Run(scenario.Options{Parallel: parallel, IDs: ids})
		if err != nil {
			return err
		}
		_, failed, _ = scenario.Summarize(results)
		res = scenario.Report(results)
	}

	switch {
	case jsonOut:
		b, err := res.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	case csv:
		fmt.Printf("== %s: %s ==\n", res.Experiment, res.Title)
		fmt.Print(res.CSV())
	default:
		fmt.Printf("== %s: %s ==\n", res.Experiment, res.Title)
		fmt.Print(res.Text())
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(res.Tables[0].Rows))
	}
	return nil
}
