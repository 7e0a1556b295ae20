// Command vmmkbench measures what the simulator costs its host, end to end
// and layer by layer, on four workloads (sweep, fleet, io, faults), and
// checks every simulated output against a stored oracle. See
// bench/README.md.
//
// Usage (from the bench directory):
//
//	go run ./cmd/vmmkbench [-workload name] [-seed n] [-trace dir] [-sets n] [-json]
//	go run ./cmd/vmmkbench -compare OLD.json [NEW.json]
//	go run ./cmd/vmmkbench -update
package main

import (
	"os"

	"vmmk/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
