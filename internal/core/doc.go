// Package core is the comparison framework — the reproduction's actual
// contribution, standing in for the "systematic and objective examination
// of the similarities and differences of microkernels and VMMs" the paper
// calls for. It boots the two complete stacks (vmm+vmmos as XenStack,
// mk+mkos as MKStack) and a monolithic native baseline on identical
// simulated hardware (package hw), replays identical workloads, and
// reduces the traces (package trace) to the quantities the debate argues
// about: boundary-crossing counts, per-component CPU attribution, failure
// blast radii, primitive censuses, portability deltas, migration downtime
// and — on multiprocessors — IPI and TLB-shootdown burden.
//
// The experiments are E1–E13, one file each (e1_dom0.go … e13_cluster.go),
// documented in EXPERIMENTS.md. Each file declares a Spec — id, title,
// typed parameters — as a package variable, and the declarative registry
// (spec.go) is one literal table of the thirteen; the CLI's flags and
// validation, the `list` output, the `all` sweep and the benchmarks are
// all generated from Specs(). Runner.RunExperiment is each experiment's
// one entry point: it normalizes the parameters through the declaring
// Param, which holds each parameter's only default and bound, then calls
// the Spec's Run(*Runner, Params) (*Result, error); Result (result.go) is
// the single typed result model — column schema with units, rows, echoed
// params — rendering as aligned text, CSV and stable JSON. Each experiment
// decomposes into independent cells — one freshly booted Platform or
// hw.Machine per (platform, parameter-point) pair — executed by the
// parallel engine in runner.go: each cell takes its machines from the
// worker's hw.MachinePool, which RunCells passes it as an argument, and
// puts them back when its row is computed; results land at their cell's
// index and every random stream is seeded inside the cell that consumes
// it, so any worker count yields byte-identical tables.
//
// E1–E11 always boot 1-CPU machines. Config.NCPUs sizes the machine for
// E12's SMP sweep: guests spread over non-boot CPUs (vCPU placement on the
// VMM side, thread affinity on the mk side) while drivers stay on the boot
// CPU with the monitor/kernel.
package core
