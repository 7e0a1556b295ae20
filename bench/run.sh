#!/usr/bin/env bash
# Builds vmmkbench from source and runs one workload:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build and everything it writes
# (Go build cache, temporary files, the binary, trace files) stay in
# .bench_build/ under the current directory; nothing is downloaded.
#
# Every workload runs its fixed op counts, sized to take about the
# run_seconds of BENCHMARK.json on a 2-vCPU host, so two commits compared
# on one host do identical simulated work. --seconds is required by the
# calling convention and checked to be a number, but does not set the run
# length: a time budget would let a faster commit run other inputs.
set -euo pipefail

usage() {
	echo "usage: bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1" >&2
	exit 2
}
workload="" seed="" seconds="" trace=0
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case "$1" in
	--workload) workload="$2" ;;
	--seed) seed="$2" ;;
	--seconds) seconds="$2" ;;
	--trace) trace="$2" ;;
	*) echo "run.sh: unknown argument $1" >&2; usage ;;
	esac
	shift 2
done
if [ -z "$workload" ] || [ -z "$seed" ] || ! [[ "$seconds" =~ ^[0-9]+(\.[0-9]+)?$ ]]; then
	usage
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/home/go" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
	GOWORK=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$out/vmmkbench" ./cmd/vmmkbench)

args=(-workload "$workload" -seed "$seed")
if [ "$trace" = 1 ]; then
	rm -rf "$out/trace"
	args+=(-trace "$out/trace")
fi
exec "$out/vmmkbench" "${args[@]}"
