#!/bin/sh
# benchvm.sh — step-vs-block engine comparison for the VM benchmarks.
#
# Prints a ns/op table for the BenchmarkVMExec kernels (both engines run
# as sub-benchmarks of one invocation) and A/Bs the end-to-end campaign
# benchmarks across engines via the LFI_ENGINE hook in bench_test.go.
# Run it before and after touching internal/vm to spot regressions:
#
#   ./scripts/benchvm.sh             # quick (default benchtime)
#   BENCHTIME=2s ./scripts/benchvm.sh
#
# The recorded baseline lives in BENCH_vm.json.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"

echo "== BenchmarkVMExec (ns per guest instruction; step vs block per kernel) =="
go test -run '^$' -bench BenchmarkVMExec -benchtime "$BENCHTIME" . |
	awk '/^BenchmarkVMExec/ {
		split($1, parts, "/");
		kernel = parts[2]; engine = parts[3];
		sub(/-[0-9]+$/, "", engine);
		ns[kernel "/" engine] = $3;
		if (!(kernel in seen)) { order[++n] = kernel; seen[kernel] = 1 }
	}
	END {
		printf "%-14s %10s %10s %8s\n", "kernel", "step", "block", "speedup";
		for (i = 1; i <= n; i++) {
			k = order[i];
			s = ns[k "/step"]; b = ns[k "/block"];
			printf "%-14s %8.2fns %8.2fns %7.2fx\n", k, s, b, s / b;
		}
	}'

echo
echo "== End-to-end campaign (BenchmarkSweepSequential / BenchmarkSweepSnapshot) =="
for engine in step block; do
	echo "-- engine=$engine"
	LFI_ENGINE=$engine go test -run '^$' \
		-bench 'BenchmarkSweepSequential|BenchmarkSweepSnapshot' \
		-benchtime "$BENCHTIME" . | grep '^Benchmark'
done
