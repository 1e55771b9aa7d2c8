// Command perfbench is the campaign benchmark: it runs one named
// workload of fault-injection campaigns for a fixed time, checks every
// campaign's outputs, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output.
//
//	bash perfbench/run.sh --workload suite-sweep --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package from the checkout's sources; see
// METRICS.md for what each workload and metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeed is the seed whose campaign outputs expected.json records.
const defaultSeed = 1

// metricDef names a printed metric and its unit; the lists match
// BENCHMARK.json's end_to_end and per_layer entries.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"campaign_s", "s"},
	{"setup_s", "s"},
	{"exps_per_s", "1/s"},
	{"first_finding_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"profiler.profile_ms", "ms"},
	{"profiler.states", "count"},
	{"audit.analyze_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"controller.stubset_ms", "ms"},
	{"vm.load_ms", "ms"},
	{"vm.snapshot_ms", "ms"},
	{"core.executor_setup_ms", "ms"},
	{"core.exp_ms.p50", "ms"},
	{"core.exp_ms.max", "ms"},
	{"core.worker_busy_frac", "ratio"},
	{"vm.restore_us", "us"},
	{"controller.bind_us", "us"},
	{"campaign.append_us", "us"},
	{"campaign.record_bytes", "bytes"},
	{"core.alloc_kb_per_exp", "KiB"},
	{"core.glue_us", "us"},
	{"campaign.triage_ms", "ms"},
	{"vm.base_ns_per_cycle", "ns"},
	{"vm.prefix_ms", "ms"},
	{"vm.prefix_ns_per_cycle", "ns"},
	{"core.memo.prefixes", "count"},
	{"core.memo.restored", "count"},
	{"core.memo.terminal", "count"},
	{"core.memo.singletons", "count"},
	{"core.memo.fallbacks", "count"},
	{"core.memo.evictions", "count"},
	{"core.memo.hit_ratio", "ratio"},
	{"core.memo.peak_mb", "MB"},
	{"vm.guest_cycles", "count"},
	{"controller.injections", "count"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload to run: suite-sweep or memo-startup")
	flag.Int64Var(&c.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measurement time; rounds start until it is spent (at least two run)")
	flag.IntVar(&trace, "trace", 0, "1 runs traced rounds and the layer pass and prints the per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	c.trace = trace == 1
	c.outDir = filepath.Join(".bench_build", "out")

	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	stamp, err := json.Marshal(res.stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("stamp: %s\n", stamp)
	fmt.Printf("record: %s\n", res.recordPath)
	fmt.Printf("%s\n", line)
	if !res.summary.Correct {
		os.Exit(1)
	}
}
