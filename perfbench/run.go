package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minRounds is the fewest rounds a run makes, whatever -seconds says:
// the second round repeats every campaign of the first, so each run
// checks that its campaigns reproduce, and a traced run gets one
// untraced round to compare its overhead against.
const minRounds = 2

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool
	outDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line the benchmark prints last.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the box and the run behind a result.
type stamp struct {
	CPU          string         `json:"cpu"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Workers      int            `json:"workers"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceDigest string         `json:"source_digest"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Trace        bool           `json:"trace"`
	Seconds      float64        `json:"seconds"`
	Rounds       int            `json:"rounds"`
	Sizes        map[string]any `json:"sizes"`
}

// round is one pass over every campaign of the workload.
type round struct {
	index     int
	traced    bool
	campaigns []*campaignRun
	layers    []*layerRun
	// peakRSSMB is the process's peak resident memory over the round.
	peakRSSMB float64
	// layerMetrics are a traced round's per-layer metrics.
	layerMetrics map[string]float64
}

// keptTracedRounds is how many traced rounds keep their spans for the
// run record; later rounds drop theirs once their metrics are taken,
// so a long traced run's memory stays flat.
const keptTracedRounds = 2

func (r *round) campaignS() float64 {
	var s float64
	for _, c := range r.campaigns {
		s += c.end.Sub(c.start).Seconds()
	}
	return s
}

func (r *round) setupS() float64 {
	var s float64
	for _, c := range r.campaigns {
		s += c.firstSkip.Sub(c.start).Seconds()
	}
	return s
}

func (r *round) experiments() int {
	n := 0
	for _, c := range r.campaigns {
		n += c.n
	}
	return n
}

// runResult is everything a run produced.
type runResult struct {
	summary    summary
	stamp      stamp
	problems   []string
	recordPath string
	// observed is each campaign's first-round outputs, by name.
	observed map[string]expectedCampaign
}

// expectedCampaign is the part of a campaign's output that must not
// change from run to run, or from commit to commit without a reason.
type expectedCampaign struct {
	Digest      string         `json:"digest"`
	Tally       map[string]int `json:"tally"`
	GuestCycles uint64         `json:"guest_cycles"`
}

//go:embed expected.json
var expectedJSON []byte

// expectedFor returns the recorded outputs of the workload's campaigns
// at the default seed and full size.
func expectedFor(workload string) (map[string]expectedCampaign, error) {
	var all map[string]map[string]expectedCampaign
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	exp, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("expected.json has no %s entry", workload)
	}
	return exp, nil
}

func observe(cr *campaignRun) expectedCampaign {
	return expectedCampaign{Digest: cr.digest, Tally: cr.tally, GuestCycles: cr.cycles}
}

func sameOutputs(a, b expectedCampaign) bool {
	if a.Digest != b.Digest || a.GuestCycles != b.GuestCycles || len(a.Tally) != len(b.Tally) {
		return false
	}
	for k, v := range a.Tally {
		if b.Tally[k] != v {
			return false
		}
	}
	return true
}

// run generates the workload, runs rounds of its campaigns while the
// measurement time left holds another round as long as the last one,
// checks every campaign and computes the metrics. In a traced run, rounds alternate untraced and traced, and
// every traced campaign is followed by its layer pass.
func run(c config) (*runResult, error) {
	w, err := buildWorkload(c.workload, c.seed, c.small)
	if err != nil {
		return nil, err
	}
	var want map[string]expectedCampaign
	if c.seed == defaultSeed && !c.small {
		if want, err = expectedFor(c.workload); err != nil {
			return nil, err
		}
	}
	storeRoot := filepath.Join(c.outDir, "stores")
	if err := os.MkdirAll(storeRoot, 0o755); err != nil {
		return nil, err
	}

	res := &runResult{observed: map[string]expectedCampaign{}}
	start := time.Now()
	deadline := start.Add(time.Duration(c.seconds * float64(time.Second)))
	var tr *tracer
	if c.trace {
		tr = newTracer(start)
	}
	var rounds []*round
	var last time.Duration
	for i := 0; i < minRounds || time.Now().Add(last).Before(deadline); i++ {
		roundStart := time.Now()
		resetPeakRSS()
		rd := &round{index: i, traced: c.trace && i%2 == 1}
		var rtr *tracer
		if rd.traced {
			rtr = tr
			tr.setRound(i)
		}
		for _, t := range w.targets {
			cr, err := runCampaign(t, storeRoot, rtr)
			if err == nil {
				err = verify(cr, res.observed, want)
			}
			var lr *layerRun
			if err == nil && rd.traced {
				lr, err = layerPass(t, cr, storeRoot, rtr)
			}
			cr.release()
			n := max(cr.n, 1)
			res.summary.Attempted += n
			if err != nil {
				res.summary.Failed += n
				res.problems = append(res.problems, fmt.Sprintf("round %d, campaign %s: %v", i, t.name, err))
				continue
			}
			rd.campaigns = append(rd.campaigns, cr)
			if lr != nil {
				rd.layers = append(rd.layers, lr)
			}
		}
		if rd.traced && len(rd.campaigns) > 0 {
			rd.layerMetrics = layerRound(rd, tr)
			if (i+1)/2 > keptTracedRounds {
				tr.drop(i)
			}
		}
		rd.peakRSSMB = peakRSSMB()
		rounds = append(rounds, rd)
		last = time.Since(roundStart)
	}

	var untraced, traced []*round
	for _, rd := range rounds {
		if rd.traced {
			traced = append(traced, rd)
		} else {
			untraced = append(untraced, rd)
		}
	}
	values, defs := endToEnd(untraced, res.summary), endToEndMetrics
	if c.trace {
		values, defs = perLayer(traced, untraced), perLayerMetrics
	}
	res.summary.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		res.summary.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	res.summary.Correct = res.summary.Failed == 0 && len(res.problems) == 0

	res.stamp = newStamp(c, w, len(rounds))
	res.recordPath, err = writeRecord(c, res, rounds, tr)
	return res, err
}

// verify checks a campaign's outputs against its first run in this
// process and, at the default seed, against expected.json.
func verify(cr *campaignRun, seen, want map[string]expectedCampaign) error {
	got := observe(cr)
	if prev, ok := seen[cr.name]; ok {
		if !sameOutputs(got, prev) {
			return fmt.Errorf("outputs changed between rounds: %+v, first %+v", got, prev)
		}
	} else {
		seen[cr.name] = got
	}
	if want != nil {
		if w, ok := want[cr.name]; !ok || !sameOutputs(got, w) {
			return fmt.Errorf("outputs %+v differ from expected.json %+v", got, w)
		}
	}
	return nil
}

// endToEnd computes the end-to-end metrics from the untraced rounds:
// per-round sums over campaigns, reported as the median round.
func endToEnd(rounds []*round, s summary) map[string]float64 {
	var camp, setup, rate, ff, rss []float64
	for _, rd := range rounds {
		if len(rd.campaigns) == 0 {
			continue
		}
		cs, ss := rd.campaignS(), rd.setupS()
		camp = append(camp, cs)
		setup = append(setup, ss)
		rate = append(rate, float64(rd.experiments())/(cs-ss))
		rss = append(rss, rd.peakRSSMB)
		for _, cr := range rd.campaigns {
			ff = append(ff, cr.firstFinding.Sub(cr.start).Seconds())
		}
	}
	okFrac := 0.0
	if s.Attempted > 0 {
		okFrac = 1 - float64(s.Failed)/float64(s.Attempted)
	}
	return map[string]float64{
		"campaign_s":      median(camp),
		"setup_s":         median(setup),
		"exps_per_s":      median(rate),
		"first_finding_s": median(ff),
		"peak_rss_mb":     median(rss),
		"ok_frac":         okFrac,
	}
}

// perLayer reports the median traced round's per-layer metrics, and
// the traced rounds' campaign time against the untraced rounds'.
func perLayer(traced, untraced []*round) map[string]float64 {
	per := map[string][]float64{}
	var tracedCamp []float64
	for _, rd := range traced {
		if rd.layerMetrics == nil {
			continue
		}
		tracedCamp = append(tracedCamp, rd.campaignS())
		for k, v := range rd.layerMetrics {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range per {
		out[k] = median(vs)
	}
	var plain []float64
	for _, rd := range untraced {
		if len(rd.campaigns) > 0 {
			plain = append(plain, rd.campaignS())
		}
	}
	if base := median(plain); base > 0 {
		out["trace.overhead_frac"] = median(tracedCamp)/base - 1
	}
	return out
}

// layerRound derives one traced round's per-layer metrics from its
// spans and counters.
func layerRound(rd *round, tr *tracer) map[string]float64 {
	dur := func(name string) []time.Duration { return tr.durations(rd.index, name) }
	ms := func(name string) float64 { return float64(sumDur(dur(name))) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	m := map[string]float64{
		"profiler.profile_ms":    ms("layer.profile"),
		"audit.analyze_ms":       ms("layer.audit"),
		"core.plan_ms":           ms("layer.plan"),
		"controller.stubset_ms":  ms("layer.stubset"),
		"vm.load_ms":             ms("layer.load"),
		"vm.snapshot_ms":         ms("layer.snapshot"),
		"core.executor_setup_ms": ms("executor.setup"),
		"campaign.triage_ms":     ms("layer.triage"),
		"vm.prefix_ms":           ms("layer.prefix"),
	}
	svc := dur("exp.service")
	m["core.exp_ms.p50"] = float64(medianDur(svc)) / 1e6
	m["core.exp_ms.max"] = float64(maxDur(svc)) / 1e6
	m["vm.restore_us"] = us(meanDur(dur("layer.restore")))
	m["controller.bind_us"] = us(meanDur(dur("layer.bind")))
	m["campaign.append_us"] = us(meanDur(dur("layer.append")))
	// Glue is the part of an experiment's service span that the
	// replayed work inside it does not explain: restore, bind and run
	// the way the executor ran the experiment, and the store append
	// (campaign.Sweep appends before the caller's OnResult). It is the
	// median over experiments, so that the few members whose span also
	// holds their group's prefix build, or a wait for another worker's,
	// do not stand in for the rest.
	svcBy := tr.byTrace(rd.index, "exp.service")
	workBy := tr.byTrace(rd.index, "layer.restore", "layer.bind", "layer.run", "layer.append")
	var glue []float64
	for trace, d := range svcBy {
		glue = append(glue, us(d-workBy[trace]))
	}
	m["core.glue_us"] = median(glue)

	var postSetup time.Duration
	var exps int
	var alloc, cycles, injections uint64
	var memo struct{ prefixes, restored, terminal, singletons, fallbacks, evictions int }
	var peak int64
	for _, cr := range rd.campaigns {
		postSetup += cr.sweepEnd.Sub(cr.firstSkip)
		exps += cr.n
		alloc += cr.allocBytes
		cycles += cr.cycles
		injections += cr.injections
		memo.prefixes += cr.memo.Prefixes
		memo.restored += cr.memo.Restored
		memo.terminal += cr.memo.Terminal
		memo.singletons += cr.memo.Singletons
		memo.fallbacks += cr.memo.Fallbacks
		memo.evictions += cr.memo.Evictions
		peak = max(peak, cr.memo.PeakBytes)
	}
	m["core.worker_busy_frac"] = float64(sumDur(svc)) / (sweepWorkers * float64(postSetup))
	m["core.alloc_kb_per_exp"] = float64(alloc) / 1024 / float64(exps)
	m["vm.guest_cycles"] = float64(cycles)
	m["controller.injections"] = float64(injections)
	m["core.memo.prefixes"] = float64(memo.prefixes)
	m["core.memo.restored"] = float64(memo.restored)
	m["core.memo.terminal"] = float64(memo.terminal)
	m["core.memo.singletons"] = float64(memo.singletons)
	m["core.memo.fallbacks"] = float64(memo.fallbacks)
	m["core.memo.evictions"] = float64(memo.evictions)
	if d := memo.restored + memo.terminal + memo.singletons + memo.fallbacks; d > 0 {
		m["core.memo.hit_ratio"] = float64(memo.restored+memo.terminal) / float64(d)
	}
	m["core.memo.peak_mb"] = float64(peak) / (1 << 20)

	var states, records, recordBytes int
	var baseCycles, prefixCycles uint64
	for _, lr := range rd.layers {
		states += lr.states
		records += lr.records
		recordBytes += lr.recordBytes
		baseCycles += lr.baseCycles
		prefixCycles += lr.prefixCycles
	}
	m["profiler.states"] = float64(states)
	if records > 0 {
		m["campaign.record_bytes"] = float64(recordBytes) / float64(records)
	}
	if baseCycles > 0 {
		m["vm.base_ns_per_cycle"] = float64(sumDur(dur("layer.baseline"))) / float64(baseCycles)
	}
	if prefixCycles > 0 {
		m["vm.prefix_ns_per_cycle"] = float64(sumDur(dur("layer.prefix"))) / float64(prefixCycles)
	}
	return m
}

// properties measures the input properties an optimisation could
// depend on: setup share, not-triggered share and memo hit ratio over
// all rounds, and the median traced campaign's slowest-experiment share
// of its campaign time.
func properties(rounds []*round) map[string]float64 {
	var camp, setup float64
	var exps, notTrig, hits, lookups int
	var slowest []float64
	for _, rd := range rounds {
		for _, cr := range rd.campaigns {
			camp += cr.end.Sub(cr.start).Seconds()
			setup += cr.firstSkip.Sub(cr.start).Seconds()
			exps += cr.n
			notTrig += cr.tally["not-triggered"]
			hits += cr.memo.Restored + cr.memo.Terminal
			lookups += cr.memo.Restored + cr.memo.Terminal + cr.memo.Singletons + cr.memo.Fallbacks
			if cr.slowest > 0 {
				slowest = append(slowest, cr.slowest.Seconds()/cr.end.Sub(cr.start).Seconds())
			}
		}
	}
	out := map[string]float64{}
	if camp > 0 {
		out["setup_share"] = setup / camp
	}
	if exps > 0 {
		out["not_triggered_share"] = float64(notTrig) / float64(exps)
	}
	if lookups > 0 {
		out["memo_hit_ratio"] = float64(hits) / float64(lookups)
	}
	if len(slowest) > 0 {
		out["slowest_exp_share"] = median(slowest)
	}
	return out
}

// resetPeakRSS restarts the kernel's count of this process's peak
// resident set, so that each round's peak reads on its own. Where the
// kernel refuses, VmHWM keeps counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func newStamp(c config, w *workload, rounds int) stamp {
	return stamp{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      sweepWorkers,
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest(),
		Workload:     c.workload,
		Seed:         c.seed,
		Trace:        c.trace,
		Seconds:      c.seconds,
		Rounds:       rounds,
		Sizes:        w.sizes,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "unknown" outside a git
// work tree root.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the checkout's Go sources and module files, so
// a record names the code it measured even outside git.
func sourceDigest() string {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// writeRecord writes the run's record — stamp, per-round figures,
// input properties, checks, metrics and (traced) every span — and
// returns its path.
func writeRecord(c config, res *runResult, rounds []*round, tr *tracer) (string, error) {
	type roundRecord struct {
		Index       int     `json:"index"`
		Traced      bool    `json:"traced"`
		CampaignS   float64 `json:"campaign_s"`
		SetupS      float64 `json:"setup_s"`
		Experiments int     `json:"experiments"`
	}
	rec := struct {
		Stamp      stamp                       `json:"stamp"`
		Summary    summary                     `json:"summary"`
		Problems   []string                    `json:"problems"`
		Properties map[string]float64          `json:"properties"`
		Campaigns  map[string]expectedCampaign `json:"campaigns"`
		Rounds     []roundRecord               `json:"rounds"`
		Spans      []span                      `json:"spans,omitempty"`
	}{
		Stamp: res.stamp, Summary: res.summary, Problems: res.problems,
		Properties: properties(rounds), Campaigns: res.observed,
	}
	for _, rd := range rounds {
		rec.Rounds = append(rec.Rounds, roundRecord{
			Index: rd.index, Traced: rd.traced,
			CampaignS: rd.campaignS(), SetupS: rd.setupS(), Experiments: rd.experiments(),
		})
	}
	if tr != nil {
		rec.Spans = tr.spans
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	trace := 0
	if c.trace {
		trace = 1
	}
	path := filepath.Join(c.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", c.workload, c.seed, trace))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
