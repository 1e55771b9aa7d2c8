package main

import (
	"fmt"
	"math/rand"
	"strings"

	"lfi/internal/core"
	"lfi/internal/corpus"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlSuite = "suite-sweep"
	wlMemo  = "memo-startup"
)

var workloadNames = []string{wlSuite, wlMemo}

// target is one campaign's input: the guest programs, the executable to
// sweep and, unless the campaign profiles in-process, a fixed profile.
type target struct {
	name string
	cfg  core.CampaignConfig
	// set is the fixed fault profile; nil profiles the executable's
	// libraries in-process (core.LFI with kernel image and heuristics).
	set profile.Set
}

// workload is the generated input of one benchmark run: the campaigns
// one round executes, plus the sizes the output stamp records.
type workload struct {
	name    string
	targets []*target
	sizes   map[string]any
}

// cfgFile is the config the loader apps read; their baseline copies it
// to /out and exits 0.
var cfgFile = map[string][]byte{"/cfg": []byte("mode=bench\nworkers=2\n")}

// loaderApp renders a config-loader guest: a startup loop of loop
// iterations folding its counter into acc with multiplier mul, then
// open/read/close of /cfg, a malloc'd scratch buffer,
// and a copy of the config to /out. check selects which of the five
// library calls the app tests for failure (bit order open, read,
// close, malloc, write); an unchecked malloc dereferences NULL, an
// unchecked read passes -1 on as a length. Every app calls malloc, so
// every campaign has at least one finding: an error-exit when it
// checks, a crash when it does not.
func loaderApp(loop, mul int, check uint, linkCorpus bool) string {
	guard := func(bit uint, cond string, code int) string {
		if check&(1<<bit) == 0 {
			return ""
		}
		return fmt.Sprintf("  if (%s) { return %d; }\n", cond, code)
	}
	var b strings.Builder
	b.WriteString("needs \"libc.so\";\n")
	if linkCorpus {
		b.WriteString("needs \"libcorpus.so\";\n")
	}
	b.WriteString(`extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern int write(int fd, byte *buf, int n);
extern byte *malloc(int n);
extern tls int errno;
int main(void) {
  int fd;
  int out;
  int n;
  int r;
  int i;
  int acc;
  byte buf[32];
  byte *p;
  acc = 0;
`)
	fmt.Fprintf(&b, "  for (i = 0; i < %d; i = i + 1) { acc = acc * %d + i; }\n", loop, mul)
	b.WriteString("  fd = open(\"/cfg\", 0, 0);\n")
	b.WriteString(guard(0, "fd < 0", 2))
	b.WriteString("  n = read(fd, buf, 31);\n")
	b.WriteString(guard(1, "n < 0", 3))
	b.WriteString("  r = close(fd);\n")
	b.WriteString(guard(2, "r < 0", 4))
	b.WriteString("  p = malloc(64);\n")
	b.WriteString(guard(3, "p == 0", 5))
	b.WriteString("  p[0] = 'x';\n")
	b.WriteString("  out = open(\"/out\", 65, 420);\n")
	b.WriteString(guard(0, "out < 0", 2))
	b.WriteString("  r = write(out, buf, n);\n")
	b.WriteString(guard(4, "r < 0", 6))
	b.WriteString("  close(out);\n  return 0;\n}\n")
	return b.String()
}

// splitLoops deals total startup iterations over n apps in seeded
// shares between lo and hi of the mean, scaled so that they sum to
// total: per-app shapes vary with the seed while a round's total guest
// work stays fixed.
func splitLoops(rng *rand.Rand, n, total int, lo, hi float64) []int {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = lo + (hi-lo)*rng.Float64()
		sum += w[i]
	}
	out := make([]int, n)
	left := total
	for i := 0; i < n-1; i++ {
		out[i] = int(float64(total) * w[i] / sum)
		left -= out[i]
	}
	out[n-1] = left
	return out
}

// buildWorkload generates the named workload's inputs from the seed.
// small shrinks it for the self-tests.
func buildWorkload(name string, seed int64, small bool) (*workload, error) {
	lc, err := libc.Compile()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case wlSuite:
		return suiteWorkload(lc, rng, small)
	case wlMemo:
		return memoWorkload(lc, rng, small)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// corpusSeed generates suite-sweep's corpus library. It is the same
// for every run seed, so every seed profiles and sweeps the same library
// functions and a round's experiment count does not depend on the seed.
const corpusSeed = defaultSeed

// suiteChecks are the check masks of suite-sweep's apps (bit order open,
// read, close, malloc, write): every call checked, none, and a spread in
// between. The seed deals them to the apps, so which app checks what
// varies while the round as a whole checks the same calls; the time to
// a round's median first finding then does not depend on the seed.
var suiteChecks = []uint{0x1f, 0x00, 0x01, 0x03, 0x07, 0x0f, 0x0a, 0x15, 0x12}

// suiteWorkload: a suite of config-loader apps sharing libc and one
// generated 400-function corpus library, each profiled, audited and
// swept as its own campaign.
func suiteWorkload(lc *obj.File, rng *rand.Rand, small bool) (*workload, error) {
	apps, total := len(suiteChecks), 9000
	if small {
		apps, total = 2, 2000
	}
	const corpusFuncs = 400
	lib, err := corpus.Generate(corpus.Traits{Name: "libcorpus.so", Seed: corpusSeed, NumFuncs: corpusFuncs})
	if err != nil {
		return nil, err
	}
	w := &workload{name: wlSuite}
	loops := splitLoops(rng, apps, total, 0.25, 1.75)
	checks := make([]uint, len(suiteChecks))
	for i, j := range rng.Perm(len(suiteChecks)) {
		checks[i] = suiteChecks[j]
	}
	for i := 0; i < apps; i++ {
		name := fmt.Sprintf("cfgload%d", i)
		app, err := minic.Compile(name, loaderApp(loops[i], 1, checks[i], true), obj.Executable)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		w.targets = append(w.targets, &target{
			name: name,
			cfg: core.CampaignConfig{
				Programs:   []*obj.File{app, lc, lib.Object},
				Executable: name,
				Files:      cfgFile,
			},
		})
	}
	w.sizes = map[string]any{"apps": apps, "corpus_funcs": corpusFuncs, "corpus_seed": corpusSeed,
		"startup_iters": loops, "checks": checks[:apps]}
	return w, nil
}

// memoErrnos is memo-startup's fixed exhaustive matrix: 8 errnos for
// each of 5 functions, 40 experiments over 5 first-fire sites.
var memoErrnos = []struct {
	fn     string
	retval int32
	errnos []int32
}{
	{"open", -1, []int32{1, 2, 4, 12, 13, 20, 23, 24}},
	{"read", -1, []int32{4, 5, 9, 11, 12, 14, 21, 22}},
	{"close", -1, []int32{4, 5, 9, 11, 14, 22, 23, 25}},
	{"malloc", 0, []int32{1, 2, 4, 5, 11, 12, 14, 22}},
	{"write", -1, []int32{4, 5, 9, 11, 14, 22, 27, 28}},
}

func memoProfile() profile.Set {
	p := &profile.Profile{Library: libc.Name}
	for _, m := range memoErrnos {
		f := profile.Function{Name: m.fn}
		for _, e := range m.errnos {
			f.ErrorCodes = append(f.ErrorCodes, profile.ErrorCode{
				Retval:      m.retval,
				SideEffects: []profile.SideEffect{{Type: profile.SideEffectTLS, Module: libc.Name, Value: e}},
			})
		}
		p.Functions = append(p.Functions, f)
	}
	return profile.Set{libc.Name: p}
}

// memoChecks fixes which calls each memo-startup app checks: all five,
// none, and read and malloc. With equal startup lengths, the time to
// each campaign's first finding is then the same whatever the seed; the
// seed varies only the startup computation.
var memoChecks = []uint{0x1f, 0, 0x0a}

// memoWorkload: loader apps with a long deterministic startup before
// the first injectable call, swept over the fixed exhaustive matrix.
func memoWorkload(lc *obj.File, rng *rand.Rand, small bool) (*workload, error) {
	apps, total := 3, 600_000
	if small {
		apps, total = 1, 20_000
	}
	w := &workload{name: wlMemo}
	loop := total / apps
	muls := make([]int, apps)
	set := memoProfile()
	for i := 0; i < apps; i++ {
		name := fmt.Sprintf("startup%d", i)
		muls[i] = 2 + rng.Intn(8)
		app, err := minic.Compile(name, loaderApp(loop, muls[i], memoChecks[i], false), obj.Executable)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		w.targets = append(w.targets, &target{
			name: name,
			cfg: core.CampaignConfig{
				Programs:   []*obj.File{app, lc},
				Executable: name,
				Files:      cfgFile,
			},
			set: set,
		})
	}
	w.sizes = map[string]any{"apps": apps, "startup_iters": loop, "startup_muls": muls, "matrix": "8 errnos x 5 functions"}
	return w, nil
}
