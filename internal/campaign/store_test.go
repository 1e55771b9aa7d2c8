package campaign_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lfi/internal/campaign"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
)

// mixedApp covers every §2 outcome: error-exit on open failure, handled
// read/close failures, a crash on unchecked malloc, and a never-called
// write (not-triggered) — the same shape the core executor tests use.
const mixedApp = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern int write(int fd, byte *buf, int n);
extern byte *malloc(int n);
extern tls int errno;
int main(void) {
  int fd;
  int n;
  byte buf[32];
  byte *p;
  fd = open("/data", 0, 0);
  if (fd < 0) { return 2; }
  n = read(fd, buf, 31);
  if (n < 0) { n = 0; }
  close(fd);
  p = malloc(8);
  p[0] = 'x';
  return 0;
}
`

// mixedTarget builds the campaign config and profile set whose matrix
// covers crashes, handled faults and not-triggered experiments.
func mixedTarget(t testing.TB) (core.CampaignConfig, profile.Set) {
	t.Helper()
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", mixedApp, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	tls := func(errno int32) []profile.SideEffect {
		return []profile.SideEffect{{Type: profile.SideEffectTLS, Module: libc.Name, Value: errno}}
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: []profile.ErrorCode{{Retval: -1, SideEffects: tls(13)}}},
			{Name: "read", ErrorCodes: []profile.ErrorCode{
				{Retval: -1, SideEffects: tls(5)},
				{Retval: -1, SideEffects: tls(4)},
			}},
			{Name: "close", ErrorCodes: []profile.ErrorCode{{Retval: -1, SideEffects: tls(9)}}},
			{Name: "malloc", ErrorCodes: []profile.ErrorCode{{Retval: 0, SideEffects: tls(12)}}},
			{Name: "write", ErrorCodes: []profile.ErrorCode{{Retval: -1, SideEffects: tls(32)}}},
		},
	}}
	cfg := core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Files:      map[string][]byte{"/data": []byte("payload")},
	}
	return cfg, set
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []campaign.Record{
		{Key: "a", Library: "libc.so", Function: "open", Retval: -1, Outcome: "handled"},
		{Key: "b", Library: "libc.so", Function: "malloc", Outcome: "crash", Signal: 11,
			CrashStack: []string{"malloc", "main"}, StackHash: "00000000deadbeef"},
		{Key: "a", Library: "libc.so", Function: "open", Retval: -1, Outcome: "error-exit"},
	}
	for _, r := range recs {
		s.Append(r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Records()
	if len(got) != 3 || got[1].StackHash != "00000000deadbeef" || got[1].CrashStack[1] != "main" {
		t.Fatalf("reloaded records = %+v", got)
	}
	done := s2.Completed()
	if len(done) != 2 {
		t.Fatalf("completed = %+v", done)
	}
	// Last record per key wins.
	if done["a"].Outcome != "error-exit" {
		t.Errorf("key a = %+v, want the later record", done["a"])
	}
	if e := done["b"].Entry(); e.Outcome != core.OutcomeCrash || e.Signal != 11 || e.Function != "malloc" {
		t.Errorf("entry reconstitution = %+v", e)
	}
}

// TestStoreTornLastLineRecovered: a writer killed mid-append leaves a
// partial trailing line; Open must keep every intact record, drop the
// torn tail, and leave the file clean for further appends.
func TestStoreTornLastLineRecovered(t *testing.T) {
	for name, tail := range map[string]string{
		"unterminated": `{"key":"c","outcome":"cra`,
		"garbage-line": "\x00\x7f not json at all\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := campaign.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s.Append(campaign.Record{Key: "a", Outcome: "handled"})
			s.Append(campaign.Record{Key: "b", Outcome: "crash"})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, campaign.StoreFile)
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2, err := campaign.Open(dir)
			if err != nil {
				t.Fatalf("torn store must recover, got %v", err)
			}
			if got := s2.Records(); len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" {
				t.Fatalf("recovered records = %+v", got)
			}
			// Appends after recovery land on a clean line boundary.
			s2.Append(campaign.Record{Key: "c", Outcome: "hang"})
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := campaign.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if got := s3.Records(); len(got) != 3 || got[2].Key != "c" {
				t.Fatalf("post-recovery records = %+v", got)
			}
		})
	}
}

// TestStoreCorruptInteriorRejected: a malformed line that is NOT the
// final line cannot be a torn append — it is corruption, and pretending
// otherwise would silently drop completed results.
func TestStoreCorruptInteriorRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, campaign.StoreFile)
	blob := `{"key":"a","outcome":"handled"}
not json
{"key":"b","outcome":"crash"}
`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("interior corruption must fail Open, got %v", err)
	}
}

// TestSweepStoreResumeByteIdentical is the tentpole acceptance test: a
// store half-filled by a killed campaign (max-crashes early stop),
// resumed at 1/4/8 workers on both executors, renders byte-identical to
// a fresh full sweep — including after a torn trailing line.
func TestSweepStoreResumeByteIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	fresh, err := core.Sweep(cfg, set, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Render()
	if !strings.Contains(want, "crash") || !strings.Contains(want, "not-triggered") {
		t.Fatalf("target does not cover enough outcomes:\n%s", want)
	}

	for _, snapshot := range []bool{false, true} {
		dir := t.TempDir()
		// Phase 1: the "killed" campaign — a max-crashes early stop
		// leaves the store partially filled.
		s, err := campaign.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		partial, err := campaign.Sweep(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: 2, MaxCrashes: 1, Snapshot: snapshot}, s, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(partial.Entries) >= len(fresh.Entries) {
			t.Fatalf("snapshot=%v: early stop did not truncate", snapshot)
		}
		recorded := len(s.Records())
		if recorded == 0 {
			t.Fatal("no records persisted")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate the kill landing mid-append: torn trailing line.
		f, err := os.OpenFile(filepath.Join(dir, campaign.StoreFile), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"key":"torn","outc`); err != nil {
			t.Fatal(err)
		}
		f.Close()

		// Phase 2: resume at several worker counts; every report must be
		// byte-identical to the fresh full sweep.
		for _, workers := range []int{1, 4, 8} {
			s2, err := campaign.Open(dir)
			if err != nil {
				t.Fatalf("snapshot=%v workers=%d: reopen: %v", snapshot, workers, err)
			}
			if got := len(s2.Records()); got != recorded {
				t.Fatalf("snapshot=%v workers=%d: %d records survived recovery, want %d",
					snapshot, workers, got, recorded)
			}
			res, err := campaign.Sweep(cfg, core.PlanExperiments(set), 0,
				core.SweepOptions{Workers: workers, Snapshot: snapshot}, s2, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Render(); got != want {
				t.Errorf("snapshot=%v workers=%d: resumed report differs:\n--- fresh ---\n%s--- resumed ---\n%s",
					snapshot, workers, want, got)
			}
			// The early stop may halt the dispatcher before every
			// experiment was handed out, and then this resume appends
			// the rest: the next reopen must recover what the store
			// holds now.
			recorded = len(s2.Records())
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
		}

		// Phase 3: a fully-complete store resumes to the same report
		// without executing anything (every key cached).
		s3, err := campaign.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		executed := 0
		opts := core.SweepOptions{Workers: 4, Snapshot: snapshot,
			OnResult: func(*core.Experiment, core.SweepEntry, *core.Report) { executed++ }}
		res, err := campaign.Sweep(cfg, core.PlanExperiments(set), 0, opts, s3, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Render() != want {
			t.Errorf("snapshot=%v: all-cached resume differs from fresh", snapshot)
		}
		if executed != 0 {
			t.Errorf("snapshot=%v: all-cached resume executed %d experiments", snapshot, executed)
		}
		if err := s3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreManifestGuardsCampaignIdentity: a store filled by one
// campaign must refuse a sweep of a different target, budget or engine
// — experiment keys name faultloads, not targets, so without the
// manifest check a resume would silently serve one binary's outcomes as
// another's.
func TestStoreManifestGuardsCampaignIdentity(t *testing.T) {
	cfg, set := mixedTarget(t)
	dir := t.TempDir()
	s, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	exps := core.PlanExperiments(set)
	if _, err := campaign.Sweep(cfg, exps, 0, core.SweepOptions{Workers: 2}, s, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reject := func(name string, mutate func(*core.CampaignConfig) uint64) {
		t.Helper()
		s2, err := campaign.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		mcfg := cfg
		budget := mutate(&mcfg)
		_, err = campaign.Sweep(mcfg, exps, budget, core.SweepOptions{Workers: 2}, s2, true)
		if err == nil || !strings.Contains(err.Error(), "different campaign") {
			t.Errorf("%s: mismatched campaign must be refused, got %v", name, err)
		}
	}
	reject("different-binary", func(c *core.CampaignConfig) uint64 {
		src := strings.Replace(mixedApp, "malloc(8)", "malloc(16)", 1)
		if src == mixedApp {
			t.Fatal("mutation did not change the source")
		}
		app, err := minic.Compile("app", src, obj.Executable)
		if err != nil {
			t.Fatal(err)
		}
		c.Programs = []*obj.File{c.Programs[0], app}
		return 0
	})
	reject("different-budget", func(c *core.CampaignConfig) uint64 { return 12345678 })

	// The same campaign keeps resuming fine.
	s3, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, err := campaign.Sweep(cfg, exps, 0, core.SweepOptions{Workers: 2}, s3, true); err != nil {
		t.Errorf("same campaign refused: %v", err)
	}
}

// TestSweepStoreRecordsPayload: persisted crash records carry the
// triage payload — stack, hash, injection-log digest, cycles.
func TestSweepStoreRecordsPayload(t *testing.T) {
	cfg, set := mixedTarget(t)
	dir := t.TempDir()
	s, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := campaign.Sweep(cfg, core.PlanExperiments(set), 0,
		core.SweepOptions{Workers: 4}, s, false); err != nil {
		t.Fatal(err)
	}
	var crash, handled *campaign.Record
	for _, r := range s.Records() {
		r := r
		switch core.Outcome(r.Outcome) {
		case core.OutcomeCrash:
			crash = &r
		case core.OutcomeHandled:
			handled = &r
		}
	}
	if crash == nil || handled == nil {
		t.Fatalf("records missing outcomes: %+v", s.Records())
	}
	if crash.StackHash == "" || len(crash.CrashStack) == 0 {
		t.Errorf("crash record lacks triage payload: %+v", crash)
	}
	if crash.Injections == 0 || crash.LogDigest == "" || crash.Cycles == 0 {
		t.Errorf("crash record lacks run summary: %+v", crash)
	}
	if handled.StackHash != "" || handled.CrashStack != nil {
		t.Errorf("handled record must not carry a crash stack: %+v", handled)
	}
}
