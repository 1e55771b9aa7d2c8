package campaign_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lfi/internal/campaign"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
)

// degradationApp checks every result, so degradation experiments spread
// across hang (delay), error-exit (disk full, fd saturation at open)
// and handled (fd pressure armed at write never binds).
const degradationApp = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int write(int fd, byte *buf, int n);
extern tls int errno;
int main(void) {
  int fd;
  int i;
  fd = open("/out", 65, 0);
  if (fd < 0) { return 3; }
  i = 0;
  while (i < 4) {
    if (write(fd, "abcdefgh", 8) < 8) { close(fd); return 4; }
    i = i + 1;
  }
  close(fd);
  return 0;
}
`

func degradationTarget(t testing.TB) (core.CampaignConfig, profile.Set) {
	t.Helper()
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", degradationApp, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: []profile.ErrorCode{{Retval: -1}}},
			{Name: "write", ErrorCodes: []profile.ErrorCode{{Retval: -1}}},
		},
	}}
	return core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
	}, set
}

// Degradation experiments persist their armed/tripped state in the
// store, survive a JSON round trip bit-identically, and resume to a
// byte-identical report without re-running anything.
func TestDegradationRecordsPersistAndResume(t *testing.T) {
	cfg, set := degradationTarget(t)
	exps := core.DegradationExperiments(set)
	dir := t.TempDir()
	s, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Sweep(cfg, exps, 0,
		core.SweepOptions{Workers: 2}, s, false)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Render()

	recs := map[string]campaign.Record{}
	for _, r := range s.Records() {
		recs[r.Function+"/"+r.Fault] = r
	}
	if len(recs) != 6 {
		t.Fatalf("records = %d, want 6", len(recs))
	}
	// Every record carries its fault label, and degradation experiment
	// keys embed it (distinct from any errno experiment of the same fn).
	for key, r := range recs {
		if r.Fault == "" {
			t.Errorf("%s: record lost its fault label", key)
		}
		if !strings.Contains(r.Key, "/"+r.Fault) {
			t.Errorf("%s: key %q does not embed the fault label", key, r.Key)
		}
		if r.Entry().Fault != r.Fault {
			t.Errorf("%s: Entry() dropped the fault label", key)
		}
	}
	if r := recs["open/delay=200000000"]; r.DelayCycles != core.DegradationDelayCycles {
		t.Errorf("delay record DelayCycles = %d, want %d", r.DelayCycles, uint64(core.DegradationDelayCycles))
	}
	if r := recs["write/exhaust=disk:after=0"]; r.Exhausted != "disk" || !r.ExhaustTripped {
		t.Errorf("disk record = exhausted %q tripped %v, want disk/tripped", r.Exhausted, r.ExhaustTripped)
	}
	// fd pressure armed at write never binds: armed, not tripped.
	if r := recs["write/exhaust=fds:slots=0"]; r.Exhausted != "fds" || r.ExhaustTripped {
		t.Errorf("fds record = exhausted %q tripped %v, want fds/untripped", r.Exhausted, r.ExhaustTripped)
	}

	// JSON round trip is exact — degradation fields included.
	for key, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back campaign.Record
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Errorf("%s: JSON round trip diverged:\n%+v\nvs\n%+v", key, r, back)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// All-cached resume: byte-identical report, zero executions.
	s2, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	executed := 0
	res2, err := campaign.Sweep(cfg, core.DegradationExperiments(set), 0,
		core.SweepOptions{Workers: 4,
			OnResult: func(*core.Experiment, core.SweepEntry, *core.Report) { executed++ }},
		s2, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Render(); got != want {
		t.Errorf("resumed degradation report differs:\n--- fresh ---\n%s--- resumed ---\n%s", want, got)
	}
	if executed != 0 {
		t.Errorf("all-cached resume executed %d experiments", executed)
	}
}
