package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/sweep"
)

const specFile = "../BENCHMARK.json"

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// quickRun runs one workload at -quick scale in process and returns its
// exit code, standard output and parsed result line.
func quickRun(t *testing.T, workload string, trace int, extra ...string) (int, string, result) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "42", "--seconds", "0", "--trace", fmt.Sprint(trace),
		"-quick", "-workdir", t.TempDir()}, extra...)
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	var res result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out.String())
	}
	if code != 0 {
		t.Logf("%s: exit %d: %s", workload, code, errb.String())
	}
	return code, out.String(), res
}

func TestWorkloadsEmitListedMetrics(t *testing.T) {
	s, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, wl := range s.Workloads {
		for trace, want := range [][]string{names(s.EndToEnd), names(s.PerLayer)} {
			code, _, res := quickRun(t, wl.Name, trace)
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace %d: exit %d, result %+v", wl.Name, trace, code, res)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if !valid.MatchString(name) {
					t.Errorf("%s: metric name %q", wl.Name, name)
				}
				if d, _ := defByName(name); m.Unit != d.Unit {
					t.Errorf("%s: %s unit %q, dictionary says %q", wl.Name, name, m.Unit, d.Unit)
				}
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace %d emits\n%v\nBENCHMARK.json lists\n%v", wl.Name, trace, got, want)
			}
		}
	}
}

func TestEveryMetricNameIsValid(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range metricDefs {
		if !valid.MatchString(d.Name) || d.Unit == "" || (d.Better != "lower" && d.Better != "higher") || d.Doc == "" {
			t.Errorf("bad metric definition %+v", d)
		}
	}
}

func TestTailPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		v, ok := tailPercentile(xs(c.n), c.p)
		if ok != c.ok {
			t.Errorf("p%.0f of %d samples: ok=%v, want %v", 100*c.p, c.n, ok, c.ok)
		}
		if ok && v != float64(int(c.p*float64(c.n))) {
			t.Errorf("p%.0f of %d samples = %v", 100*c.p, c.n, v)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestGoldenDigestIsEnforced(t *testing.T) {
	code, out, res := quickRun(t, wlSweep, 0)
	if code != 0 || !res.Correct {
		t.Fatalf("untampered run failed: exit %d", code)
	}
	m := regexp.MustCompile(`digest: ([0-9a-f]{16})`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no digest in report:\n%s", out)
	}
	for _, c := range []struct {
		digest string
		ok     bool
	}{{m[1], true}, {"0123456789abcdef", false}} {
		path := filepath.Join(t.TempDir(), "goldens.json")
		data, _ := json.Marshal(map[string]map[string]map[string]string{
			runtime.GOOS + "/" + runtime.GOARCH: {"42": {wlSweep + "@quick": c.digest}},
		})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, res := quickRun(t, wlSweep, 0, "-goldens", path)
		if (code == 0) != c.ok || res.Correct != c.ok {
			t.Errorf("golden %s: exit %d correct %v, want ok=%v", c.digest, code, res.Correct, c.ok)
		}
	}
}

func TestRestoreCatchesMissingJournalEntry(t *testing.T) {
	r, err := newRun(config{workload: wlRestore, seed: 42, quick: true, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if r.bundle, err = sweep.TrainedBundle(42); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(r.dir, "journal")
	want, err := r.liveRun(newSample(), nil, src, 60, true)
	if err != nil {
		t.Fatal(err)
	}
	restoredDigest := func(dir string) (string, error) {
		srv, _, _, err := r.restore(dir, false)
		if err != nil {
			return "", err
		}
		defer srv.Shutdown(context.Background())
		return srv.Snapshot().LogDigest, nil
	}
	intact := filepath.Join(r.dir, "intact")
	if err := copyDir(src, intact); err != nil {
		t.Fatal(err)
	}
	if got, err := restoredDigest(intact); err != nil || got != want {
		t.Fatalf("intact journal restored to %q (%v), want %q", got, err, want)
	}

	cut := filepath.Join(r.dir, "cut")
	if err := copyDir(src, cut); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cut, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	for i, ln := range lines {
		if strings.Contains(ln, `"k":"ev"`) && i > len(lines)/2 {
			lines = append(lines[:i], lines[i+1:]...)
			break
		}
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := restoredDigest(cut); err == nil && got == want {
		t.Fatalf("a journal missing one entry restored to the live digest %s", got)
	}
}

func TestListValidatesSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-list", "-spec", specFile}, &out, &errb); code != 0 {
		t.Fatalf("-list: exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["workloads"].([]any)[0].(map[string]any)["why"] = ""
	broken := filepath.Join(t.TempDir(), "BENCHMARK.json")
	data, _ = json.Marshal(raw)
	if err := os.WriteFile(broken, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := realMain([]string{"-list", "-spec", broken}, &out, &errb); code == 0 {
		t.Fatal("-list accepted a workload without a reason")
	}
}

func TestJudgePairingRule(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	if v, _, wins := judge(base, faster, true, 0.1); v != "improved" || wins != 10 {
		t.Errorf("clear gain judged %q with %d wins", v, wins)
	}
	if v, _, _ := judge(base, faster[:9], true, 0.1); v == "improved" {
		t.Error("a gain was claimed on 9 pairs")
	}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if v, _, _ := judge(base, slower, true, 0.1); v != "regressed" {
		t.Errorf("a 20%% slowdown judged %q", v)
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if v, _, _ := judge(noisy, base, true, 0.1); !strings.HasPrefix(v, "unresolved") {
		t.Errorf("a spread wider than the bound judged %q", v)
	}
}
