package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The experiment tests assert the *shape* claims of the paper, not exact
// numbers: who wins, in which direction, and by roughly what kind of
// margin. They use the default seed so the expensive predictor bundle is
// trained once and shared.
const testSeed = 42

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry too small: %v", names)
	}
	if _, err := Run("definitely-not-an-experiment", testSeed); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range names {
		if strings.TrimSpace(name) == "" {
			t.Fatal("empty experiment name")
		}
	}
}

func TestTableIShape(t *testing.T) {
	res, err := TableI(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 7 {
		t.Fatalf("Table I should have 7 rows")
	}
	// Paper-ordering claims that must survive: MEM is the best-predicted
	// element; every correlation is strong.
	mem := res.Metrics["corr:VM MEM"]
	for name, v := range res.Metrics {
		if !strings.HasPrefix(name, "corr:") {
			continue
		}
		if v < 0.7 {
			t.Errorf("%s = %.3f, want >= 0.7", name, v)
		}
		if v > mem+1e-9 && name != "corr:VM MEM" {
			// MEM should be at or near the top (allow CPU/IN to tie).
			if v-mem > 0.02 {
				t.Errorf("%s (%.3f) clearly above MEM (%.3f)", name, v, mem)
			}
		}
	}
	if rendered := res.Render(); !strings.Contains(rendered, "Table I") {
		t.Fatal("render missing caption")
	}
}

func TestFigure4Shape(t *testing.T) {
	res, err := Figure4(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	slaBF := res.Metrics["sla:BF"]
	slaOB := res.Metrics["sla:BF-OB"]
	slaML := res.Metrics["sla:BF+ML"]
	wattsOB := res.Metrics["watts:BF-OB"]
	wattsML := res.Metrics["watts:BF+ML"]
	pmsBF := res.Metrics["pms:BF"]
	pmsML := res.Metrics["pms:BF+ML"]

	// Plain BF under-provisions and pays in SLA (the vicious circle).
	if slaBF >= slaML-0.05 {
		t.Errorf("BF SLA (%.3f) should be clearly below BF+ML (%.3f)", slaBF, slaML)
	}
	// ML reaches overbooking-grade SLA...
	if slaML < slaOB-0.03 {
		t.Errorf("BF+ML SLA (%.3f) should approach BF-OB (%.3f)", slaML, slaOB)
	}
	// ...while burning meaningfully less energy.
	if wattsML >= wattsOB*0.9 {
		t.Errorf("BF+ML watts (%.1f) should undercut BF-OB (%.1f)", wattsML, wattsOB)
	}
	// The ML policy deconsolidates: more PMs than frozen BF.
	if pmsML <= pmsBF {
		t.Errorf("BF+ML PMs (%.2f) should exceed plain BF (%.2f)", pmsML, pmsBF)
	}
}

func TestFigure5Shape(t *testing.T) {
	res, err := Figure5(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["colocatedFrac"] < 0.6 {
		t.Errorf("VM colocated only %.0f%% of the time", res.Metrics["colocatedFrac"]*100)
	}
	moves := res.Metrics["moves"]
	// Follow-the-sun over 48 h: a handful of moves, not thrash, not frozen.
	if moves < 3 || moves > 24 {
		t.Errorf("moves = %v, want a daily rotation", moves)
	}
}

func TestDelocationShape(t *testing.T) {
	res, err := Delocation(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["slaDynamic"] <= res.Metrics["slaStatic"] {
		t.Errorf("de-location should raise SLA: %.4f -> %.4f",
			res.Metrics["slaStatic"], res.Metrics["slaDynamic"])
	}
	if res.Metrics["benefitPerVMd"] <= 0 {
		t.Errorf("de-location benefit = %.3f €/VM/day, want positive", res.Metrics["benefitPerVMd"])
	}
}

func TestFigure6Shape(t *testing.T) {
	res, err := Figure6(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["avgSLA"] < 0.8 {
		t.Errorf("managed inter-DC SLA = %.3f", res.Metrics["avgSLA"])
	}
	// The flash crowd must hurt: it exceeds system capacity by design.
	if res.Metrics["slaCrowd"] >= res.Metrics["slaCalm"] {
		t.Errorf("flash crowd did not depress SLA: crowd %.3f vs calm %.3f",
			res.Metrics["slaCrowd"], res.Metrics["slaCalm"])
	}
	if res.Metrics["migrations"] <= 0 {
		t.Error("full inter-DC run never migrated")
	}
}

func TestFigure7TableIIIShape(t *testing.T) {
	res, err := Figure7TableIII(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Table III's three claims: dynamic earns at least as much, burns much
	// less, and holds SLA.
	if res.Metrics["watts:dynamic"] >= res.Metrics["watts:static"]*0.85 {
		t.Errorf("dynamic watts %.1f not clearly below static %.1f",
			res.Metrics["watts:dynamic"], res.Metrics["watts:static"])
	}
	if res.Metrics["sla:dynamic"] < res.Metrics["sla:static"]-0.01 {
		t.Errorf("dynamic SLA %.3f fell below static %.3f",
			res.Metrics["sla:dynamic"], res.Metrics["sla:static"])
	}
	if res.Metrics["energySaving"] < 0.15 {
		t.Errorf("energy saving = %.0f%%, want >= 15%%", res.Metrics["energySaving"]*100)
	}
}

func TestFigure8Shape(t *testing.T) {
	res, err := Figure8(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// The characteristic function: more load needs more watts for SLA 0.95.
	prev := -1.0
	for _, l := range []string{"10", "20", "40", "60", "80", "120"} {
		w := res.Metrics["wattsForSLA95@"+l+"rps"]
		if w >= 999 {
			t.Fatalf("SLA 0.95 unreachable at %s rps", l)
		}
		if w < prev {
			t.Errorf("watts for SLA .95 decreased with load at %s rps: %v < %v", l, w, prev)
		}
		prev = w
	}
}

func TestSchedulerScalingShape(t *testing.T) {
	res, err := SchedulerScaling(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive nodes must grow explosively with instance size while
	// Best-Fit stays in the microsecond range.
	small := res.Metrics["nodes:4x4"]
	big := res.Metrics["nodes:8x6"]
	if big < small*100 {
		t.Errorf("exhaustive blow-up missing: %v -> %v nodes", small, big)
	}
	if res.Metrics["bfNs:8x6"] > 5e6 {
		t.Errorf("best-fit took %.0f ns on the largest instance", res.Metrics["bfNs:8x6"])
	}
	// Branch-and-bound prunes: fewer nodes than raw enumeration.
	if res.Metrics["bnbNodes:8x6"] >= res.Metrics["nodes:8x6"] {
		t.Error("B&B did not prune")
	}
}

// experimentGoldens pins, per registered experiment, the SHA-256 of its
// rendered output followed by its sorted Metrics at testSeed, keyed by
// GOOS/GOARCH: float formatting is exact, but fused multiply-add and
// math-library differences may move the last bits on other platforms,
// which then only run the experiments.
var experimentGoldens = map[string]map[string]string{
	"linux/amd64": {
		"churn":      "1d903dbb34994c53054cd0495c3f08f9ef9ba5ebd5d19f1214383ef395a7d2b6",
		"delocation": "3b1c4080096bd07a38db84127e4312329ff9d9ba5a724872225e19055ae2568d",
		"failures":   "5e0bcff60122d817d6735497b33dea49fea3d7fe5bdfea5fcbfc64f04f4903d7",
		"fig4":       "787ceb178f6f6c5ae2664229404c70150e3f44dae7cfe9ecc707503cd557375d",
		"fig5":       "3ca02cde16b52cfe89a985571467921c6fdb473032ea0d9f7b4001c9eab32f94",
		"fig6":       "5e136aeeea755baa0f458aa71708b23afa757d46de6b470178f4961ac0c21b96",
		"fig7":       "36c7d1c913f7eaf1c9b512a53ed8718c0c036a03d31f6e6b52dd4eb82c00deee",
		"fig8":       "4e8fab998c150809254687a3ff8c15c3c8ab5769ceb66b4d7549b36cde5ddcb0",
		"green":      "469d0027297b4ffd67beb3da5b63c7659b0cf6628814ae788f5f7e4332929363",
		"heuristics": "ef438b1fe809e040a5fd277e812eb7a5cded441e6643838cb7bc19c48f701818",
		"hierarchy":  "fb1a9e6b12abde70237f670455104cbf2d3c6e13a6a8b9702f510bf78aed00a0",
		"online":     "664399a7427e847dbd1c4bbd158189bcd5abe768991792510c021c55516330c5",
		"scaling":    "bc2d4deb23ef1f9299f60592ebfc93d33fec23280e0c83651397e63bd90b5321",
		"table1":     "e528d3ae09b74266dc16f19c49d1b0f6232873b2b8a8cb3b7b418bbdb6c79e12",
	},
}

// wallClock names, per experiment, the table columns and Metrics key
// prefixes that report elapsed time. The golden blanks those cells and
// skips those keys; everything else is a pure function of the seed.
var wallClock = map[string]struct{ columns, metrics []string }{
	"scaling": {
		columns: []string{"best-fit", "B&B", "exhaustive", "exh/bf"},
		metrics: []string{"bfNs:", "exNs:"},
	},
	"hierarchy": {
		columns: []string{"flat ms/round", "hier ms/round"},
		metrics: []string{"flatMs:", "hierMs:"},
	},
}

// experimentDigest hashes an experiment's rendered tables, charts and
// notes plus its Metrics (exact shortest float formatting, sorted keys),
// with the experiment's wall-clock cells blanked first.
func experimentDigest(name string, res *Result) string {
	wc := wallClock[name]
	for ti := range res.Tables {
		tab := &res.Tables[ti]
		for ci, h := range tab.Headers {
			if !slices.Contains(wc.columns, h) {
				continue
			}
			for _, row := range tab.Rows {
				row[ci] = "-"
			}
		}
	}
	var b strings.Builder
	b.WriteString(res.Render())
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		if slices.ContainsFunc(wc.metrics, func(p string) bool { return strings.HasPrefix(k, p) }) {
			continue
		}
		fmt.Fprintf(&b, "%s=%s\n", k, strconv.FormatFloat(res.Metrics[k], 'g', -1, 64))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestRunAllRegisteredExperiments runs every registered experiment once
// and, on platforms with recorded digests, pins its output byte for
// byte: refactors of the experiments, the cell runner or the schedulers
// must reproduce the same tables, charts, notes and metrics.
func TestRunAllRegisteredExperiments(t *testing.T) {
	goldens, pinned := experimentGoldens[runtime.GOOS+"/"+runtime.GOARCH]
	for _, name := range Names() {
		res, err := Run(name, testSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Name == "" {
			t.Fatalf("%s produced unnamed result", name)
		}
		if len(res.Tables) == 0 && len(res.Charts) == 0 {
			t.Fatalf("%s produced no output", name)
		}
		if !pinned {
			continue
		}
		if got, want := experimentDigest(name, res), goldens[name]; got != want {
			t.Errorf("%s output sha256 = %s, want %s", name, got, want)
		}
	}
	if !pinned {
		t.Skipf("no experiment goldens recorded for %s/%s", runtime.GOOS, runtime.GOARCH)
	}
}
