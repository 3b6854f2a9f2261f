package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"

	"repro/internal/scenario"
)

// sweepGoldens pins the SHA-256 of sweep.json and cells.csv for
// goldenMatrix, keyed by GOOS/GOARCH: float formatting is exact, but
// fused multiply-add and math-library differences may move the last
// bits on other platforms, which then skip.
var sweepGoldens = map[string]struct{ json, csv string }{
	"linux/amd64": {
		json: "b658d8043fc945f2a8167546a424086b9bb427050b43aac6b1235cbca1699faf",
		csv:  "5aaa15ad70e375f61ee2ce5437732325444dffe63136e0d022283dfb9e2a5b44",
	},
}

// goldenMatrix covers a fixed fleet, churn, a fault preset and the
// multi-DC hierarchy under every registered policy, so each scheduler
// kind and each column family contributes to the pinned bytes. The same
// matrix is `mdcsim sweep -scenarios intra-dc,churn-poisson,fail-az-outage,hierarchy
// -policies bf,bf-ob,bf-ml,bf-ml-prune,firstfit,worstfit,roundrobin,static,hier-ob,hier-ml
// -seeds 1 -ticks 120 -out DIR`.
func goldenMatrix() Matrix {
	return Matrix{
		Scenarios: []string{scenario.IntraDC, scenario.ChurnPoisson, scenario.FailAZOutage, scenario.Hierarchy},
		Policies: []string{"bf", "bf-ob", "bf-ml", "bf-ml-prune", "firstfit",
			"worstfit", "roundrobin", "static", "hier-ob", "hier-ml"},
		Seeds: []uint64{1},
		Ticks: 120,
	}
}

// TestSweepOutputGolden pins the machine-readable sweep output byte for
// byte: refactors of the cell runner, the cell record or the CSV writer
// must reproduce the same sweep.json and cells.csv.
func TestSweepOutputGolden(t *testing.T) {
	key := runtime.GOOS + "/" + runtime.GOARCH
	want, ok := sweepGoldens[key]
	if !ok {
		t.Skipf("no sweep golden recorded for %s", key)
	}
	m := goldenMatrix()
	if got := slices.Sorted(slices.Values(m.Policies)); !slices.Equal(got, PolicyNames()) {
		t.Fatalf("golden matrix policies %v, registry has %v", got, PolicyNames())
	}
	res, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	j, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	if got := digest(j); got != want.json {
		t.Errorf("sweep.json sha256 = %s, want %s", got, want.json)
	}
	if got := digest([]byte(res.CSV())); got != want.csv {
		t.Errorf("cells.csv sha256 = %s, want %s", got, want.csv)
	}
}
