package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
)

// scenarioGoldens pins the SHA-256 of `mdcsim -seed 42 -scenario NAME
// -ticks 300` output (hourly rows, summary, churn and fault lines) for a
// fault preset, a drain preset and a churn preset with and without
// admission control, keyed by GOOS/GOARCH like the sweep golden.
var scenarioGoldens = map[string]map[string]string{
	"linux/amd64": {
		"fail-az-outage":        "5a06a737d2d6a1641d8f2ea369fca1d17e78f59cf57d2d33eb82a338b1a23aba",
		"maint-rolling":         "c43146506c7147fea6158590eacf299691837f24c07304102712ea16c3a38bc2",
		"churn-storm":           "528ba9b290f1d2a712e4d4ee9079dd27d9b02b2d717608956e926cc17c8585f2",
		"churn-storm/admit-all": "71e329f92f1b9115f889ce67935ea6ce5737dd8117784ca21f04ce628cc80467",
	},
}

// TestRunScenarioGolden pins the -scenario run's printed output byte for
// byte, so the managed run behind it can be refactored safely.
func TestRunScenarioGolden(t *testing.T) {
	goldens, ok := scenarioGoldens[runtime.GOOS+"/"+runtime.GOARCH]
	if !ok {
		t.Skipf("no scenario goldens recorded for %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	for _, c := range []struct {
		name     string
		admitAll bool
	}{
		{"fail-az-outage", false},
		{"maint-rolling", false},
		{"churn-storm", false},
		{"churn-storm", true},
	} {
		key := c.name
		if c.admitAll {
			key += "/admit-all"
		}
		var out strings.Builder
		if err := runScenario(&out, c.name, 42, 300, c.admitAll); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		sum := sha256.Sum256([]byte(out.String()))
		if got := hex.EncodeToString(sum[:]); got != goldens[key] {
			t.Errorf("%s output sha256 = %s, want %s", key, got, goldens[key])
		}
	}
}
