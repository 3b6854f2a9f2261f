package predict

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// TestTrainedBundleDigests pins the SHA-256 of the serialized bundle that
// Collect and Train produce at four seeds. Seed 160 is the one where the
// order of tied feature values in the split search decides between splits
// whose SDR values agree to within rounding, so a split search that sorts
// ties differently changes its digest.
func TestTrainedBundleDigests(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want string
	}{
		{1, "9a9d0a8060c486b0f14daeba57b615442be8c22aa1fd2589813c4ab661d5f889"},
		{42, "6c6d6b3ffce51a65a7599a8e01ec10e853444dc04822f9f0c13b48edf9eaec65"},
		{160, "bcea22c9f0c01f6eaf9b5198dadfd1a06bcdb5ef35d3418886b546e575a2cf92"},
		{168, "537d62e9c59ba3b9b3fb56851b7796367f654f06c762ac2dbe8b6af35a874497"},
	} {
		h, err := Collect(DefaultHarvestOpts(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Train(h, DefaultTrainConfig(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != c.want {
			t.Errorf("seed %d: bundle digest %s, want %s", c.seed, got, c.want)
		}
	}
}
