package ml

import (
	"encoding/json"
	"testing"

	"repro/internal/rng"
)

func TestLinearRoundTrip(t *testing.T) {
	lm := &Linear{Intercept: 3.5, Coef: []float64{1, -2, 0.25}}
	data, err := json.Marshal(lm)
	if err != nil {
		t.Fatal(err)
	}
	var back Linear
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	if lm.Predict(x) != back.Predict(x) {
		t.Fatal("linear round-trip changed predictions")
	}
}

func TestM5PRoundTrip(t *testing.T) {
	d := piecewiseData(400, 31, 0.2)
	m, err := TrainM5P(d, DefaultM5PConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back M5P
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if numLeaves(&back) != numLeaves(m) || treeDepth(&back) != treeDepth(m) {
		t.Fatalf("tree shape changed: %d/%d leaves, %d/%d depth",
			numLeaves(m), numLeaves(&back), treeDepth(m), treeDepth(&back))
	}
	s := rng.New(1, 1)
	for i := 0; i < 200; i++ {
		x := []float64{s.Uniform(-2, 12), s.Uniform(-2, 12)}
		if m.Predict(x) != back.Predict(x) {
			t.Fatalf("M5P round-trip changed prediction at %v", x)
		}
	}
}

func TestKNNRoundTrip(t *testing.T) {
	d := knnData(300, 32)
	for _, useTree := range []bool{true, false} {
		k, err := TrainKNN(d, KNNConfig{K: 4, UseKDTree: useTree, DistanceWeight: true})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back KNN
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		s := rng.New(2, 2)
		for i := 0; i < 100; i++ {
			x := []float64{s.Uniform(0, 10), s.Uniform(0, 10)}
			if k.Predict(x) != back.Predict(x) {
				t.Fatalf("k-NN round-trip changed prediction (tree=%v)", useTree)
			}
		}
	}
}

func TestKNNUnmarshalRejectsCorrupt(t *testing.T) {
	var k KNN
	if err := json.Unmarshal([]byte(`{"x":[[1]],"y":[]}`), &k); err == nil {
		t.Fatal("accepted rows/targets mismatch")
	}
	if err := json.Unmarshal([]byte(`{"x":[],"y":[]}`), &k); err == nil {
		t.Fatal("accepted empty memory")
	}
}

func TestM5PUnmarshalRejectsCorrupt(t *testing.T) {
	var m M5P
	if err := json.Unmarshal([]byte(`{"nodes":[]}`), &m); err == nil {
		t.Fatal("accepted empty tree")
	}
	bad := `{"nodes":[{"feature":0,"thresh":1,"left":5,"right":6,"lm":{"intercept":0},"n":1}]}`
	if err := json.Unmarshal([]byte(bad), &m); err == nil {
		t.Fatal("accepted dangling child indices")
	}
	noLM := `{"nodes":[{"feature":-1,"thresh":0,"left":-1,"right":-1,"n":1}]}`
	if err := json.Unmarshal([]byte(noLM), &m); err == nil {
		t.Fatal("accepted node without linear model")
	}
}

func TestRegressorEnvelope(t *testing.T) {
	d := piecewiseData(200, 33, 0.2)
	models := []Regressor{}
	lm, _ := TrainLinear(d, 0)
	models = append(models, lm)
	m5, _ := TrainM5P(d, DefaultM5PConfig(4))
	models = append(models, m5)
	knn, _ := TrainKNN(d, DefaultKNNConfig(4))
	models = append(models, knn)
	for _, m := range models {
		raw, err := MarshalRegressor(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalRegressor(raw)
		if err != nil {
			t.Fatal(err)
		}
		x := d.X[7]
		if m.Predict(x) != back.Predict(x) {
			t.Fatalf("%T envelope round-trip changed prediction", m)
		}
	}
	if _, err := UnmarshalRegressor([]byte(`{"kind":"svm","payload":{}}`)); err == nil {
		t.Fatal("accepted unknown model kind")
	}
	if _, err := MarshalRegressor(nil); err == nil {
		t.Fatal("accepted nil regressor")
	}
}
