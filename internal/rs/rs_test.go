package rs

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

func synthDS(n int, seed int64) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset(nil)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		t := 10 + 4*x[0] + x[1]*x[1] + 2*x[0]*x[2]
		ds.Add(x, t*(1+0.01*rng.NormFloat64()))
	}
	return ds
}

func TestSurfaceFitsQuadratic(t *testing.T) {
	m, err := Train(synthDS(800, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := model.Evaluate(m, synthDS(200, 2))
	// The target is exactly second order, so RS should nail it.
	if e.Mean > 0.05 {
		t.Fatalf("RS mean error %.1f%% on an exactly-quadratic target", e.Mean*100)
	}
}

func TestInteractionsMatter(t *testing.T) {
	train := synthDS(800, 3)
	test := synthDS(200, 4)
	full, _ := Train(train, Options{})
	pure, _ := Train(train, Options{NoInteractions: true})
	eFull := model.Evaluate(full, test).Mean
	ePure := model.Evaluate(pure, test).Mean
	// The target has a strong x0·x2 term that only the full surface sees.
	if eFull >= ePure {
		t.Fatalf("full surface (%.3f) not better than pure quadratic (%.3f)", eFull, ePure)
	}
}

func TestNumTerms(t *testing.T) {
	m, err := Train(synthDS(100, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// d=3: 1 + 3 + 3 + 3 = 10 terms.
	if m.NumTerms() != 10 {
		t.Errorf("NumTerms = %d, want 10", m.NumTerms())
	}
}

func TestRejectsBadInput(t *testing.T) {
	if _, err := Train(model.NewDataset(nil), Options{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestPredictionsFinitePositive(t *testing.T) {
	m, err := Train(synthDS(300, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 100; k++ {
		x := []float64{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		p := m.Predict(x)
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v at %v", p, x)
		}
	}
}

func TestCholSolve(t *testing.T) {
	A := [][]float64{{4, 2}, {2, 3}}
	b := []float64{10, 8}
	x, ok := cholSolve(A, b)
	if !ok {
		t.Fatal("cholSolve failed on SPD system")
	}
	if math.Abs(4*x[0]+2*x[1]-10) > 1e-9 || math.Abs(2*x[0]+3*x[1]-8) > 1e-9 {
		t.Fatalf("wrong solution %v", x)
	}
	if _, ok := cholSolve([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); ok {
		t.Error("singular system should fail")
	}
}

func TestTrainerInterface(t *testing.T) {
	var b model.Backend = Backend{}
	if b.Name() != "rs" {
		t.Errorf("Name = %q", b.Name())
	}
	if _, err := b.Train(synthDS(100, 8), model.TrainOpts{}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsMisshapenSnapshots pins that Load checks a snapshot's
// shape against its dimension. The first case is a 2-feature surface
// whose Beta holds one term more than the 5-term basis: Load used to
// accept it, and Predict then indexed past the basis and panicked.
func TestLoadRejectsMisshapenSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := model.NewDataset(nil)
	for i := 0; i < 40; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4}
		ds.Add(x, 10+4*x[0]+x[1]*x[1])
	}
	s, err := Train(ds, Options{NoInteractions: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var good snapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&good); err != nil {
		t.Fatal(err)
	}
	if len(good.Beta) != 5 {
		t.Fatalf("2-feature basis without interactions has %d terms, want 5", len(good.Beta))
	}
	x := []float64{1.5, 2.5}
	if l, err := Load(bytes.NewReader(buf.Bytes())); err != nil || l.Predict(x) != s.Predict(x) {
		t.Fatalf("round trip: err %v", err)
	}

	cases := map[string]func(*snapshot){
		"beta one term long":  func(sn *snapshot) { sn.Beta = append(sn.Beta, 0.5) },
		"beta one term short": func(sn *snapshot) { sn.Beta = sn.Beta[:4] },
		"interactions flag":   func(sn *snapshot) { sn.Interactions = true },
		"mean short":          func(sn *snapshot) { sn.Mean = sn.Mean[:1] },
		"std short":           func(sn *snapshot) { sn.Std = sn.Std[:1] },
		"dim wider":           func(sn *snapshot) { sn.Dim = 3 },
	}
	for name, mutate := range cases {
		sn := good
		sn.Beta = append([]float64(nil), good.Beta...)
		mutate(&sn)
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(sn); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&b); err == nil {
			t.Errorf("%s: Load accepted a misshapen snapshot", name)
		}
	}
}
