package backends

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/ann"
	"repro/internal/model"
	"repro/internal/rs"
	"repro/internal/svm"
	"repro/internal/tree"
)

// probeWidth is the feature width a loaded model scores. rs, ann and svm
// standardize exactly as many features as their standardizer holds; hm
// and rf split on features below tree.MaxFeatures (their loaders reject
// any other) and ignore the rest.
func probeWidth(m model.Model) int {
	if std := reflect.ValueOf(m).Elem().FieldByName("std"); std.IsValid() {
		return std.Elem().FieldByName("Mean").Len()
	}
	return tree.MaxFeatures
}

// checkLoad is the Load invariant every backend keeps: Load never panics
// on data, and every model it accepts answers Predict and PredictBatch
// bit-identically, on a counting probe and on a NaN/±Inf probe.
func checkLoad(t testing.TB, b model.Backend, data []byte) {
	t.Helper()
	m, err := b.Load(bytes.NewReader(data))
	if err != nil {
		return
	}
	width := probeWidth(m)
	count := make([]float64, width)
	special := make([]float64, width)
	for i := range count {
		count[i] = float64(i)
		special[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
	}
	out := make([]float64, 1)
	for _, x := range [][]float64{count, special} {
		want := m.Predict(x)
		model.PredictBatch(m, [][]float64{x}, out)
		if math.Float64bits(out[0]) != math.Float64bits(want) {
			t.Fatalf("%s: PredictBatch %v, Predict %v", b.Name(), out[0], want)
		}
	}
}

// savedModel trains b at quick scale and returns its Save bytes.
func savedModel(t testing.TB, b model.Backend) []byte {
	t.Helper()
	m, err := b.Train(backendDS(200, 7), model.TrainOpts{Seed: 3, Quick: true})
	if err != nil {
		t.Fatalf("%s: train: %v", b.Name(), err)
	}
	var buf bytes.Buffer
	if err := b.Save(m, &buf); err != nil {
		t.Fatalf("%s: save: %v", b.Name(), err)
	}
	return buf.Bytes()
}

// TestLoadInvariantAllBackends drives checkLoad for every default
// backend over its own saved bytes, garbage, and fixed truncations and
// byte flips of the saved stream.
func TestLoadInvariantAllBackends(t *testing.T) {
	reg := Default()
	for _, name := range reg.Names() {
		b, _ := reg.Lookup(name)
		saved := savedModel(t, b)
		checkLoad(t, b, saved)
		checkLoad(t, b, []byte("not a snapshot"))
		step := max(1, len(saved)/64)
		for i := 0; i < len(saved); i += step {
			checkLoad(t, b, saved[:i])
			flipped := bytes.Clone(saved)
			flipped[i] ^= 0xff
			checkLoad(t, b, flipped)
		}
	}
}

// fuzzLoad fuzzes checkLoad for b, seeded with a saved model and garbage.
func fuzzLoad(f *testing.F, b model.Backend) {
	f.Add(savedModel(f, b))
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) { checkLoad(t, b, data) })
}

func FuzzLoadRS(f *testing.F)  { fuzzLoad(f, rs.Backend{}) }
func FuzzLoadANN(f *testing.F) { fuzzLoad(f, ann.Backend{}) }
func FuzzLoadSVM(f *testing.F) { fuzzLoad(f, svm.Backend{}) }
