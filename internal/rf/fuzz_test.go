package rf

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// FuzzLoad feeds Load arbitrary bytes, seeded with the committed
// testdata/v1_codes.gob fixture and a fresh Save of a small forest. Load
// must never panic, and every forest it accepts must answer Predict and
// PredictBatch bit-identically, on a counting probe and on a NaN/±Inf
// probe. Load bounds split features below tree.MaxFeatures, so the probe is
// always allocatable.
func FuzzLoad(f *testing.F) {
	fixture, err := os.ReadFile("testdata/v1_codes.gob")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	fresh, err := Train(synthDS(120, 61), Options{Trees: 4, MaxSplits: 12, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		width := 1
		for _, tr := range m.trees {
			for _, n := range tr.Flatten() {
				if !n.Leaf && int(n.Feature) >= width {
					width = int(n.Feature) + 1
				}
			}
		}
		count := make([]float64, width)
		special := make([]float64, width)
		for i := range count {
			count[i] = float64(i)
			special[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		}
		for _, x := range [][]float64{count, special} {
			want := m.Predict(x)
			out := make([]float64, 1)
			m.PredictBatch([][]float64{x}, out)
			if math.Float64bits(out[0]) != math.Float64bits(want) {
				t.Fatalf("PredictBatch %v, Predict %v", out[0], want)
			}
		}
	})
}
