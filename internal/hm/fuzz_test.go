package hm

import (
	"bytes"
	"testing"
)

// maxFuzzWidth bounds the probe vector FuzzLoad allocates. A snapshot may
// legally name any split feature, but checking Predict on one that names
// feature 2^31 would need a 16 GB vector; such models are only checked
// to load without panicking.
const maxFuzzWidth = 1 << 12

// FuzzLoad feeds Load arbitrary bytes, seeded with a v1 and a v2 snapshot
// of a small trained model. Load must never panic, and a model that loads
// must return from Predict on a vector wide enough for its largest split
// feature — a corrupt tree whose children loop back would hang it.
func FuzzLoad(f *testing.F) {
	m, err := Train(synthDS(120, 61), Options{Trees: 12, LearningRate: 0.1, TreeComplexity: 3,
		MaxOrder: 2, TargetAccuracy: 0.999, ConvergeWindow: 10, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := m.Save(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(encodeV1(f, m))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		width := 1
		for _, fo := range m.subs {
			for _, tr := range fo.trees {
				for _, n := range tr.Flatten() {
					if !n.Leaf && int(n.Feature) >= width {
						width = int(n.Feature) + 1
					}
				}
			}
		}
		if width > maxFuzzWidth {
			return
		}
		x := make([]float64, width)
		for i := range x {
			x[i] = float64(i)
		}
		m.Predict(x)
		m.PredictBatch([][]float64{x}, make([]float64, 1))
	})
}
