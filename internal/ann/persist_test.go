package ann

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// TestLoadRejectsUnscorableSnapshots pins Load's shape checks: a snapshot
// whose layers Predict cannot chain — a weight row narrower or wider than
// the previous layer, or an output layer without exactly one row — fails
// to load instead of panicking on its first predict.
func TestLoadRejectsUnscorableSnapshots(t *testing.T) {
	m, err := Train(synthDS(200, 1), Options{Hidden: []int{4, 3}, Epochs: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	// load decodes the saved snapshot, bends it, and loads the result.
	load := func(bend func(*snapshot)) (*Network, error) {
		var snap snapshot
		if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		bend(&snap)
		var enc bytes.Buffer
		if err := gob.NewEncoder(&enc).Encode(snap); err != nil {
			t.Fatal(err)
		}
		return Load(&enc)
	}
	x := []float64{1, 2}
	got, err := load(func(*snapshot) {})
	if err != nil {
		t.Fatalf("saved network failed to load: %v", err)
	}
	if got.Predict(x) != m.Predict(x) {
		t.Fatal("loaded network predicts differently from the saved one")
	}
	for _, c := range []struct {
		name string
		bend func(*snapshot)
	}{
		{"output layer without rows", func(s *snapshot) {
			out := &s.Layers[len(s.Layers)-1]
			out.W, out.B = nil, nil
		}},
		{"two output rows", func(s *snapshot) {
			out := &s.Layers[len(s.Layers)-1]
			out.W, out.B = append(out.W, out.W[0]), append(out.B, out.B[0])
		}},
		{"short first-layer row", func(s *snapshot) { s.Layers[0].W[2] = s.Layers[0].W[2][:1] }},
		{"wide first-layer row", func(s *snapshot) { s.Layers[0].W[0] = append(s.Layers[0].W[0], 1) }},
		{"short hidden row", func(s *snapshot) { s.Layers[1].W[0] = s.Layers[1].W[0][:3] }},
		{"short output row", func(s *snapshot) { s.Layers[2].W[0] = s.Layers[2].W[0][:2] }},
	} {
		got, err := load(c.bend)
		if err == nil {
			got.Predict(x)
			t.Errorf("%s: Load accepted a snapshot Predict cannot score", c.name)
		}
	}
}
