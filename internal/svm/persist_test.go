package svm

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// TestLoadRejectsUnscorableSnapshots pins Load's shape check: a support
// vector with more or fewer entries than the standardizer has columns
// fails to load instead of panicking on its first predict.
func TestLoadRejectsUnscorableSnapshots(t *testing.T) {
	m, err := Train(synthDS(120, 1), Options{Epochs: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	// load decodes the saved snapshot, bends it, and loads the result.
	load := func(bend func(*snapshot)) (*SVR, error) {
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
		t.Fatalf("saved model failed to load: %v", err)
	}
	if got.Predict(x) != m.Predict(x) {
		t.Fatal("loaded model predicts differently from the saved one")
	}
	for _, c := range []struct {
		name string
		bend func(*snapshot)
	}{
		{"short support vectors", func(s *snapshot) {
			for i := range s.SV {
				s.SV[i] = s.SV[i][:1]
			}
		}},
		{"empty support vector", func(s *snapshot) { s.SV[len(s.SV)-1] = nil }},
		{"wide support vector", func(s *snapshot) { s.SV[0] = append(s.SV[0], 0) }},
	} {
		got, err := load(c.bend)
		if err == nil {
			got.Predict(x)
			t.Errorf("%s: Load accepted a snapshot Predict cannot score", c.name)
		}
	}
}
