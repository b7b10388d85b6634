package rf

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"testing"

	"repro/internal/tree"
)

// v1CodesBits are the float64 bits of the fixture forest's predictions on
// fixtureProbe, taken by the writer that saved testdata/v1_codes.gob.
var v1CodesBits = []uint64{
	0x401f282147e2de92, 0x4038be34a3e8ef75, 0x40444ce88a79a5c9, 0x4044268b04130947,
	0x404bbb6368011319, 0x404d4e1d8a97bc43, 0x4032df3c6f92b049, 0x403b72b88c329f82,
	0x403ea0ae1b1743cd, 0x404879a2a9d4462c, 0x404f888416bf3161, 0x40413e219804c833,
	0x403a0c07649e5386, 0x403702dee377b950, 0x4044ae46ae05ccd3, 0x404f1c4d21173f54,
	0x4048d9bafc6b7ea6, 0x4050322425916d28, 0x40360b41fca4a37e, 0x40358d8214982ce4,
	0x40478c5b51d92864, 0x4043778132b3b095, 0x40425090047a80a3, 0x40534427c06f13d6,
	0x404967ed71712adc, 0x4034e78af8ff7d74,
}

// fixtureProbe is the fixed probe the committed snapshot fixtures'
// prediction bits were taken on: 24 counting rows and two rows of NaN
// and ±Inf.
func fixtureProbe() [][]float64 {
	var rows [][]float64
	for i := 0; i < 24; i++ {
		rows = append(rows, []float64{float64(i%6)*1.7 + 0.05*float64(i), float64(i*7%11) * 0.9, float64(i*5%13) * 0.77})
	}
	return append(rows, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}, []float64{math.Inf(-1), math.NaN(), math.Inf(1)})
}

// TestLegacyCodedFixtureLoadsBitIdentically loads testdata/v1_codes.gob,
// a snapshot of a 3-tree forest (synthDS(300, 131), Trees 3, MaxSplits
// 24, Seed 13) written while snapshots still carried per-node bin codes
// and a HasBins flag. Load must reproduce the writer's predictions bit
// for bit.
func TestLegacyCodedFixtureLoadsBitIdentically(t *testing.T) {
	data, err := os.ReadFile("testdata/v1_codes.gob")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	probe := fixtureProbe()
	if len(probe) != len(v1CodesBits) {
		t.Fatalf("%d probe rows, %d recorded predictions", len(probe), len(v1CodesBits))
	}
	out := make([]float64, len(probe))
	f.PredictBatch(probe, out)
	for i, x := range probe {
		if got := math.Float64bits(f.Predict(x)); got != v1CodesBits[i] {
			t.Fatalf("row %d: Predict bits %#016x, writer's %#016x", i, got, v1CodesBits[i])
		}
		if got := math.Float64bits(out[i]); got != v1CodesBits[i] {
			t.Fatalf("row %d: PredictBatch bits %#016x, writer's %#016x", i, got, v1CodesBits[i])
		}
	}
}

// TestLoadBoundsSplitFeatures pins Load's feature bound: a split on
// feature tree.MaxFeatures or above is rejected, so a caller sizing a probe
// from a loaded forest's features never allocates without bound; the
// largest feature below the bound loads.
func TestLoadBoundsSplitFeatures(t *testing.T) {
	for _, c := range []struct {
		feature int32
		ok      bool
	}{{tree.MaxFeatures - 1, true}, {tree.MaxFeatures, false}, {math.MaxInt32, false}} {
		s := snapshot{Version: snapshotVersion, Trees: [][]tree.FlatNode{{
			{Feature: c.feature, Threshold: 1, Left: 1, Right: 2},
			{Leaf: true, Value: 1}, {Leaf: true, Value: 2},
		}}}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); (err == nil) != c.ok {
			t.Errorf("feature %d: Load error %v, want ok=%v", c.feature, err, c.ok)
		}
	}
}
