package backends

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ann"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/rf"
	"repro/internal/rs"
	"repro/internal/svm"
)

// backendDS builds a small synthetic regression problem every backend
// can fit: two smooth features, an interaction, and a datasize column.
func backendDS(n int, seed int64) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset([]string{"a", "b", "dsize"})
	for i := 0; i < n; i++ {
		a, b, d := rng.Float64()*10, rng.Float64()*5, 10+rng.Float64()*90
		ds.Add([]float64{a, b, d}, 5+2*a+a*b+0.1*d+rng.NormFloat64()*0.2)
	}
	return ds
}

func TestDefaultRegistry(t *testing.T) {
	reg := Default()
	want := []string{"ann", "hm", "rf", "rs", "svm"}
	names := reg.Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v (sorted)", names, want)
		}
	}
	if _, err := reg.Lookup("xgboost"); err == nil {
		t.Fatal("unknown backend lookup should fail")
	}

	// The capability matrix is part of the contract: hm is the only
	// backend that can warm-start, and every backend persists.
	caps := map[string]model.Capabilities{
		"hm":  {Save: true, Load: true, Resume: true},
		"rf":  {Save: true, Load: true},
		"rs":  {Save: true, Load: true},
		"ann": {Save: true, Load: true},
		"svm": {Save: true, Load: true},
	}
	for name, want := range caps {
		b, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := model.CapabilitiesOf(b); got != want {
			t.Fatalf("%s capabilities = %+v, want %+v", name, got, want)
		}
	}
}

// TestBackendMatchesPackageTrain pins the one training contract: a
// backend built with non-default Options and trained with a zero
// TrainOpts fits exactly the model its package's Train fits with those
// Options, bit for bit on a probe set.
func TestBackendMatchesPackageTrain(t *testing.T) {
	hmOpt := hm.Options{Trees: 80, LearningRate: 0.1, TreeComplexity: 3, Seed: 5}
	rfOpt := rf.Options{Trees: 15, MaxSplits: 12, Seed: 2}
	rsOpt := rs.Options{Ridge: 0.01, NoInteractions: true}
	annOpt := ann.Options{Hidden: []int{8}, Epochs: 30, Seed: 3}
	svmOpt := svm.Options{C: 5, Epochs: 6, Seed: 4}
	cases := []struct {
		b      model.Backend
		direct func(*model.Dataset) (model.Model, error)
	}{
		{hm.Backend{Opt: hmOpt}, func(ds *model.Dataset) (model.Model, error) { return hm.Train(ds, hmOpt) }},
		{rf.Backend{Opt: rfOpt}, func(ds *model.Dataset) (model.Model, error) { return rf.Train(ds, rfOpt) }},
		{rs.Backend{Opt: rsOpt}, func(ds *model.Dataset) (model.Model, error) { return rs.Train(ds, rsOpt) }},
		{ann.Backend{Opt: annOpt}, func(ds *model.Dataset) (model.Model, error) { return ann.Train(ds, annOpt) }},
		{svm.Backend{Opt: svmOpt}, func(ds *model.Dataset) (model.Model, error) { return svm.Train(ds, svmOpt) }},
	}
	train := backendDS(200, 4)
	probe := backendDS(64, 5)
	got := make([]float64, probe.Len())
	want := make([]float64, probe.Len())
	for _, c := range cases {
		name := c.b.Name()
		viaBackend, err := c.b.Train(train, model.TrainOpts{})
		if err != nil {
			t.Fatalf("%s: backend train: %v", name, err)
		}
		direct, err := c.direct(train)
		if err != nil {
			t.Fatalf("%s: package train: %v", name, err)
		}
		model.PredictBatch(viaBackend, probe.Features, got)
		model.PredictBatch(direct, probe.Features, want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: probe %d: backend predicts %v, package Train %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestBackendCodecRoundTrip trains every backend at quick scale, streams
// it through its own Save/Load codec, and requires the reloaded model to
// predict bit-identically via PredictBatch.
func TestBackendCodecRoundTrip(t *testing.T) {
	reg := Default()
	train := backendDS(300, 1)
	probe := backendDS(64, 2)
	out := make([]float64, len(probe.Features))
	ref := make([]float64, len(probe.Features))
	for _, name := range reg.Names() {
		b, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := b.Train(train, model.TrainOpts{Seed: 3, Quick: true})
		if err != nil {
			t.Fatalf("%s: train: %v", name, err)
		}
		var buf bytes.Buffer
		if err := b.(model.Saver).Save(m, &buf); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := b.(model.Loader).Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		model.PredictBatch(m, probe.Features, ref)
		model.PredictBatch(got, probe.Features, out)
		for i := range ref {
			if ref[i] != out[i] {
				t.Fatalf("%s: probe %d: reloaded model predicts %v, original %v", name, i, out[i], ref[i])
			}
		}
	}
}

// TestBackendCodecRejectsGarbage makes sure a loader fails cleanly on a
// stream written by something else rather than returning a broken model.
func TestBackendCodecRejectsGarbage(t *testing.T) {
	reg := Default()
	for _, name := range reg.Names() {
		b, _ := reg.Lookup(name)
		if _, err := b.(model.Loader).Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
			t.Fatalf("%s: loading garbage should fail", name)
		}
	}
}
