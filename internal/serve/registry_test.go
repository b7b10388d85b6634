package serve

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/obs"
)

// registryDS builds a small synthetic dataset for registry tests.
func registryDS(n int, seed int64) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset([]string{"a", "b", "dsize"})
	for i := 0; i < n; i++ {
		a, b, d := rng.Float64()*10, rng.Float64()*5, 10+rng.Float64()*90
		ds.Add([]float64{a, b, d}, 5+2*a+a*b+0.1*d+rng.NormFloat64()*0.2)
	}
	return ds
}

func trainSmall(t *testing.T, seed int64) *hm.Model {
	t.Helper()
	m, err := hm.Train(registryDS(400, seed), hm.Options{Trees: 40, LearningRate: 0.1, TreeComplexity: 5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryVersioning(t *testing.T) {
	reg, err := NewModelRegistry(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := trainSmall(t, 1), trainSmall(t, 2)
	v1, err := reg.Save("ts", m1, ModelMeta{Workload: "TS", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Save("ts", m2, ModelMeta{Workload: "TS", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions %d,%d, want 1,2", v1, v2)
	}

	// Latest (version 0) must be the second model, bit-identical.
	got, meta, err := reg.Load("ts", 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 || meta.Seed != 2 {
		t.Fatalf("latest meta = v%d seed %d, want v2 seed 2", meta.Version, meta.Seed)
	}
	probe := registryDS(50, 9)
	for i, x := range probe.Features {
		if a, b := got.Predict(x), m2.Predict(x); a != b {
			t.Fatalf("probe %d: reloaded latest predicts %v, trained %v", i, a, b)
		}
	}
	old, meta1, err := reg.Load("ts", 1)
	if err != nil {
		t.Fatal(err)
	}
	if meta1.Seed != 1 {
		t.Fatalf("v1 meta seed %d, want 1", meta1.Seed)
	}
	for i, x := range probe.Features {
		if a, b := old.Predict(x), m1.Predict(x); a != b {
			t.Fatalf("probe %d: v1 drifted after v2 landed: %v vs %v", i, a, b)
		}
	}

	versions, err := reg.Versions("ts")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0].Version != 1 || versions[1].Version != 2 {
		t.Fatalf("versions = %+v", versions)
	}
	if versions[0].Trees != m1.NumTrees() || versions[0].ValErr != m1.ValErr {
		t.Fatal("meta did not capture the model's trees/valerr")
	}
}

func TestRegistryListAndMissing(t *testing.T) {
	reg, err := NewModelRegistry(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Load("nope", 0); err == nil {
		t.Fatal("loading a missing model should fail")
	}
	if _, _, err := reg.Load("nope", 3); err == nil {
		t.Fatal("loading a missing version should fail")
	}
	if _, err := reg.Save("Bad Name", trainSmall(t, 1), ModelMeta{}); err == nil {
		t.Fatal("uppercase/space model names should be rejected")
	}
	if _, err := reg.Save("../escape", trainSmall(t, 1), ModelMeta{}); err == nil {
		t.Fatal("path-traversal names should be rejected")
	}

	reg.Save("beta", trainSmall(t, 1), ModelMeta{})
	reg.Save("alpha", trainSmall(t, 2), ModelMeta{})
	reg.Save("alpha", trainSmall(t, 3), ModelMeta{})
	list, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "beta" {
		t.Fatalf("list = %+v", list)
	}
	if list[0].Version != 2 {
		t.Fatalf("alpha latest = v%d, want v2", list[0].Version)
	}
}

// TestRegistryWarmStart pins the registry's reason to exist beyond
// storage: a loaded model continues training through hm.Resume exactly
// as the never-persisted original would (the v2 snapshot keeps the
// binned form), and re-registering lands a new version.
func TestRegistryWarmStart(t *testing.T) {
	reg, err := NewModelRegistry(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	ds := registryDS(500, 11)
	opt := hm.Options{Trees: 40, LearningRate: 0.1, TreeComplexity: 5, Seed: 11}
	orig, err := hm.Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Save("warm", orig, ModelMeta{Seed: 11}); err != nil {
		t.Fatal(err)
	}
	loadedModel, _, err := reg.Load("warm", 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := loadedModel.(*hm.Model)
	if !ok {
		t.Fatalf("registry returned %T for an hm entry", loadedModel)
	}
	if err := hm.Resume(orig, ds, opt, 25); err != nil {
		t.Fatal(err)
	}
	if err := hm.Resume(loaded, ds, opt, 25); err != nil {
		t.Fatal(err)
	}
	probe := registryDS(60, 12)
	for i, x := range probe.Features {
		if a, b := orig.Predict(x), loaded.Predict(x); a != b {
			t.Fatalf("probe %d: warm start from registry diverged: %v vs %v", i, a, b)
		}
	}
	v, err := reg.Save("warm", loaded, ModelMeta{Seed: 11, WarmFrom: "warm@v1"})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("warm-started model registered as v%d, want v2", v)
	}
}

// TestRegistryAllBackendsRoundTrip saves a model from every registered
// backend and loads it back through the backend-tagged reader: the meta
// must carry the backend name and the reloaded model must predict
// bit-identically.
func TestRegistryAllBackendsRoundTrip(t *testing.T) {
	reg, err := NewModelRegistry(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	train := registryDS(300, 21)
	probe := registryDS(64, 22)
	ref := make([]float64, len(probe.Features))
	out := make([]float64, len(probe.Features))
	for _, name := range reg.Backends().Names() {
		b, err := reg.Backends().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := b.Train(train, model.TrainOpts{Seed: 7, Quick: true})
		if err != nil {
			t.Fatalf("%s: train: %v", name, err)
		}
		v, err := reg.Save("rt-"+name, m, ModelMeta{Backend: name, Seed: 7})
		if err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, meta, err := reg.Load("rt-"+name, v)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if meta.Backend != name {
			t.Fatalf("%s: reloaded meta tagged %q", name, meta.Backend)
		}
		model.PredictBatch(m, probe.Features, ref)
		model.PredictBatch(got, probe.Features, out)
		for i := range ref {
			if ref[i] != out[i] {
				t.Fatalf("%s: probe %d: registry round trip predicts %v, trained %v", name, i, out[i], ref[i])
			}
		}
	}
}

// TestRegistryLegacyUntaggedHM loads an entry written before the backend
// layer existed: an hm snapshot beside a meta JSON with no backend field.
// The tagged reader must default it to hm rather than refusing it.
func TestRegistryLegacyUntaggedHM(t *testing.T) {
	root := filepath.Join(t.TempDir(), "models")
	reg, err := NewModelRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	m := trainSmall(t, 31)
	dir := filepath.Join(root, "legacy")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "v1.model"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// A pre-backend meta file: no "backend" key at all.
	legacyMeta := []byte(`{"name":"legacy","version":1,"seed":31,"trees":40,"order":2,"val_err":0.01,"created_unix":1700000000}`)
	if err := os.WriteFile(filepath.Join(dir, "v1.json"), legacyMeta, 0o644); err != nil {
		t.Fatal(err)
	}

	got, meta, err := reg.Load("legacy", 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Backend != "" || meta.backendName() != "hm" {
		t.Fatalf("legacy meta backend = %q (resolves %q), want untagged hm", meta.Backend, meta.backendName())
	}
	loaded, ok := got.(*hm.Model)
	if !ok {
		t.Fatalf("legacy entry loaded as %T, want *hm.Model", got)
	}
	probe := registryDS(50, 32)
	for i, x := range probe.Features {
		if a, b := loaded.Predict(x), m.Predict(x); a != b {
			t.Fatalf("probe %d: legacy stream drifted through the tagged reader: %v vs %v", i, a, b)
		}
	}
}

// GC keeps only the newest N versions: EnableGC sweeps a registry that
// grew before GC was enabled, and pruning runs after every save.
func TestRegistryGC(t *testing.T) {
	reg, err := NewModelRegistry(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	// Grow to 4 versions with GC off, then enable: the sweep prunes to 2.
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := reg.Save("ts", trainSmall(t, seed), ModelMeta{Workload: "TS", Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	pruned := obs.NewRegistry().Counter("serve.registry.gc.pruned")
	if err := reg.EnableGC(2, pruned); err != nil {
		t.Fatal(err)
	}
	vs, err := reg.Versions("ts")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Version != 3 || vs[1].Version != 4 {
		t.Fatalf("after EnableGC versions = %+v, want v3,v4", vs)
	}
	if pruned.Value() != 2 {
		t.Fatalf("pruned counter = %d, want 2", pruned.Value())
	}
	// A pruned version is really gone; the survivors still load.
	if _, _, err := reg.Load("ts", 1); err == nil {
		t.Fatal("pruned v1 still loads")
	}
	if _, _, err := reg.Load("ts", 0); err != nil {
		t.Fatalf("latest failed to load after GC: %v", err)
	}

	// Saves keep pruning: v5 arrives, v3 goes.
	if _, err := reg.Save("ts", trainSmall(t, 5), ModelMeta{Workload: "TS", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	vs, err = reg.Versions("ts")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Version != 4 || vs[1].Version != 5 {
		t.Fatalf("after save versions = %+v, want v4,v5", vs)
	}
	// Version numbering never reuses pruned numbers.
	if v, _ := reg.Save("ts", trainSmall(t, 6), ModelMeta{Workload: "TS", Seed: 6}); v != 6 {
		t.Fatalf("next version = %d, want 6", v)
	}
}

// registered reports whether version of name has a model file in reg
// (GC has not pruned it).
func registered(reg *ModelRegistry, name string, version int) bool {
	_, err := os.Stat(filepath.Join(reg.dir, name, fmt.Sprintf("v%d.model", version)))
	return err == nil
}

// TestRegistrySaveHookFiresOncePerSave pins the registry's one event:
// each Save fires the hook exactly once, after GC, with the saved
// version's metadata and the versions GC pruned for it, and EnableGC's
// startup sweep fires none.
func TestRegistrySaveHookFiresOncePerSave(t *testing.T) {
	reg, err := NewModelRegistry(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		version int
		pruned  []int
	}
	var events []event
	reg.SetOnSave(func(meta ModelMeta, pruned []int) {
		if meta.Name != "ts" || !registered(reg, "ts", meta.Version) {
			t.Errorf("hook got %s@v%d, which is not registered", meta.Name, meta.Version)
		}
		for _, v := range pruned {
			if registered(reg, "ts", v) {
				t.Errorf("hook reported ts@v%d pruned before GC deleted it", v)
			}
		}
		events = append(events, event{meta.Version, pruned})
	})
	expect := func(step string, want ...event) {
		t.Helper()
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("%s: hook events %+v, want %+v", step, events, want)
		}
		events = nil
	}
	save := func(seed int64) {
		t.Helper()
		if _, err := reg.Save("ts", trainSmall(t, seed), ModelMeta{Workload: "TS", Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		save(seed)
	}
	expect("saves with GC off", event{1, nil}, event{2, nil}, event{3, nil})
	if err := reg.EnableGC(1, nil); err != nil {
		t.Fatal(err)
	}
	expect("EnableGC sweep")
	if vs, _ := reg.Versions("ts"); len(vs) != 1 || vs[0].Version != 3 {
		t.Fatalf("after EnableGC versions = %+v, want v3", vs)
	}
	save(4)
	expect("save with GC on", event{4, []int{3}})
	save(5)
	expect("next save", event{5, []int{4}})
}
