package dac_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	dac "repro"
)

func TestPublicSurfaceBasics(t *testing.T) {
	space := dac.StandardSpace()
	if space.Len() != 41 {
		t.Fatalf("standard space has %d params, want 41", space.Len())
	}
	cl := dac.StandardCluster()
	if cl.TotalCores() != 360 {
		t.Fatalf("worker cores = %d, want 360 (5 x 72)", cl.TotalCores())
	}
	if got := len(dac.Workloads()); got != 6 {
		t.Fatalf("workloads = %d, want 6", got)
	}
	if _, err := dac.WorkloadByAbbr("XX"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestSimulateThroughPublicAPI(t *testing.T) {
	w, err := dac.WorkloadByAbbr("WC")
	if err != nil {
		t.Fatal(err)
	}
	sim := dac.NewSimulator(dac.StandardCluster(), 1)
	res := sim.Run(&w.Program, w.InputMB(80), dac.DefaultConfig())
	if res.TotalSec <= 0 {
		t.Fatalf("TotalSec = %v", res.TotalSec)
	}
	if res.Stage("map") == nil {
		t.Error("stage lookup through facade failed")
	}
}

func TestExpertConfigThroughFacade(t *testing.T) {
	space := dac.StandardSpace()
	cfg := dac.ExpertConfig(space, dac.StandardCluster())
	if cfg.GetEnum("spark.serializer") != "kryo" {
		t.Error("expert config should pick kryo")
	}
}

func TestTunerEndToEndThroughFacade(t *testing.T) {
	w, err := dac.WorkloadByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	tuner := dac.NewTuner(w, dac.StandardCluster(), dac.Options{
		NTrain: 250,
		HM:     dac.HMOptions{Trees: 150, LearningRate: 0.1, TreeComplexity: 5},
		GA:     dac.GAOptions{PopSize: 25, Generations: 15},
		Seed:   1,
	})
	target := w.InputMB(30)
	res, err := tuner.Tune(w.InputMB(10), w.InputMB(50), []float64{target})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best[target]
	sim := dac.NewSimulator(dac.StandardCluster(), 55)
	tDAC := sim.Run(&w.Program, target, best).TotalSec
	tDef := sim.Run(&w.Program, target, dac.DefaultConfig()).TotalSec
	if tDAC >= tDef {
		t.Fatalf("tuned config (%.1fs) not faster than default (%.1fs)", tDAC, tDef)
	}
}

func TestRFHOCTunerThroughFacade(t *testing.T) {
	w, err := dac.WorkloadByAbbr("WC")
	if err != nil {
		t.Fatal(err)
	}
	tuner := dac.NewRFHOCTuner(w, dac.StandardCluster(), dac.Options{
		NTrain: 150,
		GA:     dac.GAOptions{PopSize: 15, Generations: 8},
		Seed:   3,
	})
	cfg, err := tuner.Tune(w.InputMB(80), w.InputMB(160))
	if err != nil {
		t.Fatal(err)
	}
	space := dac.StandardSpace()
	for i := 0; i < space.Len(); i++ {
		p := space.Param(i)
		if v := cfg.At(i); v < p.Min || v > p.Max {
			t.Fatalf("%s out of range", p.Name)
		}
	}
}

func TestSubSpaceThroughFacade(t *testing.T) {
	space := dac.StandardSpace()
	ss, err := dac.NewSubSpace(space, space.Default(), []string{"spark.executor.memory"})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Tunable.Len() != 1 {
		t.Fatalf("tunable len %d", ss.Tunable.Len())
	}
	cfg, err := ss.ExpandVector([]float64{8192})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.GetInt("spark.executor.memory") != 8192 {
		t.Error("expansion lost the tuned value")
	}
}

func TestSamplersThroughFacade(t *testing.T) {
	space := dac.StandardSpace()
	rng := rand.New(rand.NewSource(1))
	var s dac.Sampler = dac.LatinHypercubeSampler{}
	cfgs := s.Sample(space, 10, rng)
	if len(cfgs) != 10 {
		t.Fatalf("got %d configs", len(cfgs))
	}
}

func TestBackendsThroughFacade(t *testing.T) {
	reg := dac.DefaultBackends()
	if got, want := strings.Join(reg.Names(), ","), "ann,hm,rf,rs,svm"; got != want {
		t.Fatalf("DefaultBackends names = %s, want %s", got, want)
	}
	// Each registry entry is the facade's alias type, so a library user
	// sets hyperparameters through the same Opt the registry trains with.
	for name, want := range map[string]dac.Backend{
		"hm": dac.HMBackend{}, "rf": dac.RFBackend{}, "rs": dac.RSBackend{},
		"ann": dac.ANNBackend{}, "svm": dac.SVMBackend{},
	} {
		b, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(b) != reflect.TypeOf(want) || want.Name() != name {
			t.Errorf("%s: registry holds %T, facade alias is %T named %q", name, b, want, want.Name())
		}
	}
	space := dac.StandardSpace()
	set := dac.NewPerfSet(space)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		set.Add(space.Random(rng), 1024+float64(i)*64, 30+float64(i))
	}
	m, err := dac.RSBackend{Opt: dac.RSOptions{Ridge: 0.1}}.Train(set.ToDataset(), dac.TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if e := dac.Evaluate(m, set.ToDataset()); e.N != 60 {
		t.Errorf("evaluated %d rows, want 60", e.N)
	}
}

func TestPerfSetCSVThroughFacade(t *testing.T) {
	space := dac.StandardSpace()
	set := dac.NewPerfSet(space)
	set.Add(space.Default(), 1024, 33)
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "t,spark.") {
		t.Errorf("unexpected CSV header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestSearchersThroughFacade(t *testing.T) {
	space := dac.StandardSpace()
	obj := dac.ScalarObjective(func(x []float64) float64 { return x[0] })
	if res := dac.RandomSearch(space, obj, 20, 1); res.Evaluations != 20 {
		t.Error("random search budget not honored")
	}
	if res := dac.RecursiveRandomSearch(space, obj, 20, 1); res.Best == nil {
		t.Error("RRS returned no best")
	}
	if res := dac.PatternSearch(space, obj, 20, 1); res.Best == nil {
		t.Error("pattern search returned no best")
	}
	if res := dac.GAMinimize(space, obj, nil, dac.GAOptions{PopSize: 10, Generations: 3}); res.Best == nil {
		t.Error("GA returned no best")
	}
}

func TestHadoopSideThroughFacade(t *testing.T) {
	hs := dac.HadoopSpace()
	if hs.Len() != 10 {
		t.Fatalf("hadoop space has %d params", hs.Len())
	}
	sim := dac.NewHadoopSimulator(dac.StandardCluster(), 1)
	if v := sim.Run(dac.HadoopKMeans(), 18*1024, hs.Default()); v <= 0 {
		t.Fatalf("hadoop run time %v", v)
	}
}
