package sparksim

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conf"
)

// BenchmarkRunDefault measures one simulated execution under the default
// configuration — the unit of work the collecting component repeats
// thousands of times.
func BenchmarkRunDefault(b *testing.B) {
	sim := New(cluster.Standard(), 1)
	cfg := conf.StandardSpace().Default()
	p := testProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Run(p, 20*1024, cfg)
	}
}

// BenchmarkRunRandomConfigs measures execution across random
// configurations, the collecting component's actual mix.
func BenchmarkRunRandomConfigs(b *testing.B) {
	sim := New(cluster.Standard(), 1)
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(2))
	cfgs := make([]conf.Config, 64)
	for i := range cfgs {
		cfgs[i] = space.Random(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(testProgram(), 20*1024, cfgs[i%len(cfgs)])
	}
}

// BenchmarkCollectBatch compares the collecting hot loop's two shapes
// over one chunk of (configuration, size) pairs: per-run Run calls versus
// a single RunBatchInto reusing the scratch across the chunk and the
// Result storage across iterations, as SimExecutor does.
func BenchmarkCollectBatch(b *testing.B) {
	sim := New(cluster.Standard(), 1)
	p := testProgram()
	pairs := randomPairs(64, 3)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range pairs {
				sim.Run(p, s.InputMB, s.Cfg)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		var out []Result
		for i := 0; i < b.N; i++ {
			out = sim.RunBatchInto(p, pairs, out)
		}
	})
}

// BenchmarkRunManyTasks stresses the event loop with a wide stage.
func BenchmarkRunManyTasks(b *testing.B) {
	sim := New(cluster.Standard(), 1)
	cfg := conf.StandardSpace().Default()
	p := &Program{
		Name: "wide",
		Stages: []Stage{
			{Name: "map", InputFrac: 1, CPUSecPerMB: 0.05, MemExpansion: 1.5},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Run(p, 400*1024, cfg) // ~3200 tasks
	}
}
