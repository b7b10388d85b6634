// Package workloads defines the six HiBench Spark programs the paper
// evaluates (Table 1, §4.1) as stage DAGs for the simulator, together with
// their Table 1 dataset sizes and deterministic input-data generators.
//
// The per-stage cost profiles encode the paper's characterization: KMeans
// has good instruction locality but poor data locality and Bayes the
// opposite; PageRank's iteration selectivity is much higher than KMeans';
// NWeight stores the whole graph in memory and iterates; WordCount is
// CPU-intensive; TeraSort is both CPU- and memory-intensive; PR, KM, BA
// and NW are far more iterative than WC and TS.
package workloads

import (
	"fmt"

	"repro/internal/sparksim"
)

// Workload couples a simulator Program with the dataset-size scale it is
// evaluated at.
type Workload struct {
	// Name is the full program name; Abbr is the paper's two-letter code.
	Name string
	Abbr string
	// Program is the stage DAG executed by sparksim.
	Program sparksim.Program
	// Unit names the Table 1 datasize unit ("million pages", "GB", ...).
	Unit string
	// MBPerUnit converts a datasize in Units to on-disk MB.
	MBPerUnit float64
	// Sizes are the five Table 1 input dataset sizes, in Units.
	Sizes []float64
	// MotivationSizes are the two input sizes of the §2.2.1 study
	// (Fig. 2), in Units; nil when the workload is not part of it.
	MotivationSizes []float64
}

// InputMB converts a datasize in the workload's units to megabytes — the
// dsize feature of the paper's performance vectors is derived from this.
func (w *Workload) InputMB(units float64) float64 { return units * w.MBPerUnit }

// SizesMB returns the Table 1 sizes converted to MB.
func (w *Workload) SizesMB() []float64 {
	out := make([]float64, len(w.Sizes))
	for i, s := range w.Sizes {
		out[i] = w.InputMB(s)
	}
	return out
}

// TrainingRangeMB is the range DAC collects over, slightly beyond Table 1
// on both ends: [0.8·D1, 1.1·D5] in MB, so every tuned size lies inside
// the model's training data.
func (w *Workload) TrainingRangeMB() (lo, hi float64) {
	return w.InputMB(w.Sizes[0]) * 0.8, w.InputMB(w.Sizes[len(w.Sizes)-1]) * 1.1
}

// TargetSize resolves a requested target size in the workload's units:
// 0 selects the middle Table 1 size.
func (w *Workload) TargetSize(units float64) float64 {
	if units == 0 {
		return w.Sizes[len(w.Sizes)/2]
	}
	return units
}

// TargetMB is TargetSize converted to MB.
func (w *Workload) TargetMB(units float64) float64 { return w.InputMB(w.TargetSize(units)) }

// PageRank returns the HiBench PageRank workload: an iterative
// graph-parallel job with selective shuffling and high iteration
// selectivity. Table 1 sizes: 1.2–2.0 million pages.
func PageRank() *Workload {
	return &Workload{
		Name: "PageRank",
		Abbr: "PR",
		Unit: "million pages",
		// HiBench pages run ~1.5 KB; Fig. 10's measured PR times
		// (40–250 s) pin Table 1's inputs to the few-GB range.
		MBPerUnit:       1536,
		Sizes:           []float64{1.2, 1.4, 1.6, 1.8, 2.0},
		MotivationSizes: []float64{0.5, 1.0},
		Program: sparksim.Program{
			Name: "pagerank",
			Stages: []sparksim.Stage{
				{
					Name: "load-links", InputFrac: 1, CPUSecPerMB: 0.02,
					ShuffleFrac: 0.55, MemExpansion: 2.0, MapSideCombine: true,
					CacheOutputFrac: 0.5, SkewFactor: 1.5,
				},
				{
					Name: "init-ranks", ReadsShuffle: true, ShuffleInFrac: 0.55,
					CPUSecPerMB: 0.01, ShuffleFrac: 0.08, MemExpansion: 2.5,
				},
				{
					Name: "iterate", Repeat: 5, CacheInput: true, InputFrac: 0.5,
					ReadsShuffle: true, ShuffleInFrac: 0.08,
					CPUSecPerMB: 0.05, ShuffleFrac: 0.30, MemExpansion: 3.0,
					MapSideCombine: true, SkewFactor: 2.0,
				},
				{
					Name: "save-ranks", ReadsShuffle: true, ShuffleInFrac: 0.30,
					CPUSecPerMB: 0.01, MemExpansion: 1.5, OutputFrac: 0.05,
				},
			},
		},
	}
}

// KMeans returns the HiBench KMeans workload: CPU-heavy distance
// computation over a cached point set, with tiny per-iteration shuffles
// and a driver round-trip per iteration (Fig. 13's stage structure).
// Table 1 sizes: 160–288 million points.
func KMeans() *Workload {
	return &Workload{
		Name:            "KMeans",
		Abbr:            "KM",
		Unit:            "million points",
		MBPerUnit:       0.225 * 1024, // 80M records ≈ 18 GB (§2.2.1)
		Sizes:           []float64{160, 192, 224, 256, 288},
		MotivationSizes: []float64{40, 80},
		Program: sparksim.Program{
			Name: "kmeans",
			Stages: []sparksim.Stage{
				{
					Name: "stageA-read", InputFrac: 1, CPUSecPerMB: 0.015,
					MemExpansion: 2.0, CacheOutputFrac: 1.0,
				},
				{
					Name: "stageB-sample", CacheInput: true, InputFrac: 0.05,
					CPUSecPerMB: 0.05, MemExpansion: 1.2, CollectMB: 1,
				},
				{
					Name: "stageC-iterate", Repeat: 10, CacheInput: true,
					InputFrac: 1, CPUSecPerMB: 0.11, MemExpansion: 1.2,
					ShuffleFrac: 0.0005, MapSideCombine: true,
					CollectMB: 0.5, BroadcastMB: 0.5,
				},
				{
					Name: "stageD-collect", CacheInput: true, InputFrac: 0.2,
					CPUSecPerMB: 0.02, MemExpansion: 1.2, CollectMB: 2,
				},
				{
					Name: "stageE-summary", InputFrac: 0.001, CPUSecPerMB: 0.1,
					MemExpansion: 1.2, CollectMB: 0.1,
				},
			},
		},
	}
}

// Bayes returns the HiBench Naive Bayes trainer: poor instruction
// locality, heavy tokenize/shuffle phases with large aggregation state,
// and a model collected to the driver. Table 1 sizes: 1.2–2.0 million
// pages.
func Bayes() *Workload {
	return &Workload{
		Name:      "Bayes",
		Abbr:      "BA",
		Unit:      "million pages",
		MBPerUnit: 1024, // ~1 KB bayes documents
		Sizes:     []float64{1.2, 1.4, 1.6, 1.8, 2.0},
		Program: sparksim.Program{
			Name: "bayes",
			Stages: []sparksim.Stage{
				{
					Name: "tokenize", InputFrac: 1, CPUSecPerMB: 0.08,
					ShuffleFrac: 1.3, MemExpansion: 3.0, MapSideCombine: true,
					SkewFactor: 1.8,
				},
				{
					Name: "aggregate", ReadsShuffle: true, ShuffleInFrac: 1.3,
					CPUSecPerMB: 0.05, ShuffleFrac: 0.1, MemExpansion: 4.0,
					MapSideCombine: true,
				},
				{
					Name: "train-model", ReadsShuffle: true, ShuffleInFrac: 0.1,
					CPUSecPerMB: 0.04, MemExpansion: 2.0, CollectFrac: 0.0008,
				},
			},
		},
	}
}

// NWeight returns the GraphX NWeight workload: an iterative graph-parallel
// algorithm computing associations between vertices n hops away; it keeps
// the whole graph in memory and shuffles heavily every iteration. Table 1
// sizes: 10.5–14.5 million edges.
func NWeight() *Workload {
	return &Workload{
		Name:      "NWeight",
		Abbr:      "NW",
		Unit:      "million edges",
		MBPerUnit: 150, // ~150 MB of edge list per million edges
		Sizes:     []float64{10.5, 11.5, 12.5, 13.5, 14.5},
		Program: sparksim.Program{
			Name: "nweight",
			Stages: []sparksim.Stage{
				{
					Name: "load-graph", InputFrac: 1, CPUSecPerMB: 0.05,
					ShuffleFrac: 0.8, MemExpansion: 7, CacheOutputFrac: 1.0,
					MapSideCombine: true,
				},
				{
					Name: "iterate", Repeat: 3, CacheInput: true, InputFrac: 1,
					ReadsShuffle: true, ShuffleInFrac: 0.8,
					CPUSecPerMB: 0.08, ShuffleFrac: 1.6, MemExpansion: 6,
					MapSideCombine: true, SkewFactor: 2.5,
				},
				{
					Name: "save", ReadsShuffle: true, ShuffleInFrac: 1.6,
					CPUSecPerMB: 0.02, MemExpansion: 3.0, OutputFrac: 0.5,
				},
			},
		},
	}
}

// WordCount returns the HiBench WordCount workload: CPU-intensive map-side
// tokenization with a small combined shuffle. Table 1 sizes: 80–160 GB.
func WordCount() *Workload {
	return &Workload{
		Name:      "WordCount",
		Abbr:      "WC",
		Unit:      "GB",
		MBPerUnit: 1024,
		Sizes:     []float64{80, 100, 120, 140, 160},
		Program: sparksim.Program{
			Name: "wordcount",
			Stages: []sparksim.Stage{
				{
					Name: "map", InputFrac: 1, CPUSecPerMB: 0.14,
					ShuffleFrac: 0.05, MemExpansion: 1.5, MapSideCombine: true,
				},
				{
					Name: "reduce", ReadsShuffle: true, ShuffleInFrac: 0.05,
					CPUSecPerMB: 0.03, MemExpansion: 2.0, OutputFrac: 0.02,
				},
			},
		},
	}
}

// TeraSort returns the HiBench TeraSort workload: both CPU- and
// memory-intensive, with a sampling stage (~10% of runtime) and a
// shuffle-everything sort stage (~90%, Fig. 14's Stage2). Table 1 sizes:
// 10–50 GB.
func TeraSort() *Workload {
	return &Workload{
		Name:      "TeraSort",
		Abbr:      "TS",
		Unit:      "GB",
		MBPerUnit: 1024,
		Sizes:     []float64{10, 20, 30, 40, 50},
		Program: sparksim.Program{
			Name: "terasort",
			Stages: []sparksim.Stage{
				{
					Name: "stage1", InputFrac: 1, CPUSecPerMB: 0.02,
					ShuffleFrac: 1.0, MemExpansion: 1.3, SkewFactor: 1.3,
				},
				{
					Name: "stage2", ReadsShuffle: true, ShuffleInFrac: 1.0,
					CPUSecPerMB: 0.05, MemExpansion: 1.3, OutputFrac: 1.0,
					SkewFactor: 1.3,
				},
			},
		},
	}
}

// All returns the six workloads in the paper's order: PR, KM, BA, NW, WC,
// TS.
func All() []*Workload {
	return []*Workload{PageRank(), KMeans(), Bayes(), NWeight(), WordCount(), TeraSort()}
}

// ByAbbr looks a workload up by its two-letter code (case-sensitive).
func ByAbbr(abbr string) (*Workload, error) {
	for _, w := range All() {
		if w.Abbr == abbr {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown abbreviation %q", abbr)
}
