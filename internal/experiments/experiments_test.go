package experiments

import (
	"strings"
	"testing"
)

// tinyScale keeps experiment smoke tests fast while exercising every code
// path.
func tinyScale() Scale {
	sc := QuickScale()
	sc.NTrain = 150
	sc.NTest = 50
	sc.Fig2Runs = 15
	sc.HM.Trees = 100
	sc.GA.PopSize = 15
	sc.GA.Generations = 8
	return sc
}

func TestTable1ListsAllPrograms(t *testing.T) {
	out := Table1()
	for _, abbr := range []string{"PR", "KM", "BA", "NW", "WC", "TS"} {
		if !strings.Contains(out, abbr) {
			t.Errorf("Table 1 missing %s:\n%s", abbr, out)
		}
	}
}

func TestTable2Lists41Params(t *testing.T) {
	out := Table2()
	if !strings.Contains(out, "total: 41 parameters") {
		t.Errorf("Table 2 should list 41 parameters:\n%s", out)
	}
	if !strings.Contains(out, "spark.executor.memory") {
		t.Error("Table 2 missing executor memory")
	}
}

func TestFig2ShapeHolds(t *testing.T) {
	sc := tinyScale()
	// Tvar is a max-statistic: it needs a reasonable sample of random
	// configurations before the IMC-vs-ODC contrast is stable.
	sc.Fig2Runs = 200
	rows := Fig2(sc)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byName := map[string]Fig2Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.TvarInput1 < 0 || r.TvarInput2 < 0 {
			t.Errorf("%s: negative Tvar", r.Name)
		}
	}
	// The motivation claim: Spark's variation grows with datasize much
	// faster than Hadoop's for the same program.
	if byName["Spark-KM"].GrowthFactor <= byName["Hadoop-KM"].GrowthFactor {
		t.Errorf("Spark-KM growth %.2f not above Hadoop-KM %.2f",
			byName["Spark-KM"].GrowthFactor, byName["Hadoop-KM"].GrowthFactor)
	}
	if byName["Spark-PR"].GrowthFactor <= byName["Hadoop-PR"].GrowthFactor {
		t.Errorf("Spark-PR growth %.2f not above Hadoop-PR %.2f",
			byName["Spark-PR"].GrowthFactor, byName["Hadoop-PR"].GrowthFactor)
	}
	if s := RenderFig2(rows); !strings.Contains(s, "Spark-KM") {
		t.Error("render missing rows")
	}
}

func TestFig9HMBeatsBaselinesOnAverage(t *testing.T) {
	sc := tinyScale()
	rows := Fig9(sc)
	if len(rows) != 7 { // 6 programs + AVG
		t.Fatalf("got %d rows", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Program != "AVG" {
		t.Fatalf("last row is %s", avg.Program)
	}
	for _, base := range []string{"RS", "ANN", "SVM", "RF"} {
		if avg.Err["HM"] >= avg.Err[base] {
			t.Errorf("HM avg error %.1f%% not below %s %.1f%%", avg.Err["HM"], base, avg.Err[base])
		}
	}
	out := RenderModelErrs(rows, []string{"RS", "ANN", "SVM", "RF", "HM"})
	if !strings.Contains(out, "AVG") {
		t.Error("render missing AVG row")
	}
}

func TestFig7ErrorDropsWithMoreData(t *testing.T) {
	sc := tinyScale()
	points := Fig7(sc, []int{40, 150})
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	if points[1].Mean >= points[0].Mean {
		t.Errorf("error did not drop with more data: %v", points)
	}
	for _, p := range points {
		if p.Min > p.Mean || p.Mean > p.Max {
			t.Errorf("min/mean/max ordering violated: %+v", p)
		}
	}
	if s := RenderFig7(points); !strings.Contains(s, "ntrain") {
		t.Error("render missing header")
	}
}

func TestFig8CurvesImproveWithTrees(t *testing.T) {
	sc := tinyScale()
	curves := Fig8(sc, []float64{0.05}, []int{5}, []int{10, 150})
	if len(curves) != 1 {
		t.Fatalf("got %d curves", len(curves))
	}
	c := curves[0]
	if c.Err[1] >= c.Err[0] {
		t.Errorf("150 trees (%.1f%%) not better than 10 (%.1f%%)", c.Err[1], c.Err[0])
	}
	if s := RenderFig8(curves); !strings.Contains(s, "tc=5") {
		t.Error("render missing curve label")
	}
}

func TestFig10PairsPopulated(t *testing.T) {
	sc := tinyScale()
	pr, ts := Fig10(sc, 30)
	if len(pr) != 30 || len(ts) != 30 {
		t.Fatalf("got %d PR and %d TS pairs", len(pr), len(ts))
	}
	for _, p := range append(pr, ts...) {
		if p.RealSec <= 0 || p.PredSec <= 0 {
			t.Fatalf("non-positive pair %+v", p)
		}
	}
	if s := RenderFig10("PR", pr); !strings.Contains(s, "within10%") {
		t.Errorf("render malformed: %s", s)
	}
}

func TestImportanceRanksExecutorKnobsHigh(t *testing.T) {
	sc := tinyScale()
	rows := Importance(sc, "KM", 0)
	if len(rows) != 42 { // 41 params + dsize
		t.Fatalf("got %d rows", len(rows))
	}
	sum := 0.0
	rank := map[string]int{}
	for i, r := range rows {
		sum += r.Share
		rank[r.Feature] = i
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importance sums to %v", sum)
	}
	// Memory sizing and datasize must rank far above the Akka chatter
	// parameters.
	if rank["spark.executor.memory"] > rank["spark.akka.threads"] {
		t.Errorf("executor memory (#%d) ranked below akka threads (#%d)",
			rank["spark.executor.memory"], rank["spark.akka.threads"])
	}
	if rank["dsize"] > 15 {
		t.Errorf("dsize ranked #%d; the datasize feature should matter", rank["dsize"])
	}
	if s := RenderImportance("KM", rows[:5]); !strings.Contains(s, "1.") {
		t.Error("render malformed")
	}
}

func TestSubspaceTopBeatsBottom(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-pipeline analysis in -short mode")
	}
	sc := tinyScale()
	rows := Subspace(sc, "TS", 8)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.MeasuredSec <= 0 {
			t.Fatalf("non-positive time: %+v", r)
		}
		byName[r.Space] = r.MeasuredSec
	}
	if byName["top-8 by importance"] >= byName["bottom-8 by importance"] {
		t.Errorf("tuning the top-8 knobs (%.1fs) should beat the bottom-8 (%.1fs)",
			byName["top-8 by importance"], byName["bottom-8 by importance"])
	}
	if byName["all parameters"] >= byName["default (no tuning)"] {
		t.Errorf("full tuning (%.1fs) should beat the default (%.1fs)",
			byName["all parameters"], byName["default (no tuning)"])
	}
	if s := RenderSubspace("TS", rows); !strings.Contains(s, "params") {
		t.Error("render malformed")
	}
}

func TestNaiveSweep(t *testing.T) {
	sc := tinyScale()
	rows := Naive(sc, "TS", []int{10, 40})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[1].BestSec > rows[0].BestSec {
		t.Error("more budget should not find a worse best")
	}
	if rows[1].ClusterHours <= rows[0].ClusterHours {
		t.Error("more budget must cost more cluster time")
	}
	if s := RenderNaive("TS", rows); !strings.Contains(s, "cluster hours") {
		t.Error("render malformed")
	}
}

func TestValidateDirectionsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs in -short mode")
	}
	rows := Validate(tinyScale())
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.EngineRatio <= 0 || r.SimRatio <= 0 {
			t.Fatalf("non-positive ratio: %+v", r)
		}
	}
	// The engine's wall-clock ratios move with host load, so they are
	// reported, not checked. The engine side is checked through the
	// counters that explain its direction, and the simulator's ratios,
	// which are deterministic, through their side of 1.
	compress, slots, starved := rows[0], rows[1], rows[2]
	if compress.Counter != "ShuffleBytesWritten" || compress.After >= compress.Before {
		t.Errorf("compression should shrink the engine's shuffle bytes: %+v", compress)
	}
	if compress.SimRatio <= 1 {
		t.Errorf("compression should cost the CPU-bound simulated job time: %+v", compress)
	}
	if slots.SimRatio >= 1 {
		t.Errorf("more task slots should speed the simulated job up: %+v", slots)
	}
	if starved.Counter != "SpillBytes" || starved.Before != 0 || starved.After <= 0 {
		t.Errorf("a starved shuffle should spill on the engine, a fed one not: %+v", starved)
	}
	if starved.SimRatio <= 1 {
		t.Errorf("a starved shuffle should slow the simulated job down: %+v", starved)
	}
	if s := RenderValidate(rows); !strings.Contains(s, "agree") || !strings.Contains(s, "SpillBytes") {
		t.Error("render malformed")
	}
}

func TestExtensionBeatsKVDefaults(t *testing.T) {
	rows := Extension(tinyScale())
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.DefaultSec <= 0 || r.TunedSec <= 0 {
			t.Fatalf("non-positive time: %+v", r)
		}
		if r.Speedup < 1 {
			t.Errorf("%v GB: tuned slower than default (%.2fx)", r.TableGB, r.Speedup)
		}
	}
	if s := RenderExtension(rows); !strings.Contains(s, "speedup") {
		t.Error("render malformed")
	}
}

// TestOnlineMatchesFullDACAtHalfCost is the tune_online acceptance
// criterion: on at least two workloads the online importance-screened
// loop must land within 5% of full DAC's quality while executing no
// more than half the cluster runs.
func TestOnlineMatchesFullDACAtHalfCost(t *testing.T) {
	if testing.Short() {
		t.Skip("two tuning pipelines per workload in -short mode")
	}
	sc := tinyScale()
	// The screening stage ranks importance from its initial sample; below
	// a few hundred rows that ranking is noise and the loop freezes the
	// wrong knobs. 400 is QuickScale's collecting budget and still runs
	// both pipelines for three workloads in well under a second.
	sc.NTrain = 400
	outcomes := OnlineVsDAC(sc, []string{"TS", "WC", "PR"})
	if len(outcomes) != 3 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	within := 0
	for _, o := range outcomes {
		if o.OnlineRuns*2 > o.FullRuns {
			t.Errorf("%s: online executed %d runs, over half of full DAC's %d",
				o.Workload.Abbr, o.OnlineRuns, o.FullRuns)
		}
		if o.OnlineSec <= 1.05*o.FullSec {
			within++
		}
		if o.OnlineSec >= o.DefaultSec {
			t.Errorf("%s: online (%.1fs) did not beat the default (%.1fs)",
				o.Workload.Abbr, o.OnlineSec, o.DefaultSec)
		}
		if len(o.Screened) == 0 || len(o.Iterations) == 0 {
			t.Errorf("%s: empty online trajectory: %+v", o.Workload.Abbr, o)
		}
	}
	if within < 2 {
		t.Errorf("online within 5%% of full DAC on %d of %d workloads, want >= 2:\n%s",
			within, len(outcomes), RenderOnline(outcomes))
	}
	if s := RenderOnline(outcomes); !strings.Contains(s, "quality") {
		t.Error("render malformed")
	}
}

func TestTuneAllAndDownstreamFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning pipeline in -short mode")
	}
	sc := tinyScale()
	outcomes := TuneAll(sc)
	if len(outcomes) != 6 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	for _, o := range outcomes {
		if len(o.DACSec) != 5 || len(o.DefaultSec) != 5 {
			t.Fatalf("%s: wrong size count", o.Workload.Abbr)
		}
		for i := range o.DACSec {
			if o.DACSec[i] <= 0 || o.DefaultSec[i] <= 0 {
				t.Fatalf("%s: non-positive time", o.Workload.Abbr)
			}
			// DAC must robustly beat the default (the headline claim);
			// even at tiny training scale a 2x margin holds.
			if o.DACSec[i]*2 > o.DefaultSec[i] {
				t.Errorf("%s D%d: DAC %.1fs vs default %.1fs — speedup < 2x",
					o.Workload.Abbr, i+1, o.DACSec[i], o.DefaultSec[i])
			}
		}
	}
	if s := RenderFig11(outcomes); !strings.Contains(s, "converged") {
		t.Error("Fig 11 render malformed")
	}
	if s := RenderFig12a(outcomes); !strings.Contains(s, "average") {
		t.Error("Fig 12a render malformed")
	}
	if s := RenderFig12b(outcomes); !strings.Contains(s, "geomean") {
		t.Error("Fig 12b render malformed")
	}
	idx := []int{0, 2, 4}
	f13 := Fig13(sc, outcomes, idx)
	if len(f13) != 3 {
		t.Fatalf("Fig 13 returned %d sizes", len(f13))
	}
	if s := RenderFig13(f13, idx); !strings.Contains(s, "stageC") {
		t.Errorf("Fig 13 render missing KMeans stages:\n%s", s)
	}
	f14 := Fig14(sc, outcomes)
	if len(f14) != 15 { // 5 sizes × 3 configs
		t.Fatalf("Fig 14 returned %d rows", len(f14))
	}
	if s := RenderFig14(f14); !strings.Contains(s, "stage2") {
		t.Error("Fig 14 render malformed")
	}
	if s := RenderTable3(outcomes); !strings.Contains(s, "Collecting") {
		t.Error("Table 3 render malformed")
	}
}
