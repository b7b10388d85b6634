package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/search"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// The golden pins: sha256 digests over the float bits of quick-budget
// pipeline results. Any change to a row's time, the HM fit, the GA or TPE
// trajectory, or the online loop's choices moves a digest — refactors of
// the collect, search, and online plumbing must leave every one untouched.
// A deliberate algorithm change re-records them (run with -v: the log
// prints the digests).
var goldenPins = map[string]string{
	"tune/TS":     "2e027365cb6346103c71df4336005e268d264d4ca4f6b84c43b4a41f296cfa78",
	"tune/WC":     "1e3e4468792db1fcdd883c8bd5d2c1a6e8e12efe80e8b4d909f05c20d847ba39",
	"tune/PR":     "3aba192ec2dd7b6faa562bc9241bef52d2ea051dfc695fe38e1f3ba8c19dec1f",
	"tune/TS/tpe": "3e962e9e93808cf1d01b75abc871eebb2b4ff1238a591d9dc2afab3f5c4786a7",
	"online/TS":   "97a47bcd04c589d44f13708d18f679cc6e44cab6a03ce3f3bf4ed0aa817e90e9",
}

// pinHash accumulates float bits (and counts, as float64s) in order.
type pinHash struct{ buf []byte }

func (h *pinHash) add(vs ...float64) {
	for _, v := range vs {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(v))
	}
}

func (h *pinHash) sum() string {
	s := sha256.Sum256(h.buf)
	return hex.EncodeToString(s[:])
}

// goldenTuner wires a quick-budget tuner the way `dac tune` does: the
// standard cluster simulated at seed+7, the workload's program behind a
// SimExecutor, and the quick budget's collect/model/search knobs.
func goldenTuner(t *testing.T, abbr string, seed int64) (*core.Tuner, *workloads.Workload) {
	t.Helper()
	w, err := workloads.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	b := experiments.QuickBudget()
	sim := sparksim.New(cluster.Standard(), seed+7)
	return &core.Tuner{
		Space: conf.StandardSpace(),
		Exec:  core.NewSimExecutor(sim, &w.Program),
		Opt:   core.Options{NTrain: b.NTrain, HM: b.HM, GA: b.GA, Seed: seed},
	}, w
}

// goldenRange is the CLI's training range and default target size.
func goldenRange(w *workloads.Workload) (lo, hi, target float64) {
	return w.InputMB(w.Sizes[0]) * 0.8, w.InputMB(w.Sizes[len(w.Sizes)-1]) * 1.1, w.InputMB(w.Sizes[len(w.Sizes)/2])
}

// tunePin digests one Tune: best vector, prediction, GA history and
// evaluation count, and collect cluster-hours.
func tunePin(t *testing.T, tuner *core.Tuner, w *workloads.Workload) string {
	t.Helper()
	lo, hi, target := goldenRange(w)
	res, err := tuner.Tune(lo, hi, []float64{target})
	if err != nil {
		t.Fatal(err)
	}
	var h pinHash
	h.add(res.Best[target].Vector()...)
	h.add(res.PredictedSec[target])
	h.add(res.GA[target].History...)
	h.add(float64(res.GA[target].Evaluations), res.Overhead.CollectClusterHours)
	return h.sum()
}

// onlinePin digests one quick TuneOnline: the measured best, its
// prediction, every iteration record, run and rejection counts, and
// cluster-hours.
func onlinePin(t *testing.T, tuner *core.Tuner, w *workloads.Workload) string {
	t.Helper()
	lo, hi, target := goldenRange(w)
	oo := core.OnlineOptions{ScreenSamples: 60, TopK: 8, Iterations: 2, IterBatch: 8, ExtraTrees: 60,
		Guard: core.SimOOMGuard(cluster.Standard(), &w.Program, 0)}
	res, err := tuner.TuneOnline(context.Background(), lo, hi, target, oo, core.RowHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var h pinHash
	h.add(res.Best.Vector()...)
	h.add(res.MeasuredSec, res.PredictedSec)
	h.add(res.Importance...)
	for _, it := range res.Iterations {
		h.add(float64(it.Runs), it.ValErr, it.PredictedSec, it.BestMeasuredSec, float64(it.GuardRejected))
	}
	h.add(float64(res.TotalRuns), float64(res.GuardRejections), res.Overhead.CollectClusterHours)
	return h.sum()
}

// TestGoldenPins checks every pinned digest at GOMAXPROCS 1 and 4.
func TestGoldenPins(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-budget pipeline runs skipped in -short mode")
	}
	runs := map[string]func(t *testing.T) string{
		"tune/TS/tpe": func(t *testing.T) string {
			tuner, w := goldenTuner(t, "TS", 1)
			s, err := search.Default().Lookup("tpe")
			if err != nil {
				t.Fatal(err)
			}
			tuner.Opt.Searcher = s
			return tunePin(t, tuner, w)
		},
		"online/TS": func(t *testing.T) string {
			tuner, w := goldenTuner(t, "TS", 1)
			return onlinePin(t, tuner, w)
		},
	}
	for _, abbr := range []string{"TS", "WC", "PR"} {
		runs["tune/"+abbr] = func(t *testing.T) string {
			tuner, w := goldenTuner(t, abbr, 1)
			return tunePin(t, tuner, w)
		}
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for _, name := range []string{"tune/TS", "tune/WC", "tune/PR", "tune/TS/tpe", "online/TS"} {
				got := runs[name](t)
				t.Logf("%s: %s", name, got)
				if want := goldenPins[name]; got != want {
					t.Errorf("%s: digest %s, pinned %s", name, got, want)
				}
			}
		})
	}
}
