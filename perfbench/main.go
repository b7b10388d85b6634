// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed number of seconds from a seed, checks every output,
// and prints each metric by name with its unit; the last line of standard
// output is one JSON object with the run's verdict and metrics.
//
//	perfbench --workload tune_paper|dacd_jobs|predict_serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the pipeline runs with observability off and the
// end-to-end metrics are reported. With --trace 1 the same workload runs
// with part of its ops on an obs registry, and the per-layer metrics —
// read from the spans and counters the program already records — are
// reported instead, together with the tracing overhead. README.md in this
// directory says why each workload exists and which layer metric should
// move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart anchors setup_s: package initialization runs before main,
// so this is as close to process start as Go code can observe.
var processStart = time.Now()

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; BENCHMARK.json lists
// the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"tuned_speedup_gmean", "ratio"},
	{"collect_cluster_h", "h"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics. Every workload reports
// every one; a layer the workload never reaches reads 0.
var perLayer = []metricDef{
	{"core.collect_s", "s/op"},
	{"sparksim.runs", "count/op"},
	{"sparksim.run_us", "us"},
	{"hm.model_s", "s/op"},
	{"tree.grow_s", "s/op"},
	{"hm.trees", "count/op"},
	{"tree.hist.subtract_ratio", "ratio"},
	{"hm.resume_ms", "ms"},
	{"ga.search_s", "s/op"},
	{"ga.evaluations", "count/op"},
	{"ga.cache_hit_ratio", "ratio"},
	{"model.predict_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.job_ms", "ms"},
	{"serve.job_overhead_ms", "ms"},
	{"serve.collect.checkpoints", "count/op"},
	{"serve.online.checkpoints", "count/op"},
	{"serve.models.saved", "count/op"},
	{"serve.polls_per_job", "count/op"},
	{"serve.predict.server_us_p50", "us"},
	{"serve.predict.server_us_p99", "us"},
	{"http.transport_us", "us"},
	{"serve.predict.memo_hit_ratio", "ratio"},
	{"serve.modelcache.misses", "count"},
	{"serve.predict.batch_size_mean", "count"},
	{"model.predict_batch_us_per_row", "us"},
	{"op_ms_first_quarter", "ms"},
	{"op_ms_last_quarter", "ms"},
	{"obs.overhead_pct", "%"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// dataDir is a private directory under .bench_build/, removed when the
	// run ends.
	dataDir string
}

// report is what a workload hands back: op accounting, failed checks,
// metric values and free-form lines for the human-readable part.
type report struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	info              []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// problem records a failed output check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note adds a line to the human-readable report.
func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// setupReps is how many times each workload sets itself up; setup_s is the
// median, so one slow repetition (page faults, a busy neighbour) does not
// move it.
const setupReps = 3

// fixedSeed seeds the work that must not move with --seed: every warm-up
// op, so setup_s is the same work at every seed, and the fixed reference
// inputs of timed work whose cost would otherwise follow the seed (see
// runTunePaper and runPredictServe). Each use derives its own stream.
const fixedSeed = 1

var workloadsByName = map[string]func(runConfig) (*report, error){
	"tune_paper":    runTunePaper,
	"dacd_jobs":     runDacdJobs,
	"predict_serve": runPredictServe,
}

func main() {
	name := flag.String("workload", "", "workload: tune_paper, dacd_jobs or predict_serve")
	seed := flag.Int64("seed", 1, "benchmark seed; every input derives from it")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	run, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload tune_paper|dacd_jobs|predict_serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := mainErr(*name, run, runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, run func(runConfig) (*report, error), cfg runConfig) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.dataDir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}

	fmt.Printf("workload %s seed %d seconds %.0f trace %v\n", name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Printf("env GOMAXPROCS=%d NumCPU=%d %s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	rep.e2e["peak_rss_mb"] = readUsage().maxRSSMB
	return emit(rep, cfg.trace)
}

// emit prints the human-readable report and, last, the JSON result line.
func emit(rep *report, trace bool) error {
	for _, line := range rep.info {
		fmt.Println(line)
	}
	defs, values := endToEnd, rep.e2e
	if trace {
		defs, values = perLayer, rep.layer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !trace {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-32s %16.6f %s\n", d.name, v, d.unit)
	}
	errorRate := ratio(float64(rep.failed), float64(rep.attempted))
	fmt.Printf("%-32s %16.6f %s (%d failed of %d attempted)\n", "error_rate", errorRate, "ratio", rep.failed, rep.attempted)
	sort.Strings(rep.problems)
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if rep.attempted < 1 {
		return fmt.Errorf("no ops attempted")
	}
	line, err := json.Marshal(result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
