package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/conf"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workloads"
)

const (
	// pollInterval is how long the client waits between GET /jobs/{id}
	// polls. It bounds how late a finished job is noticed.
	pollInterval = 2 * time.Millisecond
	// jobPrefix is the fixed job set tuned_speedup_gmean and
	// collect_cluster_h are computed over: the first measured jobs, so the
	// figures repeat exactly at one seed however many jobs fit in a run.
	// A small-budget job's tuned quality varies widely with its seed; 48
	// jobs (about seven seconds) average that down to a few percent.
	jobPrefix = 48
	// jobTailPct is dacd_jobs' tail percentile; a 30-second run completes
	// about two hundred jobs, which leaves about twenty beyond p90.
	jobTailPct = 90
	// jobGAPop is the jobs' GA population, the base of their genome-cache
	// hit ratio.
	jobGAPop = 50
)

// jobOutcome is one finished dacd job as the client saw it.
type jobOutcome struct {
	turnaround time.Duration
	polls      int
	targetMB   float64
	vector     []float64
	clusterH   float64
	traced     bool
	online     bool
}

// jobSpec is the i-th job of a stream: TS tune and tune_online jobs in
// alternation, each at its own seed so that submission dedup never folds
// two of them together. They take the quick preset's row counts (200
// collected rows; 77 online runs), so every job makes the same journal
// appends and saves, but a larger model and search budget (1200 trees,
// GA 50x40, 600 warm-start trees). At the quick preset's own budget a job
// took ~40 ms, of which its ~9 fsyncs could take half when a neighbour on
// the host was writing; at ~140 ms a job's compute dominates its fsyncs.
func jobSpec(seed int64, stream string, i int) serve.JobSpec {
	typ := serve.JobTune
	if i%2 == 1 {
		typ = serve.JobTuneOnline
	}
	return serve.JobSpec{Type: typ, Workload: "TS", Quick: true, Seed: deriveSeed(seed, stream, i),
		HMTrees: 1200, GAPop: jobGAPop, GAGenerations: 40, ExtraTrees: 600}
}

// runJob submits spec and polls until the job reaches a terminal state.
// Anything but a fresh (not deduplicated) job that ends done with a legal
// configuration is an error.
func runJob(c *http.Client, d *daemon, space *conf.Space, spec serve.JobSpec) (jobOutcome, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobOutcome{}, err
	}
	start := time.Now()
	var sub struct {
		ID      int64 `json:"id"`
		Deduped bool  `json:"deduped"`
	}
	if err := doJSON(c, http.MethodPost, d.url+"/jobs", body, &sub); err != nil {
		return jobOutcome{}, err
	}
	if sub.Deduped {
		return jobOutcome{}, fmt.Errorf("job %d (%s seed %d) was deduplicated", sub.ID, spec.Type, spec.Seed)
	}
	out := jobOutcome{traced: d.reg != nil, online: spec.Type == serve.JobTuneOnline}
	url := fmt.Sprintf("%s/jobs/%d", d.url, sub.ID)
	for {
		time.Sleep(pollInterval)
		var j serve.Job
		if err := doJSON(c, http.MethodGet, url, nil, &j); err != nil {
			return out, err
		}
		out.polls++
		switch j.State {
		case serve.StateQueued, serve.StateRunning:
			continue
		case serve.StateDone:
		default:
			return out, fmt.Errorf("job %d (%s seed %d) ended %s: %s", sub.ID, spec.Type, spec.Seed, j.State, j.Error)
		}
		out.turnaround = time.Since(start)
		var res struct {
			TargetMB     float64   `json:"target_mb"`
			Vector       []float64 `json:"vector"`
			ClusterHours float64   `json:"cluster_hours"`
		}
		if err := json.Unmarshal(j.Result, &res); err != nil {
			return out, fmt.Errorf("job %d result: %w", sub.ID, err)
		}
		if err := legalVector(space, res.Vector); err != nil {
			return out, fmt.Errorf("job %d (%s seed %d): %w", sub.ID, spec.Type, spec.Seed, err)
		}
		out.targetMB, out.vector, out.clusterH = res.TargetMB, res.Vector, res.ClusterHours
		return out, nil
	}
}

// runDacdJobs is the dacd_jobs workload: a closed loop of one HTTP client
// submitting TS tune and tune_online jobs (see jobSpec) in alternation to a
// daemon started over an empty data directory, and polling each until it
// is done. In a traced run two daemons serve alternate job pairs, one on
// an obs registry and one without, and obs.overhead_pct compares them.
func runDacdJobs(cfg runConfig) (*report, error) {
	rep := newReport()
	space := conf.StandardSpace()
	ts, err := workloads.ByAbbr("TS")
	if err != nil {
		return nil, err
	}
	client := newClient(1)

	// Set-up, repeated: start the daemon(s) over fresh directories and
	// run one warm-up job of each kind on each. The last repetition's
	// daemons carry the measured load.
	var daemons []*daemon
	defer func() { stopAll(daemons) }() // results are in; a failed stop changes none
	var setups []float64
	warm := 0
	for k := 0; k < setupReps; k++ {
		err := stopAll(daemons)
		daemons = nil
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		if daemons, err = startDaemons(cfg); err != nil {
			return nil, err
		}
		for _, d := range daemons {
			for j := 0; j < 2; j++ {
				if _, err := runJob(client, d, space, jobSpec(fixedSeed, "dacd_jobs/warmup", warm)); err != nil {
					return nil, fmt.Errorf("warm-up job: %w", err)
				}
				warm++
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.note("setup: %d repetitions of daemon start over an empty data directory + one warm-up job of each kind, durations %.3f s (first counted from process start)", setupReps, setups)

	// Measured window: whole (tune, tune_online) pairs, at least the fixed
	// prefix, and enough jobs for ten beyond the tail percentile even on a
	// slow host.
	minJobs := max(jobPrefix, minBeyond*100/(100-jobTailPct))
	var jobs []jobOutcome
	cpu0 := readUsage().cpu
	winStart := time.Now()
	for i := 0; ; i++ {
		if i%2 == 0 && len(jobs) >= minJobs && time.Since(winStart) >= cfg.seconds {
			break
		}
		d := daemons[(i/2)%len(daemons)]
		rep.attempted++
		out, err := runJob(client, d, space, jobSpec(cfg.seed, "dacd_jobs", i))
		if err != nil {
			rep.failed++
			rep.problem("job %d: %v", i, err)
			if i < jobPrefix {
				return nil, fmt.Errorf("fixed-prefix job %d failed: %w", i, err)
			}
			continue
		}
		jobs = append(jobs, out)
	}
	window := time.Since(winStart)
	cpu := readUsage().cpu - cpu0

	lat := make([]float64, len(jobs))
	var polls int
	for i, j := range jobs {
		lat[i] = j.turnaround.Seconds() * 1000
		polls += j.polls
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	tail, err := tailPercentile(sorted, jobTailPct)
	if err != nil {
		return nil, err
	}
	rep.e2e["ops_per_s"] = float64(len(jobs)) / window.Seconds()
	rep.e2e["op_ms_p50"] = median(lat)
	rep.e2e["op_ms_tail"] = tail
	rep.e2e["cpu_ms_per_op"] = cpu.Seconds() * 1000 / float64(len(jobs))
	rep.note("measured: %d jobs over %.3f s, poll interval %s; op_ms_tail is p%d of %d samples", len(jobs), window.Seconds(), pollInterval, jobTailPct, len(jobs))

	var sp []float64
	var clusterH float64
	var prefix [][]float64
	for _, j := range jobs[:jobPrefix] {
		s, err := speedups(space, ts, []float64{j.targetMB}, [][]float64{j.vector})
		if err != nil {
			return nil, err
		}
		sp = append(sp, s...)
		clusterH += j.clusterH
		prefix = append(prefix, j.vector)
	}
	gm, err := geoMean(sp)
	if err != nil {
		return nil, err
	}
	rep.e2e["tuned_speedup_gmean"] = gm
	rep.e2e["collect_cluster_h"] = clusterH / jobPrefix
	rep.note("fixed op set: first %d jobs, config digest %s; speedups on held-out simulator seed %d", jobPrefix, digest(prefix), evalSimSeed)

	var tuneLat, onlineLat []float64
	for i, j := range jobs {
		if j.online {
			onlineLat = append(onlineLat, lat[i])
		} else {
			tuneLat = append(tuneLat, lat[i])
		}
	}
	rep.note("by kind: tune median %.1f ms over %d jobs, tune_online median %.1f ms over %d jobs",
		median(tuneLat), len(tuneLat), median(onlineLat), len(onlineLat))

	q := len(lat) / 4
	rep.layer["op_ms_first_quarter"] = median(lat[:q])
	rep.layer["op_ms_last_quarter"] = median(lat[len(lat)-q:])
	rep.note("drift: median turnaround of the first quarter %.2f ms, last quarter %.2f ms (%d jobs each)",
		rep.layer["op_ms_first_quarter"], rep.layer["op_ms_last_quarter"], q)

	if cfg.trace {
		traced := daemons[0]
		snap := traced.reg.Snapshot()
		if n := snap.Counters["serve.jobs.deduped"]; n != 0 {
			rep.problem("serve.jobs.deduped = %d, want 0", n)
		}
		var tracedLat, plainLat []float64
		for i, j := range jobs {
			if j.traced {
				tracedLat = append(tracedLat, lat[i])
			} else {
				plainLat = append(plainLat, lat[i])
			}
		}
		// The traced daemon's registry also saw its two warm-up jobs.
		n := len(tracedLat) + 2
		pipelineLayers(rep, snap, n, jobGAPop)
		serveJobLayers(rep, snap, n, mean(tracedLat))
		rep.layer["serve.polls_per_job"] = ratio(float64(polls), float64(len(jobs)))
		rep.layer["obs.overhead_pct"] = 100 * (mean(tracedLat)/mean(plainLat) - 1)
		rep.note("tracing: %d jobs on the traced daemon, %d on the untraced one; per-job figures over %d jobs incl. 2 warm-ups", len(tracedLat), len(plainLat), n)
	}
	return rep, nil
}

// serveJobLayers fills the daemon write-side metrics from a traced
// daemon's registry covering jobs jobs, whose mean client-side turnaround
// was turnaroundMs.
func serveJobLayers(rep *report, snap obs.Snapshot, jobs int, turnaroundMs float64) {
	flat := flattenSpans(snap.Spans)
	n := float64(jobs)
	jobSec, jobCount := spanTotalPrefix(flat, "serve.job.")
	jobMs := ratio(jobSec, float64(jobCount)) * 1000
	// The pipeline's own root spans: durable collect, model+search, and
	// the online loop. What the job span holds beyond them is the
	// daemon's own work: journal open, registry save, result encoding.
	pipeline := spanTotal(flat, "collect") + spanTotal(flat, "tune") + spanTotal(flat, "tune_online")
	rep.layer["serve.job_ms"] = jobMs
	rep.layer["serve.job_overhead_ms"] = ratio(jobSec-pipeline, float64(jobCount)) * 1000
	rep.layer["serve.queue_wait_ms"] = turnaroundMs - jobMs
	rep.layer["serve.collect.checkpoints"] = ratio(float64(snap.Counters["serve.collect.checkpoints"]), n)
	rep.layer["serve.online.checkpoints"] = ratio(float64(snap.Counters["serve.online.checkpoints"]), n)
	rep.layer["serve.models.saved"] = ratio(float64(snap.Counters["serve.models.saved"]), n)
	rep.note("serve.queue_wait_ms is mean client turnaround minus mean job span: submit, queue hand-off, terminal persist and poll lag (< %s)", pollInterval)
}
