package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/hm"
	"repro/internal/obs"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// newTestServer starts a daemon over a temp data dir and an httptest
// front end.
func newTestServer(t *testing.T, reg *obs.Registry) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServerOpts(t.TempDir(), ServerOptions{Workers: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// submitAndWait submits a job over HTTP and polls until it reaches a
// terminal state.
func submitAndWait(t *testing.T, base string, spec JobSpec, timeout time.Duration) Job {
	t.Helper()
	var sub struct {
		ID int64 `json:"id"`
	}
	if code := postJSON(t, base+"/jobs", spec, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var j Job
		if code := getJSON(t, fmt.Sprintf("%s/jobs/%d", base, sub.ID), &j); code != http.StatusOK {
			t.Fatalf("get job returned %d", code)
		}
		switch j.State {
		case StateDone, StateFailed, StateCancelled:
			return j
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %d did not finish in %v", sub.ID, timeout)
	return Job{}
}

// tuneBudget is the small-but-real budget the equality tests run at.
var tuneBudget = JobSpec{
	Type: JobTune, Workload: "TS", Size: 30, Seed: 5,
	NTrain: 150, HMTrees: 80, GAPop: 16, GAGenerations: 8,
}

// cliTuner reproduces cmd/dac's newTuner wiring for the test budget —
// the reference the HTTP path must match exactly.
func cliTuner(t *testing.T) (*core.Tuner, *workloads.Workload) {
	t.Helper()
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), tuneBudget.Seed+7)
	return &core.Tuner{
		Space: conf.StandardSpace(),
		Exec:  core.NewSimExecutor(sim, &w.Program),
		Opt: core.Options{
			NTrain: tuneBudget.NTrain,
			HM:     hm.Options{Trees: tuneBudget.HMTrees, LearningRate: 0.05, TreeComplexity: 5},
			GA:     ga.Options{PopSize: tuneBudget.GAPop, Generations: tuneBudget.GAGenerations},
			Seed:   tuneBudget.Seed,
		},
	}, w
}

// trainingRange is the CLI's collect range written out, [0.8·D1, 1.1·D5]
// in MB, so the equality tests check the recipe rather than the daemon's
// own call of workloads.TrainingRangeMB.
func trainingRange(w *workloads.Workload) (lo, hi float64) {
	return w.InputMB(w.Sizes[0]) * 0.8, w.InputMB(w.Sizes[len(w.Sizes)-1]) * 1.1
}

type tuneResult struct {
	Workload     string             `json:"workload"`
	TargetMB     float64            `json:"target_mb"`
	Best         map[string]float64 `json:"best"`
	Vector       []float64          `json:"vector"`
	PredictedSec float64            `json:"predicted_sec"`
	Model        string             `json:"model"`
	ModelVersion int                `json:"model_version"`
}

// TestHTTPTuneMatchesCLI is the service's acceptance criterion: a full
// tune over HTTP returns the same best configuration and prediction as
// the equivalent CLI invocation with the same seed — the daemon adds
// durability and an API, not different math.
func TestHTTPTuneMatchesCLI(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, reg)

	j := submitAndWait(t, ts.URL, tuneBudget, 2*time.Minute)
	if j.State != StateDone {
		t.Fatalf("tune job finished %s: %s", j.State, j.Error)
	}
	var got tuneResult
	if err := json.Unmarshal(j.Result, &got); err != nil {
		t.Fatal(err)
	}

	tuner, w := cliTuner(t)
	lo, hi := trainingRange(w)
	targetMB := w.InputMB(tuneBudget.Size)
	ref, err := tuner.Tune(lo, hi, []float64{targetMB})
	if err != nil {
		t.Fatal(err)
	}
	refVec := ref.Best[targetMB].Vector()
	if len(got.Vector) != len(refVec) {
		t.Fatalf("vector length %d, want %d", len(got.Vector), len(refVec))
	}
	for i := range refVec {
		if got.Vector[i] != refVec[i] {
			t.Fatalf("param %d: HTTP tune chose %v, CLI chose %v", i, got.Vector[i], refVec[i])
		}
	}
	if got.PredictedSec != ref.PredictedSec[targetMB] {
		t.Fatalf("predicted %v over HTTP, %v via CLI path", got.PredictedSec, ref.PredictedSec[targetMB])
	}
	if got.Model != "ts" || got.ModelVersion != 1 {
		t.Fatalf("tune registered %s@v%d, want ts@v1", got.Model, got.ModelVersion)
	}

	// The registered model must answer /predict with the model's own
	// value for the tuned vector.
	var pred struct {
		PredictedSec float64 `json:"predicted_sec"`
		Version      int     `json:"version"`
	}
	code := postJSON(t, ts.URL+"/models/ts/predict",
		map[string]any{"vector": got.Vector, "dsize_mb": got.TargetMB}, &pred)
	if code != http.StatusOK {
		t.Fatalf("predict returned %d", code)
	}
	if pred.PredictedSec != got.PredictedSec {
		t.Fatalf("/predict says %v, tune said %v — same model, same input", pred.PredictedSec, got.PredictedSec)
	}

	// A follow-up search job against the registered model matches the
	// equivalent `dac search` (same model, same seed, unseeded GA
	// population). A second identical submission doesn't even re-run: it
	// dedups onto the first job and hands back its result.
	searchSpec := JobSpec{Type: JobSearch, Workload: "TS", Size: 30, Seed: 5,
		GAPop: tuneBudget.GAPop, GAGenerations: tuneBudget.GAGenerations, Model: "ts"}
	var s1, s2 struct {
		Vector       []float64 `json:"vector"`
		PredictedSec float64   `json:"predicted_sec"`
	}
	js1 := submitAndWait(t, ts.URL, searchSpec, time.Minute)
	if js1.State != StateDone {
		t.Fatalf("search 1 finished %s: %s", js1.State, js1.Error)
	}
	json.Unmarshal(js1.Result, &s1)
	js2 := submitAndWait(t, ts.URL, searchSpec, time.Minute)
	if js2.State != StateDone {
		t.Fatalf("search 2 finished %s: %s", js2.State, js2.Error)
	}
	json.Unmarshal(js2.Result, &s2)
	if js2.ID != js1.ID {
		t.Fatalf("identical search respawned as job %d; want dedup onto job %d", js2.ID, js1.ID)
	}
	if js2.Deduped == 0 {
		t.Fatal("deduped submission not counted on the surviving job")
	}
	if reg.Counter("serve.jobs.deduped").Value() == 0 {
		t.Fatal("serve.jobs.deduped counter not bumped")
	}

	// A search that extends the GA budget is a different spec: it runs
	// as a job of its own.
	extSpec := searchSpec
	extSpec.GAGenerations = tuneBudget.GAGenerations + 2
	js3 := submitAndWait(t, ts.URL, extSpec, time.Minute)
	if js3.State != StateDone {
		t.Fatalf("extended search finished %s: %s", js3.State, js3.Error)
	}
	if js3.ID == js1.ID {
		t.Fatal("a different spec must not dedup onto the original search")
	}
	srvModel, _, err := srv.Manager().Models().Load("ts", 1)
	if err != nil {
		t.Fatal(err)
	}
	searchTuner, _ := cliTuner(t)
	refCfg, refPred, _, _, err := searchTuner.Search(srvModel, targetMB, nil)
	if err != nil {
		t.Fatal(err)
	}
	searchRef := refCfg.Vector()
	for i := range searchRef {
		if s1.Vector[i] != searchRef[i] || s2.Vector[i] != searchRef[i] {
			t.Fatalf("param %d: search jobs diverged from the equivalent CLI search", i)
		}
	}
	if s1.PredictedSec != refPred || s2.PredictedSec != refPred {
		t.Fatalf("search predictions %v/%v, CLI search %v", s1.PredictedSec, s2.PredictedSec, refPred)
	}
	// /metrics must expose the pipeline counters the run produced.
	var snap map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	if reg.Counter("serve.jobs.done").Value() < 3 {
		t.Fatalf("serve.jobs.done = %d, want >= 3", reg.Counter("serve.jobs.done").Value())
	}
	if reg.Counter("serve.collect.checkpoints").Value() == 0 {
		t.Fatal("collect ran without journaling a single checkpoint")
	}
}

// TestHTTPCollectTrainWarmStart drives the decomposed pipeline over
// HTTP: collect → train (registers v1) → warm-start train (registers v2
// continuing v1 via hm.Resume).
func TestHTTPCollectTrainWarmStart(t *testing.T) {
	_, ts := newTestServer(t, nil)

	cj := submitAndWait(t, ts.URL, JobSpec{Type: JobCollect, Workload: "WC", NTrain: 150, Seed: 2}, time.Minute)
	if cj.State != StateDone {
		t.Fatalf("collect finished %s: %s", cj.State, cj.Error)
	}

	tj := submitAndWait(t, ts.URL, JobSpec{Type: JobTrain, FromJob: cj.ID, Seed: 2, HMTrees: 60, Model: "wc"}, time.Minute)
	if tj.State != StateDone {
		t.Fatalf("train finished %s: %s", tj.State, tj.Error)
	}
	var tr struct {
		Model   string  `json:"model"`
		Version int     `json:"version"`
		ValErr  float64 `json:"val_err"`
		Trees   int     `json:"trees"`
	}
	json.Unmarshal(tj.Result, &tr)
	if tr.Model != "wc" || tr.Version != 1 || tr.Trees == 0 {
		t.Fatalf("train result %+v", tr)
	}

	wj := submitAndWait(t, ts.URL, JobSpec{Type: JobTrain, FromJob: cj.ID, Seed: 2, HMTrees: 60,
		Model: "wc", WarmFrom: "wc", ExtraTrees: 20}, time.Minute)
	if wj.State != StateDone {
		t.Fatalf("warm train finished %s: %s", wj.State, wj.Error)
	}
	var wr struct {
		Version int `json:"version"`
		Trees   int `json:"trees"`
	}
	json.Unmarshal(wj.Result, &wr)
	if wr.Version != 2 {
		t.Fatalf("warm-started model registered as v%d, want v2", wr.Version)
	}
	if wr.Trees <= tr.Trees {
		t.Fatalf("warm start left %d trees, base had %d — Resume added nothing", wr.Trees, tr.Trees)
	}

	var model struct {
		Versions []ModelMeta `json:"versions"`
	}
	if code := getJSON(t, ts.URL+"/models/wc", &model); code != http.StatusOK {
		t.Fatalf("get model returned %d", code)
	}
	if len(model.Versions) != 2 || model.Versions[1].WarmFrom != "wc@v1" {
		t.Fatalf("model versions %+v", model.Versions)
	}
	var list struct {
		Models []ModelMeta `json:"models"`
	}
	getJSON(t, ts.URL+"/models", &list)
	if len(list.Models) != 1 || list.Models[0].Version != 2 {
		t.Fatalf("model list %+v", list.Models)
	}
}

// TestHTTPCancel pins the cancel path: a running collect flips to
// cancelled at its next checkpoint, keeping its journal for a later
// resubmission.
func TestHTTPCancel(t *testing.T) {
	s, ts := newTestServer(t, nil)
	hold := make(chan struct{})
	reached := make(chan struct{})
	var closed bool
	s.Manager().testBatchHook = func(rows int) {
		if rows >= 8 {
			if !closed {
				closed = true
				close(reached)
			}
			<-hold
		}
	}
	var sub struct {
		ID int64 `json:"id"`
	}
	spec := JobSpec{Type: JobCollect, Workload: "TS", NTrain: 400, Seed: 9, Parallelism: 1}
	if code := postJSON(t, ts.URL+"/jobs", spec, &sub); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("collect never started journaling")
	}
	if code := postJSON(t, fmt.Sprintf("%s/jobs/%d/cancel", ts.URL, sub.ID), nil, nil); code != http.StatusOK {
		t.Fatalf("cancel returned %d", code)
	}
	close(hold)
	waitFor(t, 10*time.Second, func() bool {
		var j Job
		getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, sub.ID), &j)
		return j.State == StateCancelled
	})
	// Cancelling a finished job is a conflict, not a crash.
	if code := postJSON(t, fmt.Sprintf("%s/jobs/%d/cancel", ts.URL, sub.ID), nil, nil); code != http.StatusConflict {
		t.Fatalf("second cancel returned %d, want %d", code, http.StatusConflict)
	}
}

// TestHTTPValidation covers the API's error envelope.
func TestHTTPValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)

	var health struct {
		OK bool `json:"ok"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz: code %d ok %v", code, health.OK)
	}
	if code := getJSON(t, ts.URL+"/metrics", &map[string]any{}); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}

	for _, spec := range []JobSpec{
		{Type: "resolve", Workload: "TS"},                  // unknown type
		{Type: JobTune, Workload: "XX"},                    // unknown workload
		{Type: JobTrain, Workload: "TS"},                   // train without from_job
		{Type: JobSearch},                                  // search without model/workload
		{Type: JobTune, Workload: "TS", Model: "Bad name"}, // invalid registry name
	} {
		if code := postJSON(t, ts.URL+"/jobs", spec, nil); code != http.StatusBadRequest {
			t.Fatalf("spec %+v accepted with code %d", spec, code)
		}
	}
	if code := getJSON(t, ts.URL+"/jobs/999", nil); code != http.StatusNotFound {
		t.Fatalf("missing job returned %d", code)
	}
	if code := getJSON(t, ts.URL+"/models/none", nil); code != http.StatusNotFound {
		t.Fatalf("missing model returned %d", code)
	}
	if code := postJSON(t, ts.URL+"/models/none/predict", map[string]any{"dsize_mb": 10}, nil); code != http.StatusNotFound {
		t.Fatalf("predict on missing model returned %d", code)
	}
	var jobs struct {
		Jobs []Job `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("list jobs returned %d", code)
	}
}
