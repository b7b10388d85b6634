package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backends"
	"repro/internal/conf"
	"repro/internal/model"
	"repro/internal/obs"
)

// spaceDataset builds a training set over the standard configuration
// space — rows are encoded configurations with a trailing datasize,
// exactly the vectors /predict assembles — so every backend trains at
// the dimensionality the serving path queries.
func spaceDataset(n int, seed int64) *model.Dataset {
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset(nil)
	for i := 0; i < n; i++ {
		x := append(space.Random(rng).Vector(), 100+900*rng.Float64())
		t := 20 + 3*x[0] + 0.5*x[1] + 0.02*x[len(x)-1]
		ds.Add(x, t*(1+0.05*rng.NormFloat64()))
	}
	return ds
}

// registerSpaceModel trains backend on a space-shaped dataset and
// registers it under name in the server's registry.
func registerSpaceModel(t *testing.T, s *Server, backend, name string, seed int64) {
	t.Helper()
	b, err := backends.Default().Lookup(backend)
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Train(spaceDataset(120, seed), model.TrainOpts{Seed: seed, Quick: true})
	if err != nil {
		t.Fatalf("%s: train: %v", backend, err)
	}
	if _, err := s.Manager().Models().Save(name, m, ModelMeta{Backend: backend}); err != nil {
		t.Fatal(err)
	}
}

type predictResponse struct {
	Model        string  `json:"model"`
	Version      int     `json:"version"`
	DsizeMB      float64 `json:"dsize_mb"`
	PredictedSec float64 `json:"predicted_sec"`
	Error        string  `json:"error"`
}

// TestPredictValidation is the error-path table for /predict: the
// ambiguous vector+config request (previously accepted with vector
// silently winning) and every other malformed shape map to 400 with a
// diagnostic, unknown models and versions to 404.
func TestPredictValidation(t *testing.T) {
	s, ts := newTestServer(t, obs.NewRegistry())
	registerSpaceModel(t, s, "hm", "m", 11)
	space := conf.StandardSpace()
	vec := space.Random(rand.New(rand.NewSource(1))).Vector()
	param := space.Names()[0]

	cases := []struct {
		name     string
		model    string
		body     any
		wantCode int
		wantErr  string
	}{
		{"ambiguous vector+config", "m",
			map[string]any{"vector": vec, "config": map[string]float64{param: vec[0]}, "dsize_mb": 100},
			http.StatusBadRequest, "ambiguous"},
		{"unknown parameter", "m",
			map[string]any{"config": map[string]float64{"spark.not.a.knob": 1}, "dsize_mb": 100},
			http.StatusBadRequest, "unknown parameter"},
		{"wrong vector length", "m",
			map[string]any{"vector": []float64{1, 2, 3}, "dsize_mb": 100},
			http.StatusBadRequest, ""},
		{"missing dsize", "m",
			map[string]any{"config": map[string]float64{param: vec[0]}},
			http.StatusBadRequest, "dsize_mb"},
		{"negative dsize", "m",
			map[string]any{"vector": vec, "dsize_mb": -5},
			http.StatusBadRequest, "dsize_mb"},
		{"unknown workload", "m",
			map[string]any{"workload": "ZZ"},
			http.StatusBadRequest, ""},
		{"unknown version", "m",
			map[string]any{"version": 99, "vector": vec, "dsize_mb": 100},
			http.StatusNotFound, "not found"},
		{"unknown model", "nope",
			map[string]any{"vector": vec, "dsize_mb": 100},
			http.StatusNotFound, "not found"},
		{"malformed body", "m", "{not json",
			http.StatusBadRequest, "decoding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := fmt.Sprintf("%s/models/%s/predict", ts.URL, tc.model)
			var resp predictResponse
			var code int
			if raw, ok := tc.body.(string); ok {
				r, err := http.Post(url, "application/json", strings.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				json.NewDecoder(r.Body).Decode(&resp)
				r.Body.Close()
				code = r.StatusCode
			} else {
				code = postJSON(t, url, tc.body, &resp)
			}
			if code != tc.wantCode {
				t.Fatalf("code %d, want %d (error %q)", code, tc.wantCode, resp.Error)
			}
			if tc.wantErr != "" && !strings.Contains(resp.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", resp.Error, tc.wantErr)
			}
		})
	}

	// The unambiguous forms still work, and the equivalent config- and
	// vector-form requests answer identically.
	var viaVec, viaCfg predictResponse
	if code := postJSON(t, ts.URL+"/models/m/predict",
		map[string]any{"vector": vec, "dsize_mb": 100}, &viaVec); code != http.StatusOK {
		t.Fatalf("vector predict returned %d: %s", code, viaVec.Error)
	}
	cfg := space.Default()
	for i, name := range space.Names() {
		cfg = cfg.Set(name, vec[i])
	}
	if code := postJSON(t, ts.URL+"/models/m/predict",
		map[string]any{"config": configMap(cfg), "dsize_mb": 100}, &viaCfg); code != http.StatusOK {
		t.Fatalf("config predict returned %d: %s", code, viaCfg.Error)
	}
	if viaVec.PredictedSec != viaCfg.PredictedSec {
		t.Fatalf("vector form predicts %v, config form %v — same configuration",
			viaVec.PredictedSec, viaCfg.PredictedSec)
	}
	if viaVec.Version != 1 || viaVec.Model != "m" {
		t.Fatalf("response identifies %s@v%d, want m@v1", viaVec.Model, viaVec.Version)
	}
}

// TestServeEquivalenceAllBackends is the byte-identity suite: for every
// backend in the default registry, the hot path — pinned model, memo,
// coalesced batches — answers exactly what a fresh registry Load plus a
// single Predict answers, for the same request set, sequentially and
// concurrently, at GOMAXPROCS 1 and 4.
func TestServeEquivalenceAllBackends(t *testing.T) {
	s, ts := newTestServer(t, obs.NewRegistry())
	names := backends.Default().Names()
	for i, backend := range names {
		registerSpaceModel(t, s, backend, "eq-"+backend, int64(20+i))
	}
	space := conf.StandardSpace()

	// The request set mixes vector- and config-form requests and repeats
	// half of them, so the memo and the coalescer both see action.
	type request struct {
		body map[string]any
		x    []float64 // the exact vector the server assembles
	}
	rng := rand.New(rand.NewSource(9))
	var reqs []request
	for i := 0; i < 10; i++ {
		cfg := space.Random(rng)
		dsize := 100 + 900*rng.Float64()
		if i%2 == 0 {
			reqs = append(reqs, request{
				body: map[string]any{"vector": cfg.Vector(), "dsize_mb": dsize},
				x:    append(cfg.Vector(), dsize),
			})
		} else {
			reqs = append(reqs, request{
				body: map[string]any{"config": configMap(cfg), "dsize_mb": dsize},
				x:    append(cfg.Vector(), dsize),
			})
		}
	}
	reqs = append(reqs, reqs[:5]...) // repeats: memo hits

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for _, backend := range names {
				name := "eq-" + backend
				// The cold reference: fresh decode, per-row Predict.
				ref, _, err := s.Manager().Models().Load(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, len(reqs))
				for i, rq := range reqs {
					want[i] = ref.Predict(rq.x)
				}

				url := fmt.Sprintf("%s/models/%s/predict", ts.URL, name)
				got := make([]float64, len(reqs))
				for i, rq := range reqs { // sequential pass
					var resp predictResponse
					if code := postJSON(t, url, rq.body, &resp); code != http.StatusOK {
						t.Fatalf("%s req %d: %d %s", backend, i, code, resp.Error)
					}
					got[i] = resp.PredictedSec
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s req %d sequential: hot %v, reference %v", backend, i, got[i], want[i])
					}
				}

				var wg sync.WaitGroup // concurrent pass: coalesced batches
				errs := make(chan error, len(reqs))
				for i, rq := range reqs {
					wg.Add(1)
					go func(i int, rq request) {
						defer wg.Done()
						var resp predictResponse
						if code := postJSON(t, url, rq.body, &resp); code != http.StatusOK {
							errs <- fmt.Errorf("%s req %d: %d %s", backend, i, code, resp.Error)
							return
						}
						if resp.PredictedSec != want[i] {
							errs <- fmt.Errorf("%s req %d concurrent: hot %v, reference %v",
								backend, i, resp.PredictedSec, want[i])
						}
					}(i, rq)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestPredictConcurrentRegistryUpdates hammers /predict from 8
// goroutines while a collect job and a chain of train jobs register new
// versions of the same model underneath them. It asserts no request
// fails, every response's (version, prediction) pair matches a fresh
// decode of that exact version (no torn reads), version-0 responses are
// monotonic per client, and the final version-0 answer is the last
// registered version.
func TestPredictConcurrentRegistryUpdates(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, reg)
	registerSpaceModel(t, s, "hm", "m", 41)

	space := conf.StandardSpace()
	probe := space.Random(rand.New(rand.NewSource(3))).Vector()
	probeX := append(append([]float64(nil), probe...), 512.0)

	const hammerers = 8
	const trains = 3
	type observation struct {
		version int
		pred    float64
	}
	var (
		wg       sync.WaitGroup
		done     = make(chan struct{})
		failures = make(chan error, hammerers)
		obsMu    sync.Mutex
		seen     = map[observation]bool{}
	)
	url := ts.URL + "/models/m/predict"
	for i := 0; i < hammerers; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			// Half the clients follow the latest (version 0), half pin v1.
			reqVersion := 0
			if client%2 == 1 {
				reqVersion = 1
			}
			body, _ := json.Marshal(map[string]any{
				"vector": probe, "dsize_mb": 512, "version": reqVersion,
			})
			lastVersion := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
				if err != nil {
					failures <- fmt.Errorf("client %d: %v", client, err)
					return
				}
				var pr predictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					failures <- fmt.Errorf("client %d: code %d err %v body %+v", client, resp.StatusCode, err, pr)
					return
				}
				if reqVersion == 1 && pr.Version != 1 {
					failures <- fmt.Errorf("client %d: pinned v1, got v%d", client, pr.Version)
					return
				}
				if pr.Version < lastVersion {
					failures <- fmt.Errorf("client %d: version went backwards, v%d after v%d",
						client, pr.Version, lastVersion)
					return
				}
				lastVersion = pr.Version
				obsMu.Lock()
				seen[observation{pr.Version, pr.PredictedSec}] = true
				obsMu.Unlock()
			}
		}(i)
	}

	// Meanwhile: collect once, then train new versions of "m" from the
	// collected CSV, each registering through the Save→Refresh hook the
	// hammerers are racing against.
	cj := submitAndWait(t, ts.URL, JobSpec{Type: JobCollect, Workload: "TS", NTrain: 40, Seed: 13}, 2*time.Minute)
	if cj.State != StateDone {
		t.Fatalf("collect finished %s: %s", cj.State, cj.Error)
	}
	for i := 0; i < trains; i++ {
		tj := submitAndWait(t, ts.URL, JobSpec{
			Type: JobTrain, FromJob: cj.ID, Model: "m", Seed: int64(50 + i), HMTrees: 20,
		}, 2*time.Minute)
		if tj.State != StateDone {
			t.Fatalf("train %d finished %s: %s", i, tj.State, tj.Error)
		}
	}
	close(done)
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Fatal(err)
	}

	// Every observed (version, prediction) pair must match a fresh
	// decode of that version — a torn or half-swapped model would have
	// produced a value no registered version produces.
	finalVersion := 1 + trains
	refs := map[int]float64{}
	for v := 1; v <= finalVersion; v++ {
		m, _, err := s.Manager().Models().Load("m", v)
		if err != nil {
			t.Fatalf("version %d should exist: %v", v, err)
		}
		refs[v] = m.Predict(probeX)
	}
	if len(seen) == 0 {
		t.Fatal("hammerers recorded no observations")
	}
	for ob := range seen {
		want, ok := refs[ob.version]
		if !ok {
			t.Fatalf("response carried version %d, which never existed", ob.version)
		}
		if ob.pred != want {
			t.Fatalf("torn read: v%d served %v, fresh decode predicts %v", ob.version, ob.pred, want)
		}
	}

	// The Save hook runs before the train job reports done, so by now
	// version 0 must resolve the last registered version.
	var final predictResponse
	if code := postJSON(t, url, map[string]any{"vector": probe, "dsize_mb": 512}, &final); code != http.StatusOK {
		t.Fatalf("final predict returned %d: %s", code, final.Error)
	}
	if final.Version != finalVersion {
		t.Fatalf("final version-0 predict resolved v%d, want v%d", final.Version, finalVersion)
	}
	if reg.Counter("serve.modelcache.hits").Value() == 0 {
		t.Fatal("hammer traffic never hit the hot cache")
	}
	if pc, lc := reg.Counter("serve.predicts").Value(),
		reg.Histogram("serve.predict.latency", nil).Count(); pc != lc {
		t.Fatalf("latency histogram recorded %d samples for %d predicts", lc, pc)
	}
}
