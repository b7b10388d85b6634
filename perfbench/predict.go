package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/conf"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/workloads"
)

const (
	// predictClients is the closed loop's client count: one per CPU of
	// the 2-core reference box, so the coalescer sees concurrency 2.
	predictClients = 2
	// hotVectors is the pool the hot 80% of requests re-send.
	hotVectors = 64
	// predictTailPct is predict_serve's tail percentile: the middle of the
	// fresh fifth of requests, so it follows the miss path (coalescer,
	// PredictBatch). p99 falls among the requests a stolen vCPU stalls for
	// milliseconds, and on the shared two-core host it spread by a third
	// across ten seeds. A run answers over a hundred thousand requests,
	// thousands of them beyond p90.
	predictTailPct = 90
	// traceBlock is how long a traced run sends to one daemon before
	// switching to the other.
	traceBlock = 250 * time.Millisecond
	// servedModel is the registry name the benchmark serves.
	servedModel = "bench"
	// servedWorkload is the program whose tune builds the served model.
	// Bayes' tuned quality and collecting cost vary least from seed to
	// seed of the six (a single TS tune's speedup spreads ~15% across
	// seeds, Bayes' ~3%), which keeps this workload's
	// tuned_speedup_gmean and collect_cluster_h steady.
	servedWorkload = "BA"
)

// predictBody is one POST /models/{name}/predict request.
type predictBody struct {
	Vector  []float64 `json:"vector"`
	DsizeMB float64   `json:"dsize_mb"`
}

// rowBody encodes a model row (configuration followed by dsize) as a
// predict request.
func rowBody(row []float64) ([]byte, error) {
	d := len(row) - 1
	return json.Marshal(predictBody{Vector: row[:d], DsizeMB: row[d]})
}

// predictGen yields one client's fixed request sequence: of every ten
// requests, eight re-send a hot vector (memo hits once warm) and two send
// a never-seen vector (memo miss, coalescer, PredictBatch). The sequence
// is a function of the seed alone, so it can be replayed after the window
// to check the answers without holding every fresh vector meanwhile.
type predictGen struct {
	rng    *rand.Rand
	space  *conf.Space
	lo, hi float64 // dsize range, MB
	k      int
}

func newPredictGen(seed int64, space *conf.Space, lo, hi float64) *predictGen {
	return &predictGen{rng: rand.New(rand.NewSource(seed)), space: space, lo: lo, hi: hi}
}

// next returns the index of the hot vector the next request re-sends, or
// -1 and the fresh vector's model row.
func (g *predictGen) next() (hot int, row []float64) {
	k := g.k
	g.k++
	if k%10 < 8 {
		return g.rng.Intn(hotVectors), nil
	}
	return -1, g.freshRow()
}

// freshRow draws a random configuration and dsize.
func (g *predictGen) freshRow() []float64 {
	return append(g.space.Random(g.rng).Vector(), g.lo+g.rng.Float64()*(g.hi-g.lo))
}

// sample is one answered request.
type sample struct {
	latency time.Duration
	traced  bool
}

// clientResult is one client goroutine's share of the window.
type clientResult struct {
	samples []sample
	// fresh holds the answer to each fresh request in sequence order, NaN
	// where the request failed.
	fresh     []float64
	attempted int
	failed    int
	problems  []string
}

// predictOnce posts body and returns the predicted time.
func predictOnce(c *http.Client, url string, body []byte) (float64, error) {
	var out struct {
		PredictedSec float64 `json:"predicted_sec"`
	}
	err := doJSON(c, http.MethodPost, url, body, &out)
	return out.PredictedSec, err
}

// runPredictServe is the predict_serve workload: a closed loop of two HTTP
// clients posting predicts against one paper-budget HM model, built by a
// Bayes tune and registered with a daemon over an empty data directory.
// Every answer is checked bit for bit against the registered model's own
// Predict. In a traced run a second, traced daemon serves the same model
// and the clients switch daemons every traceBlock.
//
// The served model is the same at every --seed: a fresh predict walks
// every tree, and the tree count of a Bayes model varies about twofold
// from seed to seed. The seed drives the requests (the hot pool and each
// client's sequence) and the quality tune: an untimed Bayes tune at a seed
// derived from --seed, run after the window, over which
// tuned_speedup_gmean and collect_cluster_h are computed.
func runPredictServe(cfg runConfig) (*report, error) {
	rep := newReport()
	space := conf.StandardSpace()
	w, err := workloads.ByAbbr(servedWorkload)
	if err != nil {
		return nil, err
	}
	sizes := w.SizesMB()
	lo, hi := sizes[0]*0.8, sizes[len(sizes)-1]*1.1
	client := newClient(predictClients)

	// The hot pool derives from the seed alone.
	hotGen := newPredictGen(deriveSeed(cfg.seed, "predict_serve/hot", 0), space, lo, hi)
	hotRows := make([][]float64, hotVectors)
	hotBodies := make([][]byte, hotVectors)
	for i := range hotRows {
		hotRows[i] = hotGen.freshRow()
		if hotBodies[i], err = rowBody(hotRows[i]); err != nil {
			return nil, err
		}
	}

	// Set-up, repeated: start the daemon(s) over fresh directories,
	// register the served model, and warm every hot vector and a hundred
	// fresh ones through each daemon. The first repetition also builds the
	// model: a paper-budget tune of the served program, which is
	// tune_paper's to measure, so the median repetition is the daemon's own
	// set-up.
	modelSeed := deriveSeed(fixedSeed, "predict_serve/model", 0)
	var (
		daemons []*daemon
		setups  []float64
		tuned   tuneOutcome
		ref     model.Model
		hotRef  = make([]float64, hotVectors)
	)
	defer func() { stopAll(daemons) }() // results are in; a failed stop changes none
	for k := 0; k < setupReps; k++ {
		err := stopAll(daemons)
		daemons = nil
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if k == 0 {
			start = processStart
			if tuned, err = paperTune(space, w, modelSeed, nil); err != nil {
				return nil, fmt.Errorf("building the served model: %w", err)
			}
		}
		if daemons, err = startDaemons(cfg); err != nil {
			return nil, err
		}
		for _, d := range daemons {
			models := d.srv.Manager().Models()
			if _, err := models.Save(servedModel, tuned.mdl, serve.ModelMeta{Backend: "hm", Workload: w.Abbr, Seed: modelSeed}); err != nil {
				return nil, err
			}
			if ref == nil {
				// The reference is the registered snapshot as the registry
				// decodes it — the model the daemon pins and serves.
				if ref, _, err = models.Load(servedModel, 0); err != nil {
					return nil, err
				}
				for j, row := range hotRows {
					hotRef[j] = ref.Predict(row)
				}
			}
			url := d.url + "/models/" + servedModel + "/predict"
			warm := newPredictGen(deriveSeed(fixedSeed, "predict_serve/warmup", k), space, lo, hi)
			for j := 0; j < hotVectors+100; j++ {
				body := hotBodies[j%hotVectors]
				if j >= hotVectors {
					if body, err = rowBody(warm.freshRow()); err != nil {
						return nil, err
					}
				}
				if _, err := predictOnce(client, url, body); err != nil {
					return nil, fmt.Errorf("warm-up predict: %w", err)
				}
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.note("setup: %d repetitions of daemon start over an empty data directory + model registration + warm-up predicts, durations %.3f s (the first counted from process start and building the model: a paper-budget %s tune at seed %d, config digest %s)",
		setupReps, setups, w.Abbr, modelSeed, digest(tuned.best))
	tuned = tuneOutcome{} // the registry holds the served model now

	// Measured window.
	urls := make([]string, len(daemons))
	for i, d := range daemons {
		urls[i] = d.url + "/models/" + servedModel + "/predict"
	}
	clientSeed := func(c int) int64 { return deriveSeed(cfg.seed, "predict_serve/client", c) }
	results := make([]clientResult, predictClients)
	var wg sync.WaitGroup
	cpu0 := readUsage().cpu
	winStart := time.Now()
	deadline := winStart.Add(cfg.seconds)
	for c := 0; c < predictClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			gen := newPredictGen(clientSeed(c), space, lo, hi)
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				which := int(now.Sub(winStart)/traceBlock) % len(urls)
				hot, row := gen.next()
				var body []byte
				if hot >= 0 {
					body = hotBodies[hot]
				} else {
					var err error
					if body, err = rowBody(row); err != nil {
						res.problems = append(res.problems, err.Error())
						return
					}
				}
				res.attempted++
				t0 := time.Now()
				pred, err := predictOnce(client, urls[which], body)
				lat := time.Since(t0)
				if err != nil {
					res.failed++
					res.problems = append(res.problems, fmt.Sprintf("client %d: %v", c, err))
					if hot < 0 {
						res.fresh = append(res.fresh, math.NaN())
					}
					continue
				}
				if hot < 0 {
					res.fresh = append(res.fresh, pred)
				} else if want := hotRef[hot]; math.Float64bits(pred) != math.Float64bits(want) {
					res.failed++
					res.problems = append(res.problems, fmt.Sprintf("client %d: hot predict %v, model says %v", c, pred, want))
					continue
				}
				res.samples = append(res.samples, sample{latency: lat, traced: daemons[which].reg != nil})
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(winStart)
	cpu := readUsage().cpu - cpu0

	// Fresh answers: replay each client's sequence and compare bit for bit
	// with the reference model's per-row Predict. A wrong answer counts as
	// a failed op. A traced run keeps the rows to time PredictBatch on.
	var freshRows [][]float64
	for c, res := range results {
		gen := newPredictGen(clientSeed(c), space, lo, hi)
		f := 0
		for k := 0; k < res.attempted; k++ {
			if hot, row := gen.next(); hot < 0 {
				got := res.fresh[f]
				f++
				if math.IsNaN(got) {
					continue // the request failed and is counted already
				}
				if want := ref.Predict(row); math.Float64bits(got) != math.Float64bits(want) {
					rep.failed++
					rep.problem("client %d: fresh predict %v, model says %v", c, got, want)
				}
				if cfg.trace {
					freshRows = append(freshRows, row)
				}
			}
		}
	}

	var lat, tracedLat, plainLat []float64
	var fresh int
	for _, res := range results {
		rep.attempted += res.attempted
		rep.failed += res.failed
		rep.problems = append(rep.problems, res.problems...)
		fresh += len(res.fresh)
		for _, s := range res.samples {
			ms := s.latency.Seconds() * 1000
			lat = append(lat, ms)
			if s.traced {
				tracedLat = append(tracedLat, ms)
			} else {
				plainLat = append(plainLat, ms)
			}
		}
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	tail, err := tailPercentile(sorted, predictTailPct)
	if err != nil {
		return nil, err
	}
	ops := len(lat)
	rep.e2e["ops_per_s"] = float64(ops) / window.Seconds()
	rep.e2e["op_ms_p50"] = median(lat)
	rep.e2e["op_ms_tail"] = tail
	rep.e2e["cpu_ms_per_op"] = cpu.Seconds() * 1000 / float64(ops)
	rep.note("measured: %d predicts (%d fresh) from %d clients over %.3f s; op_ms_tail is p%d of %d samples",
		ops, fresh, predictClients, window.Seconds(), predictTailPct, ops)

	// Quality: the seed's own tune of the served program, untimed.
	qSeed := deriveSeed(cfg.seed, "predict_serve/quality", 0)
	rep.attempted++
	quality, err := paperTune(space, w, qSeed, nil)
	if err != nil {
		return nil, fmt.Errorf("quality tune: %w", err)
	}
	sp, err := speedups(space, w, sizes, quality.best)
	if err != nil {
		return nil, err
	}
	if rep.e2e["tuned_speedup_gmean"], err = geoMean(sp); err != nil {
		return nil, err
	}
	rep.e2e["collect_cluster_h"] = quality.clusterH
	rep.note("fixed op set: a %s tune at seed %d, %d sizes, config digest %s; speedups on held-out simulator seed %d",
		w.Abbr, qSeed, len(sp), digest(quality.best), evalSimSeed)

	// Drift: one client's sequence is in time order.
	seq := results[0].samples
	q := len(seq) / 4
	rep.layer["op_ms_first_quarter"] = median(latencyMs(seq[:q]))
	rep.layer["op_ms_last_quarter"] = median(latencyMs(seq[len(seq)-q:]))
	rep.note("drift: client 0 median latency over its first quarter %.4f ms, last quarter %.4f ms (%d requests each)",
		rep.layer["op_ms_first_quarter"], rep.layer["op_ms_last_quarter"], q)

	if cfg.trace {
		snap := daemons[0].reg.Snapshot()
		h := snap.Histograms["serve.predict.latency"]
		predicts := float64(snap.Counters["serve.predicts"])
		hits := float64(snap.Counters["serve.predict.memo.hits"])
		rep.layer["serve.predict.server_us_p50"] = h.P50 * 1e6
		rep.layer["serve.predict.server_us_p99"] = h.P99 * 1e6
		rep.layer["http.transport_us"] = mean(tracedLat)*1000 - h.Mean*1e6
		rep.layer["serve.predict.memo_hit_ratio"] = ratio(hits, predicts)
		rep.layer["serve.modelcache.misses"] = float64(snap.Counters["serve.modelcache.misses"])
		rep.layer["serve.predict.batch_size_mean"] = snap.Histograms["serve.predict.batch_size"].Mean

		out := make([]float64, len(freshRows))
		t0 := time.Now()
		model.PredictBatch(ref, freshRows, out)
		rep.layer["model.predict_batch_us_per_row"] = ratio(time.Since(t0).Seconds()*1e6, float64(len(freshRows)))
		rep.layer["obs.overhead_pct"] = 100 * (mean(tracedLat)/mean(plainLat) - 1)
		rep.note("ratio bases: memo_hit_ratio = %.0f memo hits / %.0f predicts on the traced daemon (incl. warm-up); server_us from the daemon's bucketed latency histogram; predict_batch over %d fresh rows",
			hits, predicts, len(freshRows))
		rep.note("tracing: %d predicts on the traced daemon, %d on the untraced one, switching every %s", len(tracedLat), len(plainLat), traceBlock)
		rep.note("span self times (traced daemon):\n%s", renderSpans(flattenSpans(snap.Spans)))
	}
	return rep, nil
}

// latencyMs converts samples to milliseconds.
func latencyMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latency.Seconds() * 1000
	}
	return out
}
