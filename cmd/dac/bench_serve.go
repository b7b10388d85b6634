package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/conf"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveSideReport is the load a benchmark drove against one daemon:
// aggregate client-side numbers plus the daemon's own cache and
// coalescing counters.
type serveSideReport struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	QPS      float64 `json:"qps"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
	MaxUs    float64 `json:"max_us"`

	CacheHits int64   `json:"cache_hits"`
	CacheMiss int64   `json:"cache_misses"`
	MemoHits  int64   `json:"memo_hits"`
	MemoMiss  int64   `json:"memo_misses"`
	Batches   int64   `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  float64 `json:"max_batch"`
	HitRate   float64 `json:"cache_hit_rate"`
	MemoRate  float64 `json:"memo_hit_rate"`
}

// serveBenchReport is the BENCH_serve.json schema: a fixed load driven
// from concurrent HTTP clients against the serving path (pinned models,
// memo, coalesced batches).
type serveBenchReport struct {
	benchEnv
	Quick       bool    `json:"quick"`
	Clients     int     `json:"clients"`
	DurationSec float64 `json:"duration_sec"`
	VectorPool  int     `json:"vector_pool"`
	ModelTrees  int     `json:"model_trees"`

	Hot serveSideReport `json:"hot"`
}

// quantileUs picks the q-quantile (nearest-rank) from sorted seconds,
// in microseconds.
func quantileUs(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i] * 1e6
}

// driveServe hammers url with clients concurrent posters for duration,
// each drawing round-robin from its own offset into the request pool
// (so the pool repeats and the memo sees hits), and aggregates
// client-side latencies.
func driveServe(url string, bodies [][]byte, clients int, duration time.Duration) (serveSideReport, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats []float64
		rep  serveSideReport
	)
	deadline := time.Now().Add(duration)
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []float64
			var errs int64
			for i := c; time.Now().Before(deadline); i++ {
				body := bodies[i%len(bodies)]
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				var out struct {
					PredictedSec float64 `json:"predicted_sec"`
					Error        string  `json:"error"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs++
					continue
				}
				mine = append(mine, time.Since(t0).Seconds())
			}
			mu.Lock()
			lats = append(lats, mine...)
			rep.Errors += errs
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return rep, err
	}
	sort.Float64s(lats)
	rep.Requests = int64(len(lats))
	rep.QPS = float64(len(lats)) / duration.Seconds()
	rep.P50Us = quantileUs(lats, 0.50)
	rep.P99Us = quantileUs(lats, 0.99)
	rep.MaxUs = quantileUs(lats, 1)
	return rep, nil
}

// benchServe drives the serving path: one daemon with default serving
// options, one registered model, a fixed request pool and client count.
// Results land on stdout and optionally in BENCH_serve.json.
func benchServe(jsonPath string, quick bool, clients, vectors int, duration time.Duration, backendName string) error {
	modelTrees, modelWindow := 3600, 4000
	if quick {
		modelTrees, modelWindow = 240, 600
	}
	rep := serveBenchReport{
		benchEnv:    currentBenchEnv(),
		Quick:       quick,
		Clients:     clients,
		DurationSec: duration.Seconds(),
		VectorPool:  vectors,
		ModelTrees:  modelTrees,
	}
	fmt.Printf("GOMAXPROCS=%d numcpu=%d %s quick=%v clients=%d duration=%s model=%s\n",
		rep.GOMAXPROCS, rep.NumCPU, rep.GoVersion, quick, clients, duration, backendName)

	m, err := benchSpaceModel(backendName, modelTrees, modelWindow, quick)
	if err != nil {
		return err
	}

	// The request pool: -serve-vectors distinct configurations, so a few
	// seconds of load revisits each vector many times (memo hits) while
	// still exercising misses on the first pass.
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(7))
	bodies := make([][]byte, vectors)
	for i := range bodies {
		b, err := json.Marshal(map[string]any{
			"vector":   space.Random(rng).Vector(),
			"dsize_mb": 128 + 4096*rng.Float64(),
		})
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	dir, err := os.MkdirTemp("", "dac-bench-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	s, err := serve.NewServerOpts(dir, serve.ServerOptions{Workers: 1, Obs: reg})
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.Manager().Models().Save("bench", m, serve.ModelMeta{Backend: backendName}); err != nil {
		return err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hot, err := driveServe(ts.URL+"/models/bench/predict", bodies, clients, duration)
	if err != nil {
		return err
	}
	hot.CacheHits = reg.Counter("serve.modelcache.hits").Value()
	hot.CacheMiss = reg.Counter("serve.modelcache.misses").Value()
	hot.MemoHits = reg.Counter("serve.predict.memo.hits").Value()
	hot.MemoMiss = reg.Counter("serve.predict.memo.misses").Value()
	hot.Batches = reg.Counter("serve.predict.batches").Value()
	bs := reg.Histogram("serve.predict.batch_size", nil)
	hot.MeanBatch = bs.Mean()
	hot.MaxBatch = bs.Max()
	if total := hot.CacheHits + hot.CacheMiss; total > 0 {
		hot.HitRate = float64(hot.CacheHits) / float64(total)
	}
	if total := hot.MemoHits + hot.MemoMiss; total > 0 {
		hot.MemoRate = float64(hot.MemoHits) / float64(total)
	}
	fmt.Printf("hot       %8d req  %10.0f qps   p50 %8.1fµs   p99 %8.1fµs   errors %d\n",
		hot.Requests, hot.QPS, hot.P50Us, hot.P99Us, hot.Errors)
	fmt.Printf("          cache hit rate %.4f   memo hit rate %.4f   %d batches (mean %.1f, max %.0f rows)\n",
		hot.HitRate, hot.MemoRate, hot.Batches, hot.MeanBatch, hot.MaxBatch)
	rep.Hot = hot

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
	return nil
}
