package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTokenLimiterBurstRefillAndIsolation(t *testing.T) {
	l := newTokenLimiter(1) // 1 req/sec, burst 1
	t0 := time.Unix(1000, 0)
	allow := func(key string, at time.Duration) (bool, time.Duration) { return l.allow(key, t0.Add(at)) }
	if ok, _ := allow("alice", 0); !ok {
		t.Fatal("first request rejected")
	}
	if ok, wait := allow("alice", 0); ok || wait != time.Second {
		t.Fatalf("second immediate request: ok=%v wait=%v, want rejected with 1s wait", ok, wait)
	}
	if ok, _ := allow("bob", 0); !ok {
		t.Fatal("distinct token throttled by alice's bucket")
	}
	if ok, wait := allow("alice", 200*time.Millisecond); ok || wait != 800*time.Millisecond {
		t.Fatalf("before a full refill: ok=%v wait=%v, want rejected with 800ms wait", ok, wait)
	}
	if ok, _ := allow("alice", 1100*time.Millisecond); !ok {
		t.Fatal("rejected after refill")
	}
}

func TestTokenLimiterSweepsIdleBuckets(t *testing.T) {
	l := newTokenLimiter(5)
	t0 := time.Unix(1000, 0)
	for i := 0; i < limiterMaxBuckets; i++ {
		l.allow(string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune(i)), t0)
	}
	if len(l.buckets) < limiterMaxBuckets {
		t.Fatalf("expected %d buckets, have %d", limiterMaxBuckets, len(l.buckets))
	}
	// A new token two minutes later sweeps the idle map instead of
	// growing it without bound.
	l.allow("fresh", t0.Add(2*time.Minute))
	if len(l.buckets) != 1 {
		t.Fatalf("idle buckets not swept: %d remain", len(l.buckets))
	}
}

// TestServeRateLimit429 drives the HTTP path: with -rate-limit 1, the
// second immediate mutating request from the same bearer token must
// answer 429 with a Retry-After header and bump serve.auth.throttled,
// while a different token passes the limiter.
func TestServeRateLimit429(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewServerOpts(t.TempDir(), ServerOptions{Workers: 1, Obs: reg, RateLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	var retryAfter string
	post := func(token string) int {
		req, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		retryAfter = resp.Header.Get("Retry-After")
		return resp.StatusCode
	}

	// The empty spec is invalid (400) — what matters is whether the
	// limiter lets the request through to the handler at all.
	if code := post("alice"); code == http.StatusTooManyRequests {
		t.Fatalf("first request throttled: %d", code)
	}
	if code := post("alice"); code != http.StatusTooManyRequests {
		t.Fatalf("second immediate request = %d, want 429", code)
	}
	// At 1 req/sec the bucket refills within a second: Retry-After
	// rounds the wait up to whole seconds.
	if retryAfter != "1" {
		t.Fatalf("429 Retry-After = %q, want \"1\"", retryAfter)
	}
	if code := post("bob"); code == http.StatusTooManyRequests {
		t.Fatal("distinct token throttled")
	}
	if got := reg.Counter("serve.auth.throttled").Value(); got != 1 {
		t.Fatalf("serve.auth.throttled = %d, want 1", got)
	}
}

// TestServeNoRateLimitByDefault pins the historical behavior: without
// -rate-limit, back-to-back requests are never throttled.
func TestServeNoRateLimitByDefault(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, reg)
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatalf("request %d throttled with no rate limit configured", i)
		}
	}
}

func TestSearchersEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, reg)
	var out struct {
		Searchers []string `json:"searchers"`
		Default   string   `json:"default"`
	}
	if code := getJSON(t, ts.URL+"/searchers", &out); code != http.StatusOK {
		t.Fatalf("GET /searchers = %d", code)
	}
	if out.Default != "ga" {
		t.Errorf("default = %q, want ga", out.Default)
	}
	want := map[string]bool{"ga": false, "tpe": false, "random": false,
		"rrs": false, "pattern": false, "anneal": false}
	for _, n := range out.Searchers {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("searcher %q missing from /searchers", n)
		}
	}
}

func TestSubmitRejectsUnknownSearcher(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, reg)
	spec := tuneBudget
	spec.Searcher = "simplex"
	if code := postJSON(t, ts.URL+"/jobs", spec, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown searcher accepted: %d", code)
	}
}

// TestTuneJobWithTPESearcher runs a reduced-budget tune with
// "searcher":"tpe" end to end over HTTP — the daemon must resolve the
// name, search with the TPE, and finish with a legal result.
func TestTuneJobWithTPESearcher(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, reg)
	spec := tuneBudget
	spec.Searcher = "tpe"
	job := submitAndWait(t, ts.URL, spec, 2*time.Minute)
	if job.State != StateDone {
		t.Fatalf("tpe tune ended %q: %s", job.State, job.Error)
	}
	var res struct {
		PredictedSec float64 `json:"predicted_sec"`
	}
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.PredictedSec <= 0 {
		t.Fatalf("tpe tune predicted %v sec", res.PredictedSec)
	}
}
