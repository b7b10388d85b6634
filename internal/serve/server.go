// Package serve implements dacd, the long-lived tuning service: an HTTP
// JSON API over the core pipeline with durable, resumable jobs and a
// versioned model registry. Collect sweeps stream their rows to an
// append-only on-disk journal as they complete, so a daemon killed
// mid-sweep and restarted against the same data directory resumes where
// it left off — completed rows are never re-executed, and the finished
// training set is byte-identical to an uninterrupted run (the core
// collector's determinism contract). Finished models land in the
// registry, where later jobs can warm-start them via hm.Resume. With the
// fleet coordinator enabled (DESIGN.md §15), collect sweeps shard across
// registered workers and merge into the same journal.
package serve

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/conf"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/workloads"
)

// Server is the dacd HTTP front end: a JSON API over a Manager and its
// model registry.
//
//	POST /jobs                      submit a JobSpec        → {"id": N, "deduped": bool}
//	GET  /jobs                      list jobs
//	GET  /jobs/{id}                 one job (state, progress, result)
//	POST /jobs/{id}/cancel          cancel a queued/running job
//	GET  /models                    latest version of every model
//	GET  /models/{name}             every version's metadata
//	POST /models/{name}/predict     predict a config's time  → {"predicted_sec": s}
//	GET  /backends                  model backends + capabilities
//	GET  /searchers                 registered searcher names
//	GET  /metrics                   obs registry as JSON
//	GET  /healthz                   liveness
type Server struct {
	manager *Manager
	obs     *obs.Registry
	mux     *http.ServeMux
	// cache is the hot serving path (hotcache.go) every predict
	// resolves its model through.
	cache *ModelCache
	space *conf.Space
	// fleet is the sweep coordinator (nil without FleetOptions.Enabled);
	// its /workers routes mount on mux and collect jobs dispatch through
	// it when workers are live.
	fleet *fleet.Coordinator
	// authToken, when non-empty, gates every mutating endpoint behind a
	// constant-time Bearer-token check.
	authToken string
	// limiter, when non-nil, throttles mutating requests per bearer
	// token (ratelimit.go); breaches answer 429.
	limiter *tokenLimiter

	predicts       *obs.Counter
	predictLatency *obs.Histogram
	authDenied     *obs.Counter
	authThrottled  *obs.Counter
}

// ServerOptions configure NewServerOpts beyond the data directory.
type ServerOptions struct {
	// Workers bounds concurrent jobs (min 1).
	Workers int
	// Obs receives the daemon's metrics; nil runs without metrics.
	Obs *obs.Registry
	// Serving tunes the hot predict path (hotcache.go).
	Serving ServingOptions
	// Fleet enables and tunes the sweep coordinator (DESIGN.md §15).
	Fleet FleetOptions
	// AuthToken, when non-empty, is the shared secret required (as
	// "Authorization: Bearer <token>") on every mutating endpoint: job
	// submission, cancellation, and the fleet worker protocol. Reads
	// (job status, models, metrics, health) stay open.
	AuthToken string
	// GCKeepVersions, when > 0, prunes each model to its newest N
	// versions — on startup and after every registration.
	GCKeepVersions int
	// RateLimit, when > 0, caps mutating requests per second per bearer
	// token (burst = max(RateLimit, 1)); requests past the cap answer
	// HTTP 429 and count on "serve.auth.throttled". Zero runs
	// unthrottled.
	RateLimit float64
}

// FleetOptions configure the daemon's sweep coordinator.
type FleetOptions struct {
	// Enabled mounts the /workers protocol and routes collect sweeps
	// through the coordinator whenever it has live workers.
	Enabled bool
	// LeaseTTL and ChunkRows tune the lease state machine; zero takes
	// the fleet defaults (10s, 64 rows).
	LeaseTTL  time.Duration
	ChunkRows int
}

// NewServerOpts opens dataDir (creating the layout if needed), adopts
// persisted jobs, wires the fleet coordinator, registry GC and the hot
// model cache, and only then starts the worker pool, so an adopted job
// never runs against a half-wired daemon. opt.Obs may be nil to run
// without metrics; /metrics then reports an empty registry.
func NewServerOpts(dataDir string, opt ServerOptions) (*Server, error) {
	mgr, err := newManager(dataDir, opt.Obs)
	if err != nil {
		return nil, err
	}
	reg := opt.Obs
	s := &Server{
		manager:        mgr,
		obs:            reg,
		mux:            http.NewServeMux(),
		space:          conf.StandardSpace(),
		authToken:      opt.AuthToken,
		predicts:       reg.Counter("serve.predicts"),
		predictLatency: reg.Histogram("serve.predict.latency", obs.DefaultLatencyBounds),
		authDenied:     reg.Counter("serve.auth.denied"),
		authThrottled:  reg.Counter("serve.auth.throttled"),
	}
	if opt.RateLimit > 0 {
		s.limiter = newTokenLimiter(opt.RateLimit)
	}
	if opt.GCKeepVersions > 0 {
		if err := mgr.Models().EnableGC(opt.GCKeepVersions, reg.Counter("serve.registry.gc.pruned")); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("serve: registry gc: %w", err)
		}
	}
	if opt.Fleet.Enabled {
		s.fleet = fleet.NewCoordinator(fleet.Options{
			LeaseTTL:  opt.Fleet.LeaseTTL,
			ChunkRows: opt.Fleet.ChunkRows,
			Obs:       reg,
		})
		mgr.fleet = s.fleet
		s.fleet.Routes(s.mux, s.requireAuth)
	}
	s.cache = NewModelCache(mgr.Models(), opt.Serving, reg)
	// Every registration reaches the hot cache as one event: versions GC
	// pruned leave it and the new version swaps in, so version-0
	// predicts follow retrains immediately.
	mgr.Models().SetOnSave(s.cache.Refresh)
	mgr.start(opt.Workers)
	// Warm every registry latest now, instead of faulting decodes on the
	// first predicts after a restart.
	s.cache.WarmAll()
	s.mux.Handle("POST /jobs", s.requireAuth(http.HandlerFunc(s.handleSubmit)))
	s.mux.HandleFunc("GET /jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	s.mux.Handle("POST /jobs/{id}/cancel", s.requireAuth(http.HandlerFunc(s.handleCancel)))
	s.mux.HandleFunc("GET /models", s.handleListModels)
	s.mux.HandleFunc("GET /models/{name}", s.handleGetModel)
	s.mux.HandleFunc("POST /models/{name}/predict", s.handlePredict)
	s.mux.HandleFunc("GET /backends", s.handleBackends)
	s.mux.HandleFunc("GET /searchers", s.handleSearchers)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Manager exposes the job manager (tests and the CLI use it directly).
func (s *Server) Manager() *Manager { return s.manager }

// Fleet exposes the sweep coordinator (nil unless FleetOptions.Enabled).
func (s *Server) Fleet() *fleet.Coordinator { return s.fleet }

// requireAuth wraps a mutating handler with the per-token rate limit
// and the shared-secret check, in that order: the limiter keys on the
// raw Bearer token as sent, so it throttles bad-token floods before
// they reach the auth compare. A daemon started without -auth-token
// runs open (the historical behavior); with one, requests must carry it
// as a Bearer token. The comparison is constant-time so the token can't
// be guessed byte-by-byte through response timing.
func (s *Server) requireAuth(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tok, _ := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if s.limiter != nil {
			if ok, wait := s.limiter.allow(tok, time.Now()); !ok {
				s.authThrottled.Inc()
				// Whole seconds, rounded up: a client retrying after the
				// header's delay always finds a slot.
				w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(wait.Seconds())))))
				writeError(w, http.StatusTooManyRequests, fmt.Errorf("rate limit exceeded for this token"))
				return
			}
		}
		if s.authToken != "" {
			if subtle.ConstantTimeCompare([]byte(tok), []byte(s.authToken)) != 1 {
				s.authDenied.Inc()
				writeError(w, http.StatusUnauthorized, fmt.Errorf("missing or invalid auth token"))
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// Cache exposes the hot-model cache.
func (s *Server) Cache() *ModelCache { return s.cache }

// Close shuts the worker pool down; see Manager.Close for durability.
func (s *Server) Close() { s.manager.Close() }

// Handler returns the HTTP handler with request metrics wrapped around
// the route table.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := s.obs.StartSpan("serve.http")
		defer sp.End()
		s.obs.Counter("serve.http.requests").Inc()
		s.mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	id, deduped, err := s.manager.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "deduped": deduped})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.manager.List()})
}

func jobID(r *http.Request) (int64, error) {
	return strconv.ParseInt(r.PathValue("id"), 10, 64)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id"))
		return
	}
	j, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %d not found", id))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id"))
		return
	}
	if err := s.manager.Cancel(id); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelling": true})
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	list, err := s.manager.Models().List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": list})
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	versions, err := s.manager.Models().Versions(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(versions) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("model %q not found", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "versions": versions})
}

// predictRequest asks a registered model for a prediction. The
// configuration starts from the space default; Config overrides
// individual parameters by name. Vector gives the full encoded
// configuration instead — a request carrying both is ambiguous and
// rejected. The datasize is given in MB, or in the workload's units when
// Workload is set.
type predictRequest struct {
	Version   int                `json:"version,omitempty"` // 0 = latest
	DsizeMB   float64            `json:"dsize_mb,omitempty"`
	Workload  string             `json:"workload,omitempty"`
	SizeUnits float64            `json:"size,omitempty"`
	Config    map[string]float64 `json:"config,omitempty"`
	Vector    []float64          `json:"vector,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	name := r.PathValue("name")
	var req predictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding predict request: %w", err))
		return
	}
	if req.Vector != nil && len(req.Config) > 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("ambiguous request: give either vector or config, not both"))
		return
	}
	// Resolve the model first: an unknown model or version is 404
	// regardless of what else is wrong with the request. The pinned
	// cache answers with one atomic load on a hit.
	hot, err := s.cache.Entry(name, req.Version)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	meta := hot.Meta()
	var cfg conf.Config
	if req.Vector != nil {
		cfg, err = s.space.FromVector(req.Vector)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		cfg = s.space.Default()
		for k, v := range req.Config {
			if _, ok := s.space.Index(k); !ok {
				writeError(w, http.StatusBadRequest, fmt.Errorf("unknown parameter %q", k))
				return
			}
			cfg = cfg.Set(k, v)
		}
	}
	dsize := req.DsizeMB
	if req.Workload != "" {
		wl, err := workloads.ByAbbr(strings.ToUpper(req.Workload))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		dsize = wl.TargetMB(req.SizeUnits)
	}
	if dsize <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("need dsize_mb or workload+size"))
		return
	}
	x := append(cfg.Vector(), dsize)
	pred := hot.Predict(x)
	s.predicts.Inc()
	s.predictLatency.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, map[string]any{
		"model":         meta.Name,
		"version":       meta.Version,
		"dsize_mb":      dsize,
		"predicted_sec": pred,
	})
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	reg := s.manager.Models().Backends()
	out := make([]map[string]any, 0, len(reg.Names()))
	for _, name := range reg.Names() {
		b, err := reg.Lookup(name)
		if err != nil {
			continue
		}
		out = append(out, map[string]any{
			"name":         name,
			"capabilities": model.CapabilitiesOf(b),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"backends": out})
}

func (s *Server) handleSearchers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"searchers": search.Default().Names(),
		"default":   "ga",
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	w.Header().Set("Content-Type", "application/json")
	reg.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}
