package model

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// This file is the pluggable model-backend contract: one named entry per
// modeling technique (hm, rf, rs, ann, svm) exposing training and
// persistence through a uniform surface, with warm-start as the one
// optional capability, discovered by interface assertion. The paper
// compares the five techniques once (§4.2, Fig. 8–9); the backend layer
// is what lets every consumer — the experiments harness, the core
// pipeline, the dac CLI, and the dacd daemon's model registry — treat
// them uniformly, so a new surrogate (LOCAT-style model swapping,
// Tuneful-style per-workload selection) lands in one place instead of
// five.

// TrainOpts carries the knobs a caller sets per training job, the same
// for every backend. Every field is optional: a zero field keeps the
// backend's own setting (its Opt, or its reduced smoke-test budget under
// Quick), so a zero TrainOpts trains exactly what the package's Train
// would with that Opt. Technique-specific hyperparameters (hm's learning
// rate and tree complexity, ann's and svm's epochs) live in each
// backend's Opt, not here.
type TrainOpts struct {
	// Seed drives the backend's randomness; 0 keeps the backend default.
	Seed int64
	// Obs, when non-nil, receives the backend's training metrics.
	Obs *obs.Registry
	// Quick selects the backend's reduced smoke-test budget when its Opt
	// leaves that budget unset.
	Quick bool
	// Trees overrides the tree budget of tree-based backends (hm's
	// boosting budget per first-order model, rf's forest size).
	Trees int
}

// Backend is one named modeling technique behind a uniform training and
// persistence surface. The returned Model serves single predictions via
// Predict and batches via PredictBatch (the package-level helper uses the
// model's batch fast path when it has one). Implementations live in
// internal/{hm,rf,rs,ann,svm}; the assembled registry in
// internal/backends.
type Backend interface {
	// Name is the registry key, lowercase ("hm", "rf", ...).
	Name() string
	// Train fits a model; it must not retain ds's slices.
	Train(ds *Dataset, opt TrainOpts) (Model, error)
	// Save writes one of this backend's models to w. It must reject
	// models of a different backend with an error rather than corrupting
	// the stream.
	Save(m Model, w io.Writer) error
	// Load decodes a model this backend's Save wrote. It must not panic
	// on arbitrary bytes, and every model it accepts must answer Predict.
	Load(r io.Reader) (Model, error)
}

// Resumer is the warm-start capability: continue training an existing
// model of this backend on fresh data, spending up to extra additional
// budget (trees for hm) before the backend's own stopping rules apply.
// Only backends whose training is incremental implement it (hm).
type Resumer interface {
	Backend
	Resume(m Model, ds *Dataset, opt TrainOpts, extra int) error
}

// Capabilities summarizes what a backend can do beyond the Backend
// contract, as discovered by interface assertion.
type Capabilities struct {
	Resume bool `json:"resume"`
}

// CapabilitiesOf probes b for the optional Resumer interface.
func CapabilitiesOf(b Backend) Capabilities {
	_, resume := b.(Resumer)
	return Capabilities{Resume: resume}
}

// BackendRegistry maps backend names to Backend values. It is immutable
// after construction, so lookups need no locking.
type BackendRegistry struct {
	byName map[string]Backend
}

// NewBackendRegistry builds a registry over the given backends, keyed by
// their Name(). Duplicate or empty names are a programming error.
func NewBackendRegistry(bs ...Backend) (*BackendRegistry, error) {
	r := &BackendRegistry{byName: make(map[string]Backend, len(bs))}
	for _, b := range bs {
		name := b.Name()
		if name == "" {
			return nil, fmt.Errorf("model: backend with empty name")
		}
		if _, dup := r.byName[name]; dup {
			return nil, fmt.Errorf("model: duplicate backend %q", name)
		}
		r.byName[name] = b
	}
	return r, nil
}

// Lookup returns the backend registered under name.
func (r *BackendRegistry) Lookup(name string) (Backend, error) {
	b, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown backend %q (have %v)", name, r.Names())
	}
	return b, nil
}

// Names returns the registered backend names, sorted.
func (r *BackendRegistry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for name := range r.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
