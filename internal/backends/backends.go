// Package backends wires the concrete model backends into a
// model.BackendRegistry. It exists as a separate package because the
// registry type lives in internal/model, which the backend packages
// themselves import — registering them there would be a cycle.
package backends

import (
	"repro/internal/ann"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/rf"
	"repro/internal/rs"
	"repro/internal/svm"
)

// Default returns a registry with every built-in backend: hm (the
// paper's hierarchical model, the one with warm-start), rf, and the
// rs/ann/svm baselines.
func Default() *model.BackendRegistry {
	r, err := model.NewBackendRegistry(
		hm.Backend{},
		rf.Backend{},
		rs.Backend{},
		ann.Backend{},
		svm.Backend{},
	)
	if err != nil {
		// The backend list is static; a name collision is a programming
		// error, not a runtime condition.
		panic(err)
	}
	return r
}
