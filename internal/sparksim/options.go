package sparksim

// Options selects simulator mechanisms. The zero value enables everything
// with the default noise level; the Disable* switches exist for the
// ablation benchmarks that show which mechanism produces the paper's
// configuration cliffs.
type Options struct {
	// DisableGC removes the JVM garbage-collection cost model.
	DisableGC bool
	// DisableSpill removes execution-memory spilling; memory pressure
	// then only manifests as OOM failures.
	DisableSpill bool
	// DisableOOM removes out-of-memory task failures; memory pressure
	// then only manifests as spills.
	DisableOOM bool
	// NoiseSigma is the lognormal sigma of per-task service-time noise.
	// Negative disables noise; zero selects the default (0.06).
	NoiseSigma float64
}

// noiseSigma resolves the configured noise level.
func (o Options) noiseSigma() float64 {
	switch {
	case o.NoiseSigma < 0:
		return 0
	case o.NoiseSigma == 0:
		return 0.06
	default:
		return o.NoiseSigma
	}
}
