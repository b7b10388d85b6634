package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/backends"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/obs"
)

// ModelMeta describes one registry entry: where the model came from and
// how good it is, stored as v<N>.json beside the v<N>.model snapshot.
type ModelMeta struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Backend tags which backend's codec wrote the v<N>.model stream.
	// Empty means hm: every registry written before the backend layer
	// existed holds hm snapshots, so legacy entries load unchanged.
	Backend     string  `json:"backend,omitempty"`
	Workload    string  `json:"workload,omitempty"`
	Seed        int64   `json:"seed"`
	NTrain      int     `json:"ntrain,omitempty"`
	Trees       int     `json:"trees"`
	Order       int     `json:"order"`
	ValErr      float64 `json:"val_err"`
	Job         int64   `json:"job,omitempty"`
	WarmFrom    string  `json:"warm_from,omitempty"`
	CreatedUnix int64   `json:"created_unix"`
}

// backendName resolves the meta's backend tag, defaulting legacy
// (pre-tag) entries to hm.
func (m ModelMeta) backendName() string {
	if m.Backend == "" {
		return "hm"
	}
	return m.Backend
}

// ModelRegistry is the daemon's versioned model store. Layout:
//
//	<dir>/<name>/v<N>.model   — the backend's snapshot (for hm, the v2
//	                            format, whose trees a loaded model
//	                            replays to warm-start through hm.Resume)
//	<dir>/<name>/v<N>.json    — ModelMeta, whose Backend field names the
//	                            codec that wrote the .model stream
//
// Versions are monotonically increasing per name; Save never overwrites.
// Writes go through a temp file + rename, so a crash mid-save leaves at
// worst an orphaned .tmp, never a half-written version.
type ModelRegistry struct {
	dir      string
	backends *model.BackendRegistry
	mu       sync.Mutex
	// onSave, when set, runs after every successful Save, outside the
	// registry lock, with the new version's metadata and the versions GC
	// pruned to make room for it — the daemon's one per-version hook
	// (server.go).
	onSave func(meta ModelMeta, pruned []int)
	// gcKeep, when > 0, bounds each model to its newest gcKeep versions:
	// older ones are deleted by EnableGC's sweep and after every save.
	gcKeep   int
	gcPruned *obs.Counter
}

// NewModelRegistry opens (creating if needed) the registry rooted at dir,
// wired to the default backend set.
func NewModelRegistry(dir string) (*ModelRegistry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ModelRegistry{dir: dir, backends: backends.Default()}, nil
}

// Backends exposes the registry's backend set (shared with the job
// manager and the HTTP layer).
func (r *ModelRegistry) Backends() *model.BackendRegistry { return r.backends }

// validName keeps registry names shell- and path-safe.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	for _, r := range name {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			return fmt.Errorf("serve: model name %q: use lowercase letters, digits, '-', '_'", name)
		}
	}
	return nil
}

// EnableGC turns on version garbage collection: each model keeps only
// its newest keep versions. It prunes every model at once — the startup
// sweep over registries grown before GC was enabled, which reports to no
// hook — and after every save from then on. pruned (may be nil) counts
// deleted versions. Call before the daemon starts serving.
func (r *ModelRegistry) EnableGC(keep int, pruned *obs.Counter) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gcKeep = keep
	r.gcPruned = pruned
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := r.gcLocked(e.Name()); err != nil {
			return err
		}
	}
	return nil
}

// gcLocked deletes name's versions beyond the newest gcKeep and returns
// the deleted version numbers. The .model file goes first:
// versionsLocked scans .model files, so a crash between the two unlinks
// leaves an orphaned .json that no longer counts as a version (and is
// overwritten if the number is ever reused). Caller holds r.mu.
func (r *ModelRegistry) gcLocked(name string) ([]int, error) {
	if r.gcKeep <= 0 {
		return nil, nil
	}
	versions, err := r.versionsLocked(name)
	if err != nil || len(versions) <= r.gcKeep {
		return nil, err
	}
	dir := filepath.Join(r.dir, name)
	var pruned []int
	for _, v := range versions[:len(versions)-r.gcKeep] {
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("v%d.model", v))); err != nil {
			return pruned, err
		}
		os.Remove(filepath.Join(dir, fmt.Sprintf("v%d.json", v)))
		r.gcPruned.Inc()
		pruned = append(pruned, v)
	}
	return pruned, nil
}

// SetOnSave registers the hook invoked (outside the registry lock) after
// every successful Save, once, with the saved version's metadata and the
// versions GC pruned after it. The daemon points it at its hot cache's
// Refresh, so new versions swap in and pruned ones leave as they happen.
func (r *ModelRegistry) SetOnSave(fn func(meta ModelMeta, pruned []int)) {
	r.mu.Lock()
	r.onSave = fn
	r.mu.Unlock()
}

// Save persists m as the next version of name through the backend named
// by meta.Backend (default hm) and returns that version, then prunes
// name to the GC budget and fires the SetOnSave hook once.
func (r *ModelRegistry) Save(name string, m model.Model, meta ModelMeta) (int, error) {
	r.mu.Lock()
	meta, err := r.saveLocked(name, m, meta)
	var pruned []int
	if err == nil {
		// The new version is registered; a failed prune degrades to an
		// over-budget registry, not a failed save.
		pruned, _ = r.gcLocked(name)
	}
	hook := r.onSave
	r.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if hook != nil {
		hook(meta, pruned)
	}
	return meta.Version, nil
}

// saveLocked writes m and its metadata as name's next version and
// returns the metadata as stored. Caller holds r.mu.
func (r *ModelRegistry) saveLocked(name string, m model.Model, meta ModelMeta) (ModelMeta, error) {
	if err := validName(name); err != nil {
		return ModelMeta{}, err
	}
	meta.Backend = meta.backendName()
	b, err := r.backends.Lookup(meta.Backend)
	if err != nil {
		return ModelMeta{}, err
	}
	dir := filepath.Join(r.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ModelMeta{}, err
	}
	versions, err := r.versionsLocked(name)
	if err != nil {
		return ModelMeta{}, err
	}
	next := 1
	if len(versions) > 0 {
		next = versions[len(versions)-1] + 1
	}
	meta.Name = name
	meta.Version = next
	if tm, ok := m.(interface{ NumTrees() int }); ok {
		meta.Trees = tm.NumTrees()
	}
	if hmModel, ok := m.(*hm.Model); ok {
		meta.Order = hmModel.Order
		meta.ValErr = hmModel.ValErr
	}

	mp := filepath.Join(dir, fmt.Sprintf("v%d.model", next))
	if err := atomicWrite(mp, func(f *os.File) error { return b.Save(m, f) }); err != nil {
		return ModelMeta{}, err
	}
	jp := filepath.Join(dir, fmt.Sprintf("v%d.json", next))
	if err := atomicWrite(jp, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	}); err != nil {
		os.Remove(mp)
		return ModelMeta{}, err
	}
	return meta, nil
}

// Load reads one model version through the backend its metadata names
// (legacy entries without a tag load as hm); version 0 selects the
// latest.
func (r *ModelRegistry) Load(name string, version int) (model.Model, ModelMeta, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := validName(name); err != nil {
		return nil, ModelMeta{}, err
	}
	if version == 0 {
		versions, err := r.versionsLocked(name)
		if err != nil {
			return nil, ModelMeta{}, err
		}
		if len(versions) == 0 {
			return nil, ModelMeta{}, fmt.Errorf("serve: model %q not found", name)
		}
		version = versions[len(versions)-1]
	}
	dir := filepath.Join(r.dir, name)
	meta, err := readMeta(filepath.Join(dir, fmt.Sprintf("v%d.json", version)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ModelMeta{}, fmt.Errorf("serve: model %s@v%d not found", name, version)
		}
		return nil, ModelMeta{}, err
	}
	b, err := r.backends.Lookup(meta.backendName())
	if err != nil {
		return nil, ModelMeta{}, fmt.Errorf("serve: model %s@v%d: %w", name, version, err)
	}
	f, err := os.Open(filepath.Join(dir, fmt.Sprintf("v%d.model", version)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ModelMeta{}, fmt.Errorf("serve: model %s@v%d not found", name, version)
		}
		return nil, ModelMeta{}, err
	}
	m, err := b.Load(f)
	f.Close()
	if err != nil {
		return nil, ModelMeta{}, fmt.Errorf("serve: model %s@v%d: %w", name, version, err)
	}
	return m, meta, nil
}

// Versions returns the metadata of every version of name, ascending.
func (r *ModelRegistry) Versions(name string) ([]ModelMeta, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := validName(name); err != nil {
		return nil, err
	}
	nums, err := r.versionsLocked(name)
	if err != nil {
		return nil, err
	}
	out := make([]ModelMeta, 0, len(nums))
	for _, v := range nums {
		meta, err := readMeta(filepath.Join(r.dir, name, fmt.Sprintf("v%d.json", v)))
		if err != nil {
			return nil, err
		}
		out = append(out, meta)
	}
	return out, nil
}

// List returns the latest version of every model in the registry, sorted
// by name.
func (r *ModelRegistry) List() ([]ModelMeta, error) {
	r.mu.Lock()
	names, err := os.ReadDir(r.dir)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var out []ModelMeta
	for _, e := range names {
		if !e.IsDir() {
			continue
		}
		vs, err := r.Versions(e.Name())
		if err != nil || len(vs) == 0 {
			continue
		}
		out = append(out, vs[len(vs)-1])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// versionsLocked scans name's directory for v<N>.model files.
func (r *ModelRegistry) versionsLocked(name string) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(r.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var nums []int
	for _, e := range entries {
		n := e.Name()
		if !strings.HasPrefix(n, "v") || !strings.HasSuffix(n, ".model") {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(n, "v"), ".model"))
		if err != nil || v <= 0 {
			continue
		}
		nums = append(nums, v)
	}
	sort.Ints(nums)
	return nums, nil
}

func readMeta(path string) (ModelMeta, error) {
	var meta ModelMeta
	b, err := os.ReadFile(path)
	if err != nil {
		return meta, err
	}
	return meta, json.Unmarshal(b, &meta)
}

// atomicWrite writes via fill to a temp file in path's directory, then
// renames it into place.
func atomicWrite(path string, fill func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
