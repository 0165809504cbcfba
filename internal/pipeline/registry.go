package pipeline

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Generation is one published model version. A Generation is immutable
// after Publish: serving reads grab the active pointer once and use it for
// the whole request, so a request never observes experts from two
// generations.
type Generation struct {
	// Version is the registry-assigned, monotonically increasing id.
	Version int
	// Trigger records what caused the training run: "manual", "scheduled",
	// "drift", or "recovered" (loaded from a checkpoint at startup).
	Trigger string
	// From and To bound the telemetry windows trained over, [From, To).
	From, To int
	// Warm reports whether at least one of the generation's experts started
	// from its predecessor's parameters.
	Warm bool
	// TrainedAt stamps the publication time.
	TrainedAt time.Time
	// System is the learned DeepRest instance serving this generation.
	System *core.System
}

// Model is a convenience accessor for the generation's estimator.
func (g *Generation) Model() *estimator.Model { return g.System.Model() }

// Experts returns the number of trained experts.
func (g *Generation) Experts() int { return len(g.System.Pairs()) }

// Registry is the versioned model store at the heart of the
// continuous-learning pipeline: it owns every live generation, keeps a
// bounded history for rollback, checkpoints each generation to disk when
// configured, and publishes the serving model through an RCU-style atomic
// pointer — readers call Active with no lock and no waiting, writers swap
// the pointer only after a generation is fully built.
type Registry struct {
	active atomic.Pointer[Generation]

	// Nil-safe instrumentation handles (see instrument).
	activeGen   *obs.Gauge
	weightBytes *obs.Gauge
	ckptOps     *obs.CounterVec

	mu          sync.Mutex
	gens        []*Generation // ascending by version
	max         int
	dir         string
	next        int
	quarantined []string // checkpoint files set aside as corrupt at recovery

	// injected is the fault schedule rotting checkpoints after write
	// (nil in production; see faults.CkptCorrupt).
	injected *faults.Schedule

	// tracer records checkpoint/swap stage spans (nil-safe no-op).
	tracer *obs.SpanTracer
}

// instrument registers the registry's metrics: the serving generation
// version and checkpoint write/recover outcomes. A nil obs registry leaves
// the handles as no-ops.
func (r *Registry) instrument(m *obs.Registry) {
	if m == nil {
		return
	}
	r.activeGen = m.Gauge("deeprest_active_generation",
		"Version of the model generation currently serving queries (0 before the first publish).")
	r.weightBytes = m.Gauge("deeprest_model_weight_bytes",
		"Size of the serving generation's parameters, 8 bytes per weight — the floor of what a tenant costs in memory.")
	r.ckptOps = m.CounterVec("deeprest_checkpoint_ops_total",
		"Model checkpoint operations by kind (write, recover) and result (ok, error).",
		"op", "result")
}

// NewRegistry returns a registry keeping at most maxHistory generations
// (minimum 2, so rollback always has a target). A non-empty dir enables
// checkpointing: every published generation is written to
// dir/gen-NNNNNN.ckpt and evicted generations are deleted.
func NewRegistry(maxHistory int, dir string) (*Registry, error) {
	if maxHistory < 2 {
		maxHistory = 2
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint dir: %w", err)
		}
	}
	return &Registry{max: maxHistory, dir: dir, next: 1}, nil
}

// Active returns the serving generation (nil before the first Publish).
// This is the RCU read side: a single atomic load, never blocked by
// training or publication.
func (r *Registry) Active() *Generation { return r.active.Load() }

// setActive makes g the serving generation. Callers hold r.mu.
func (r *Registry) setActive(g *Generation) {
	r.active.Store(g)
	r.activeGen.Set(float64(g.Version))
	r.weightBytes.Set(float64(g.Model().WeightBytes()))
}

// Publish assigns the next version to g, checkpoints it, appends it to the
// history (evicting the oldest non-active generation beyond the bound), and
// atomically makes it the serving generation. A generation whose inference
// engine did not compile cannot answer queries and is refused; the active
// generation keeps serving.
func (r *Registry) Publish(ctx context.Context, g *Generation) (*Generation, error) {
	if err := g.System.EngineErr(); err != nil {
		return nil, fmt.Errorf("pipeline: generation not servable: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g.Version = r.next
	if g.TrainedAt.IsZero() {
		g.TrainedAt = time.Now()
	}
	if r.dir != "" {
		_, ckSpan := r.tracer.Start(ctx, "pipeline.checkpoint")
		err := r.writeCheckpoint(g)
		ckSpan.SetErr(err)
		ckSpan.End()
		if err != nil {
			r.ckptOps.With("write", "error").Inc()
			return nil, err
		}
		r.ckptOps.With("write", "ok").Inc()
	}
	_, swapSpan := r.tracer.Start(ctx, "pipeline.swap")
	r.next++
	r.gens = append(r.gens, g)
	r.setActive(g)
	r.evictLocked()
	swapSpan.End()
	return g, nil
}

// evictLocked drops the oldest non-active generations beyond the history
// bound, deleting their checkpoints.
func (r *Registry) evictLocked() {
	act := r.active.Load()
	for len(r.gens) > r.max {
		victim := -1
		for i, g := range r.gens {
			if act == nil || g.Version != act.Version {
				victim = i
				break
			}
		}
		if victim < 0 {
			return // everything but the bound is active; nothing to evict
		}
		g := r.gens[victim]
		r.gens = append(r.gens[:victim], r.gens[victim+1:]...)
		if r.dir != "" {
			_ = os.Remove(r.checkpointPath(g.Version))
		}
	}
}

// Activate makes a retained generation the serving one — rollback to an
// older version or roll-forward again. The training version counter is not
// rewound: the next Publish still gets a fresh version.
func (r *Registry) Activate(version int) (*Generation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.gens {
		if g.Version == version {
			_, span := r.tracer.Start(context.Background(), "pipeline.swap")
			r.setActive(g)
			span.End()
			return g, nil
		}
	}
	return nil, fmt.Errorf("pipeline: version %d not in registry (retained: %v)", version, r.versionsLocked())
}

// Generations returns the retained generations in ascending version order.
func (r *Registry) Generations() []*Generation {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Generation, len(r.gens))
	copy(out, r.gens)
	return out
}

func (r *Registry) versionsLocked() []int {
	out := make([]int, len(r.gens))
	for i, g := range r.gens {
		out[i] = g.Version
	}
	return out
}

// --- checkpointing ---

// A checkpoint file is a stream: a checkpointMeta gob value, the estimator
// snapshot exactly as Model.Save streams it (a header, then each expert's
// weights as raw bits), and a trailing gob uint64 — the FNV-64a digest of every byte
// before it, which guards against silent disk corruption that gob would
// happily decode into a garbage model. Writer and reader hash what passes
// through them, so neither ever holds a serialized model.
type checkpointMeta struct {
	// Format is checkpointFormat. Files from before it existed (one gob
	// value with the model nested as bytes) decode as 0 and are refused.
	Format    int
	Version   int
	Trigger   string
	From, To  int
	Warm      bool
	TrainedAt time.Time
}

// checkpointFormat guards the file layout above, the model stream's format
// included: an older file is refused here by name, before Load reads it.
const checkpointFormat = 4

// sumReader hashes what is read through it. It is an io.ByteReader so that
// a gob.Decoder reads it directly, message by message: the decoders that
// share one checkpoint stream must not buffer past the values they decode.
type sumReader struct {
	r *bufio.Reader
	h hash.Hash64
}

func (s *sumReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.h.Write(p[:n])
	return n, err
}

func (s *sumReader) ReadByte() (byte, error) {
	b, err := s.r.ReadByte()
	if err == nil {
		s.h.Write([]byte{b})
	}
	return b, err
}

func (r *Registry) checkpointPath(version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("gen-%06d.ckpt", version))
}

// writeCheckpoint persists one generation atomically (temp file + rename),
// so a crash mid-write never leaves a half-written checkpoint behind under
// the final name.
func (r *Registry) writeCheckpoint(g *Generation) error {
	tmp, err := os.CreateTemp(r.dir, "ckpt-*")
	if err != nil {
		return fmt.Errorf("pipeline: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	err = streamCheckpoint(tmp, g)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pipeline: checkpoint generation %d: %w", g.Version, err)
	}
	if err := os.Rename(tmp.Name(), r.checkpointPath(g.Version)); err != nil {
		return err
	}
	if r.injected.CorruptCheckpoint(g.Version) {
		// Latent fault: rot the file on disk after a successful write, the
		// way real bit rot presents — the publish succeeds, the damage only
		// surfaces at the next recovery.
		r.rotCheckpoint(g.Version)
	}
	return nil
}

// streamCheckpoint writes g's checkpoint stream to w.
func streamCheckpoint(w io.Writer, g *Generation) error {
	out := bufio.NewWriter(w)
	sum := fnv.New64a()
	hashed := io.MultiWriter(out, sum)
	meta := checkpointMeta{
		Format: checkpointFormat, Version: g.Version, Trigger: g.Trigger,
		From: g.From, To: g.To, Warm: g.Warm, TrainedAt: g.TrainedAt,
	}
	if err := gob.NewEncoder(hashed).Encode(meta); err != nil {
		return err
	}
	if err := g.Model().Save(hashed); err != nil {
		return err
	}
	if err := gob.NewEncoder(out).Encode(sum.Sum64()); err != nil {
		return err
	}
	return out.Flush()
}

// rotCheckpoint flips bytes in the middle of a checkpoint file, simulating
// silent on-disk corruption for fault-injection tests.
func (r *Registry) rotCheckpoint(version int) {
	p := r.checkpointPath(version)
	b, err := os.ReadFile(p)
	if err != nil || len(b) == 0 {
		return
	}
	for i := len(b) / 2; i < len(b) && i < len(b)/2+16; i++ {
		b[i] ^= 0xff
	}
	_ = os.WriteFile(p, b, 0o644)
}

// readCheckpoint loads one checkpoint file and rebuilds its generation via
// the given System constructor. Corruption is reported loudly, never
// papered over: a registry that silently dropped a bad checkpoint would
// roll back the serving model without anyone noticing.
func readCheckpoint(path string, rebuild func(*estimator.Model) *core.System) (*Generation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: open checkpoint: %w", err)
	}
	defer f.Close()
	name := filepath.Base(path)
	in := &sumReader{r: bufio.NewReader(f), h: fnv.New64a()}
	var ck checkpointMeta
	if err := gob.NewDecoder(in).Decode(&ck); err != nil {
		return nil, fmt.Errorf("pipeline: corrupt checkpoint %s: %w", name, err)
	}
	if ck.Format != checkpointFormat {
		// A file from before the field existed is format 1.
		return nil, fmt.Errorf("pipeline: checkpoint %s has format %d, this build reads format %d: retrain, or delete the file",
			name, max(ck.Format, 1), checkpointFormat)
	}
	model, err := estimator.Load(in)
	if err != nil {
		return nil, fmt.Errorf("pipeline: corrupt checkpoint %s: %w", name, err)
	}
	// The digest is read past the hash, and checked before the model is
	// handed to anyone.
	var want uint64
	if err := gob.NewDecoder(in.r).Decode(&want); err != nil {
		return nil, fmt.Errorf("pipeline: corrupt checkpoint %s: checksum: %w", name, err)
	}
	if got := in.h.Sum64(); got != want {
		return nil, fmt.Errorf("pipeline: corrupt checkpoint %s: checksum mismatch", name)
	}
	sys := rebuild(model)
	if err := sys.EngineErr(); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint %s not servable: %w", name, err)
	}
	return &Generation{
		Version: ck.Version, Trigger: "recovered", From: ck.From, To: ck.To,
		Warm: ck.Warm, TrainedAt: ck.TrainedAt, System: sys,
	}, nil
}

// Recover loads every checkpoint in the registry directory (a simulated or
// real process restart), retaining up to the history bound and activating
// the newest generation. It returns the number of generations recovered.
//
// Corrupt checkpoints (truncated stream, checksum mismatch, undecodable
// model, a format this build does not read) are quarantined — renamed to
// <name>.corrupt so the next recovery does not trip over them again — and
// recovery falls back to the remaining valid generations. Corruption is still loud: the quarantined files are
// listed via Quarantined, and if *no* valid checkpoint survives, Recover
// fails with an error naming the corrupt files rather than silently
// starting empty.
func (r *Registry) Recover(rebuild func(*estimator.Model) *core.System) (int, error) {
	if r.dir == "" {
		return 0, nil
	}
	paths, err := filepath.Glob(filepath.Join(r.dir, "gen-*.ckpt"))
	if err != nil {
		return 0, err
	}
	sort.Strings(paths)
	var gens []*Generation
	var corrupt []string
	for _, p := range paths {
		g, err := readCheckpoint(p, rebuild)
		if err != nil {
			r.ckptOps.With("recover", "corrupt").Inc()
			// Quarantine: .corrupt files escape the gen-*.ckpt glob, so
			// the damage is preserved for inspection without blocking
			// future recoveries.
			if renameErr := os.Rename(p, p+".corrupt"); renameErr == nil {
				corrupt = append(corrupt, filepath.Base(p))
			}
			continue
		}
		r.ckptOps.With("recover", "ok").Inc()
		gens = append(gens, g)
	}
	r.mu.Lock()
	r.quarantined = append(r.quarantined, corrupt...)
	r.mu.Unlock()
	if len(gens) == 0 {
		if len(corrupt) > 0 {
			return 0, fmt.Errorf("pipeline: corrupt checkpoint(s) %s and no valid generation to fall back to",
				strings.Join(corrupt, ", "))
		}
		return 0, nil
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Version < gens[j].Version })

	r.mu.Lock()
	defer r.mu.Unlock()
	if len(gens) > r.max {
		for _, g := range gens[:len(gens)-r.max] {
			_ = os.Remove(r.checkpointPath(g.Version))
		}
		gens = gens[len(gens)-r.max:]
	}
	r.gens = gens
	newest := gens[len(gens)-1]
	r.setActive(newest)
	if newest.Version >= r.next {
		r.next = newest.Version + 1
	}
	return len(gens), nil
}

// Quarantined returns the base names of checkpoint files set aside as
// corrupt during recovery, in the order they were found.
func (r *Registry) Quarantined() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.quarantined))
	copy(out, r.quarantined)
	return out
}
