package estimator

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/testutil"
)

// toyStream trains a small three-expert model (a level target, a rate and
// the delta-kind disk counter, attention on) and returns it with its
// serialized stream.
func toyStream(tb testing.TB) (*Model, []byte) {
	tb.Helper()
	_, _, run := testutil.ToyTelemetry(tb, 1, 30, 4)
	usage := testutil.FocusPairs(run.Usage,
		app.Pair{Component: "Service", Resource: app.CPU},
		app.Pair{Component: "DB", Resource: app.WriteIOps},
		app.Pair{Component: "DB", Resource: app.DiskUsage},
	)
	cfg := DefaultConfig()
	cfg.Epochs, cfg.AttentionEpochs, cfg.ChunkLen = 2, 1, 24
	m, _, err := TrainWarm(run.Windows, usage, cfg, nil)
	if err != nil {
		tb.Fatalf("TrainWarm: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatalf("Save: %v", err)
	}
	return m, buf.Bytes()
}

// messageSizes records the size of every Write: gob sends one message per
// Write, so the largest is the largest expert's encoding.
type messageSizes []int

func (s *messageSizes) Write(p []byte) (int, error) {
	*s = append(*s, len(p))
	return len(p), nil
}

func (s messageSizes) largest() int {
	m := 0
	for _, n := range s {
		m = max(m, n)
	}
	return m
}

// TestSaveLoadSaveIsByteIdentical: the stream is a function of the model —
// what Load rebuilds saves to the same bytes, so a checkpoint, a download
// and a re-upload of one generation are one file.
func TestSaveLoadSaveIsByteIdentical(t *testing.T) {
	m, first := toyStream(t)
	loaded, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(first, second.Bytes()) {
		t.Fatalf("Save → Load → Save changed the stream (%d vs %d bytes)", len(first), second.Len())
	}
	for _, mm := range []*Model{m, loaded} {
		for _, p := range mm.Pairs {
			for _, par := range mm.Experts[p].Params() {
				if par.Grad != nil {
					t.Fatalf("%s: parameter %s carries a gradient outside training", p, par.Name)
				}
			}
		}
	}
}

// TestLoadRefusesEveryProperPrefix: the header states how many experts
// follow, so a stream cut anywhere — a dropped connection, a torn file — is
// an error, never a smaller model.
func TestLoadRefusesEveryProperPrefix(t *testing.T) {
	_, stream := toyStream(t)
	for n := 0; n < len(stream); n++ {
		if m, err := Load(bytes.NewReader(stream[:n])); err == nil {
			t.Fatalf("Load accepted the first %d of %d bytes as a model of %d experts", n, len(stream), len(m.Pairs))
		}
	}
}

// The layouts before format 3, as they were written: version 1 was one gob
// value holding every expert, version 2 a header and one gob value per
// expert, each naming its pair, shapes, peers and switches.
type paramV2 struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

type expertV2 struct {
	Pair                             app.Pair
	InDim, Hidden                    int
	Peers                            []string
	Params                           []paramV2
	UseMask, UseAttention, UseBypass bool
}

// TestLoadRefusesOldVersions pins the migration story: a stream in either
// older layout is refused by its version number.
func TestLoadRefusesOldVersions(t *testing.T) {
	m, stream := toyStream(t)
	var h modelHeader
	if err := gob.NewDecoder(bytes.NewReader(stream)).Decode(&h); err != nil {
		t.Fatal(err)
	}
	type modelGobV1 struct {
		Version int
		Hidden  int
		Paths   []string
		Pairs   []app.Pair
		Experts []expertV2
	}
	h.Version = 2
	v1 := modelGobV1{Version: 1, Hidden: h.Hidden, Paths: h.Paths, Pairs: h.Pairs}
	v2 := []any{h}
	for _, p := range m.Pairs {
		e := m.Experts[p]
		eg := expertV2{Pair: p, InDim: e.InDim, Hidden: e.Hidden, Peers: e.Attn.Peers,
			UseMask: e.UseMask, UseAttention: e.UseAttention, UseBypass: e.UseBypass}
		for _, par := range e.Params() {
			eg.Params = append(eg.Params, paramV2{Name: par.Name, Rows: par.Rows, Cols: par.Cols, Data: par.Data})
		}
		v1.Experts = append(v1.Experts, eg)
		v2 = append(v2, eg)
	}
	for version, values := range map[int][]any{1: {v1}, 2: v2} {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, v := range values {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		want := fmt.Sprintf("unsupported model version %d (want 3)", version)
		if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Load of a v%d stream: %v, want %q", version, err, want)
		}
	}
}

// reheader re-encodes a serialized model's header with an edit and copies
// the experts' bytes after it.
func reheader(tb testing.TB, stream []byte, edit func(*modelHeader)) []byte {
	tb.Helper()
	r := bytes.NewReader(stream) // an io.ByteReader: gob reads the header and no further
	var h modelHeader
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		tb.Fatal(err)
	}
	edit(&h)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(h); err != nil {
		tb.Fatal(err)
	}
	if _, err := r.WriteTo(&out); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// TestLoadRefusesHeaderLargerThanStream: a header may claim any width and
// any number of paths; Load sizes nothing from it, so the claim is refused
// at the first expert for the price of that expert, not of the claim.
func TestLoadRefusesHeaderLargerThanStream(t *testing.T) {
	_, stream := toyStream(t)
	for name, edit := range map[string]func(*modelHeader){
		"hidden":       func(h *modelHeader) { h.Hidden = 1 << 40 },
		"hidden wraps": func(h *modelHeader) { h.Hidden = math.MaxInt },
		"more experts": func(h *modelHeader) {
			h.Pairs = append(h.Pairs, app.Pair{Component: "X", Resource: app.CPU})
			h.Scales = append(h.Scales, h.Scales[0])
		},
		"scaler length": func(h *modelHeader) { h.ScalerMax = h.ScalerMax[:1] },
	} {
		bad := reheader(t, stream, edit)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Load(bytes.NewReader(bad))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: Load accepted the stream (%d experts)", name, len(m.Pairs))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(stream)) {
			t.Errorf("%s: Load allocated %d bytes refusing a %d-byte stream", name, grew, len(stream))
		}
	}
}

// TestSaveAllocatesPerExpertNotPerModel is the encoder's memory wall: Save
// streams one expert at a time, so what it allocates is bounded by the
// largest expert's encoding, not by the model's (76 of them here). The
// factor is gob's: its message buffer grows by append, whose 1.25× steps sum
// to five times the final size, once per stream (4.9× measured).
func TestSaveAllocatesPerExpertNotPerModel(t *testing.T) {
	run := socialDay(t)
	cfg := DefaultConfig()
	cfg.Hidden, cfg.Epochs, cfg.AttentionEpochs = 32, 0, 0
	m, _, err := TrainWarm(run.Windows, run.Usage, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sizes messageSizes
	if err := m.Save(&sizes); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grew, bound := after.TotalAlloc-before.TotalAlloc, 6*uint64(sizes.largest())
	t.Logf("Save allocated %d bytes for a %d-byte stream of %d experts; largest message %d bytes", grew, total, len(m.Pairs), sizes.largest())
	if grew > bound {
		t.Fatalf("Save allocated %d bytes, more than 6 × the largest expert's %d", grew, sizes.largest())
	}
}
