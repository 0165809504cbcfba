package pipeline

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/faults"
)

// TestInjectedRetrainFailureKeepsLastGood is the graceful-degradation
// contract: while the retrainfail injector makes training attempts fail, the
// previously published generation keeps serving, Status reports the degraded
// state, and the first successful attempt clears it.
func TestInjectedRetrainFailureKeepsLastGood(t *testing.T) {
	store := toyStore(t, 1, 95)
	cfg := DefaultConfig()
	cfg.Faults = faults.NewSchedule(faults.MustParse("retrainfail:from=2,to=4"))
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}

	g1, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual") // attempt 1: ok
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 2; attempt <= 3; attempt++ { // attempts 2, 3: injected failure
		_, err := p.TrainOnce(0, 0, nil, "manual")
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("attempt %d: err = %v, want ErrFaultInjected", attempt, err)
		}
		if p.Active() != g1 {
			t.Fatalf("attempt %d: active generation changed during failure", attempt)
		}
		st := p.Status()
		if !st.Degraded || st.ConsecutiveFailures != attempt-1 {
			t.Fatalf("attempt %d: status = degraded %v, consecutive %d",
				attempt, st.Degraded, st.ConsecutiveFailures)
		}
		if !strings.Contains(st.LastError, "injected") {
			t.Fatalf("last error does not name the injection: %q", st.LastError)
		}
	}

	g4, err := p.TrainOnce(0, 0, nil, "manual") // attempt 4: past the fault window
	if err != nil {
		t.Fatal(err)
	}
	if g4.Version != 2 || p.Active() != g4 {
		t.Fatalf("recovery generation = %+v", g4)
	}
	st := p.Status()
	if st.Degraded || st.ConsecutiveFailures != 0 || st.LastError != "" {
		t.Fatalf("status after recovery = %+v", st)
	}
}

// TestScheduledRetrainRetriesWithBackoff: the loop's retrain path retries a
// failed attempt with backoff instead of giving up until the next tick.
func TestScheduledRetrainRetriesWithBackoff(t *testing.T) {
	store := toyStore(t, 1, 96)
	cfg := DefaultConfig()
	cfg.Faults = faults.NewSchedule(faults.MustParse("retrainfail:from=1,to=2")) // only attempt 1 fails
	cfg.MaxRetries = 1
	cfg.RetryBackoff = time.Millisecond
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	p.scheduledRetrain(context.Background(), "scheduled")
	g := p.Active()
	if g == nil || g.Version != 1 {
		t.Fatalf("retry did not publish: active = %+v", g)
	}
	if st := p.Status(); st.Degraded || st.LastError != "" {
		t.Fatalf("status after successful retry = %+v", st)
	}
}

// TestScheduledRetrainExhaustsRetries: when every attempt fails, the loop
// gives up after MaxRetries retries and leaves the failure visible in Status
// without tearing anything down.
func TestScheduledRetrainExhaustsRetries(t *testing.T) {
	store := toyStore(t, 1, 97)
	cfg := DefaultConfig()
	cfg.Faults = faults.NewSchedule(faults.MustParse("retrainfail:from=1")) // open-ended: all fail
	cfg.MaxRetries = 2
	cfg.RetryBackoff = time.Millisecond
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	p.scheduledRetrain(context.Background(), "scheduled")
	if p.Active() != nil {
		t.Fatal("all-failing schedule still published a generation")
	}
	st := p.Status()
	if !st.Degraded || st.ConsecutiveFailures != 3 { // 1 attempt + 2 retries
		t.Fatalf("status = degraded %v, consecutive %d", st.Degraded, st.ConsecutiveFailures)
	}
}

// TestTrainOnceCtxCancelled: a cancelled context abandons the generation
// before any training work and never touches the serving model.
func TestTrainOnceCtxCancelled(t *testing.T) {
	store := toyStore(t, 1, 98)
	p, err := New(quickOpts(), DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.TrainOnceCtx(ctx, 0, 0, []app.Pair{cpuPair}, "manual"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p.Active() != nil {
		t.Fatal("cancelled training published a generation")
	}
	// The in-flight slot is released: a live context trains fine afterwards.
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptionQuarantineAndFallback: the ckptcorrupt injector
// rots a checkpoint on disk after publish; the next recovery quarantines the
// rotten file and falls back to the newest valid generation instead of
// failing outright or silently serving garbage.
func TestCheckpointCorruptionQuarantineAndFallback(t *testing.T) {
	store := toyStore(t, 1, 99)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.CheckpointDir = dir
	cfg.Faults = faults.NewSchedule(faults.MustParse("ckptcorrupt:from=2,to=3")) // version 2 rots
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, nil, "scheduled"); err != nil {
		t.Fatal(err) // publish succeeds; the corruption is latent on disk
	}

	// "Restart" with a clean config: recovery must fall back to version 1.
	clean := cfg
	clean.Faults = nil
	p2, err := New(quickOpts(), clean, store)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p2.Recover()
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	if n != 1 {
		t.Fatalf("recovered %d generations, want 1", n)
	}
	act := p2.Active()
	if act == nil || act.Version != 1 {
		t.Fatalf("active after fallback = %+v", act)
	}
	if q := p2.Registry().Quarantined(); len(q) != 1 || q[0] != "gen-000002.ckpt" {
		t.Fatalf("quarantined = %v", q)
	}
	st := p2.Status()
	if len(st.Quarantined) != 1 || !strings.Contains(st.LastError, "quarantined") {
		t.Fatalf("status does not surface the quarantine: %+v", st)
	}
	// The rotten file was renamed aside, not deleted: the damage stays
	// inspectable, and the next recovery does not trip over it.
	if _, err := os.Stat(filepath.Join(dir, "gen-000002.ckpt.corrupt")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000002.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("rotten checkpoint still under its original name: %v", err)
	}
}

// TestChecksumCatchesModelByteRot: a flipped weight bit decodes as a
// perfectly valid model; only the checksum catches it.
func TestChecksumCatchesModelByteRot(t *testing.T) {
	store := toyStore(t, 1, 90)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.CheckpointDir = dir
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	rotModelBytes(t, filepath.Join(dir, "gen-000001.ckpt"))

	p2, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p2.Recover()
	if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
		t.Fatalf("checksum mismatch not reported: n=%d err=%v", n, err)
	}
	if _, err := readCheckpoint(filepath.Join(dir, "gen-000001.ckpt.corrupt"), nil); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("the rot was caught by something other than the checksum: %v", err)
	}
}

// rotModelBytes flips one bit of the checkpoint's model stream where the
// stream stays a model estimator.Load accepts — gob-valid, semantically
// rotten — and rewrites the file.
func rotModelBytes(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data)
	var meta checkpointMeta
	if err := gob.NewDecoder(r).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	start := len(data) - r.Len()
	for i := len(data) - 64; i > start; i-- {
		data[i] ^= 0x01
		if _, err := estimator.Load(bytes.NewReader(data[start:])); err == nil {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		data[i] ^= 0x01
	}
	t.Fatal("no bit of the model stream flips into a loadable model")
}
