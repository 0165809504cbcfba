package estimator

import (
	"math"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// TestProgressHook trains a tiny model with a Progress hook installed and
// checks the per-epoch event stream: one event per (expert, phase, epoch),
// monotone epoch numbers per expert, finite losses, and non-negative
// durations. The hook is invoked from concurrent expert goroutines, so the
// collector locks — mirroring how the obs wiring uses it.
func TestProgressHook(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 7)

	cfg := testConfig()
	cfg.Epochs = 5
	cfg.AttentionEpochs = 2
	var (
		mu     sync.Mutex
		events []ProgressEvent
	)
	cfg.Progress = func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}

	m, _, err := TrainWarm(run.Windows, run.Usage, cfg, nil, nil)
	if err != nil {
		t.Fatalf("TrainWarm: %v", err)
	}

	nPairs := len(m.Pairs)
	wantTrain := nPairs * cfg.Epochs
	wantAttn := nPairs * cfg.AttentionEpochs
	var gotTrain, gotAttn int
	lastEpoch := map[string]int{} // pair+phase -> last epoch seen
	for _, ev := range events {
		switch ev.Phase {
		case PhaseTrain:
			gotTrain++
			if ev.Epochs != cfg.Epochs {
				t.Fatalf("train event Epochs = %d, want %d", ev.Epochs, cfg.Epochs)
			}
		case PhaseAttention:
			gotAttn++
			if ev.Epochs != cfg.AttentionEpochs {
				t.Fatalf("attention event Epochs = %d, want %d", ev.Epochs, cfg.AttentionEpochs)
			}
		default:
			t.Fatalf("unknown phase %q", ev.Phase)
		}
		key := ev.Pair + "/" + ev.Phase
		if ev.Epoch != lastEpoch[key]+1 {
			t.Fatalf("%s: epoch %d follows %d", key, ev.Epoch, lastEpoch[key])
		}
		lastEpoch[key] = ev.Epoch
		if math.IsNaN(ev.Loss) || math.IsInf(ev.Loss, 0) {
			t.Fatalf("%s epoch %d: loss %v", key, ev.Epoch, ev.Loss)
		}
		if ev.Duration < 0 {
			t.Fatalf("%s epoch %d: negative duration", key, ev.Epoch)
		}
	}
	if gotTrain != wantTrain || gotAttn != wantAttn {
		t.Fatalf("events: train=%d attention=%d, want %d and %d", gotTrain, gotAttn, wantTrain, wantAttn)
	}

	// Training converges on the toy data: the mean loss of each expert's
	// last train epoch is below its first.
	first, last := map[string]float64{}, map[string]float64{}
	for _, ev := range events {
		if ev.Phase != PhaseTrain {
			continue
		}
		if ev.Epoch == 1 {
			first[ev.Pair] = ev.Loss
		}
		if ev.Epoch == cfg.Epochs {
			last[ev.Pair] = ev.Loss
		}
	}
	improved := 0
	for pair := range first {
		if last[pair] < first[pair] {
			improved++
		}
	}
	if improved == 0 {
		t.Fatalf("no expert's loss improved over %d epochs (first=%v last=%v)", cfg.Epochs, first, last)
	}
}
