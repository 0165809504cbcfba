package layers

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/nn/ad"
	"repro/internal/nn/opt"
)

// Workspace is what one ForEach worker carries from job to job: tapes whose
// arenas have already grown to a job's size, one Adam whose moments Train
// re-zeroes per run, the gradient buffer Train lends to whatever it fits, and
// a GRU trajectory's step operands (a block's input products, U's panels). A
// generation has 76–399 experts of one shape; without it each of them
// allocated, page-faulted and dropped its own copy (1.2 MB of moments at the
// paper's width), and kept a gradient as large as its weights for as long as
// the model lived.
type Workspace struct {
	Tape  *ad.Tape // training tape
	Eval  *ad.Tape // gradient-free tape
	Block GRUBlock
	adam  *opt.Adam
	grad  []float64 // backs the Grad of the params being trained
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{Tape: ad.NewTape(), Eval: ad.NewEvalTape(), adam: opt.NewAdam(nil, 0)}
}

// ForEach runs fn for every job index in [0, n) on a pool of up to GOMAXPROCS
// workers, each with its own Workspace, and returns the first error a job
// returned (the other jobs still run). Which worker takes which job is not
// deterministic; the results are when fn derives everything from i, its
// seed above all, since Train hands every run the same zeroed state.
func ForEach(n int, fn func(i int, ws *Workspace) error) error {
	idx := make(chan int, n)
	for i := range n {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewWorkspace()
			for i := range idx {
				if err := fn(i, ws); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Chunks describes one truncated-BPTT run of Workspace.Train over a series of
// Windows windows.
type Chunks struct {
	// Windows is the series length, Len the chunk length, Epochs the
	// number of passes.
	Windows, Len, Epochs int
	// LR and ClipNorm configure the Adam step after every chunk.
	LR, ClipNorm float64
	// Loss records window t's loss on tape; first marks the first window of
	// its chunk, where recurrent state restarts.
	Loss func(tape *ad.Tape, t int, first bool) *ad.Value
	// AfterBackward, when set, runs between a chunk's backward pass and its
	// Adam step: where a regulariser adds its gradients.
	AfterBackward func()
	// Epoch, when set, receives each epoch's number (from 1), mean chunk
	// loss and wall time.
	Epoch func(epoch int, loss float64, took time.Duration)
}

// Train fits params: c.Epochs passes over the series in c.Len-window chunks,
// visited in an order rng shuffles once per epoch (its only draws), each
// chunk's mean loss refused if non-finite, differentiated and stepped by the
// workspace's Adam, which starts afresh on params. The params carry
// gradients only while Train runs.
//
// The refusal comes before the loss is differentiated: one non-finite step
// writes NaN into every parameter the optimizer touches.
func (ws *Workspace) Train(params []*ad.Param, rng *rand.Rand, c Chunks) error {
	ws.grad = ad.BindGrads(ws.grad, params)
	defer ad.UnbindGrads(params)
	ws.adam.Reset(params)
	ws.adam.LR, ws.adam.ClipNorm = c.LR, c.ClipNorm

	nChunks := (c.Windows + c.Len - 1) / c.Len
	order := make([]int, nChunks)
	for i := range order {
		order[i] = i
	}
	tape := ws.Tape
	// The SumScalars operand slice is only read up to Backward, so one
	// serves every chunk.
	losses := make([]*ad.Value, 0, c.Len)
	for ep := 1; ep <= c.Epochs; ep++ {
		start := time.Now()
		epochLoss := 0.0
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ci := range order {
			from := ci * c.Len
			to := min(from+c.Len, c.Windows)
			tape.Reset()
			losses = losses[:0]
			for t := from; t < to; t++ {
				losses = append(losses, c.Loss(tape, t, t == from))
			}
			mean := tape.ScaleConst(tape.SumScalars(losses...), 1/float64(to-from))
			if l := mean.Data[0]; math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("non-finite training loss %v in epoch %d (non-finite telemetry or diverged weights)", l, ep)
			}
			tape.Backward(mean)
			epochLoss += mean.Data[0]
			if c.AfterBackward != nil {
				c.AfterBackward()
			}
			ws.adam.Step()
		}
		if c.Epoch != nil {
			c.Epoch(ep, epochLoss/float64(nChunks), time.Since(start))
		}
	}
	return nil
}
