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
// arenas have already grown to a job's size, one Adam per run of a panel
// whose moments Train re-zeroes per run, the gradient buffer Train lends to
// whatever it fits, a GRU trajectory's step operands (a block's input
// products, U's panels) and a head fit's pass-two operands. A generation has
// 76–399 experts of one shape; without it each of them allocated,
// page-faulted and dropped its own copy (1.2 MB of moments at the paper's
// width), and kept a gradient as large as its weights for as long as the
// model lived.
type Workspace struct {
	Tape  *ad.Tape // training tape
	Eval  *ad.Tape // gradient-free tape
	Block GRUBlock
	adams []*opt.Adam
	grad  []float64 // backs the Grad of the params being trained
	heads headFit
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{Tape: ad.NewTape(), Eval: ad.NewEvalTape()}
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

// Run is one fit Workspace.Train steps: the name its refusals carry, the
// parameters it fits, and the generator its chunk order is drawn from.
type Run struct {
	Name   string
	Params []*ad.Param
	Rng    *rand.Rand
}

// Chunks describes the truncated-BPTT runs of one Workspace.Train over a
// series of Windows windows.
type Chunks struct {
	// Windows is the series length, Len the chunk length, Epochs the
	// number of passes.
	Windows, Len, Epochs int
	// LR and ClipNorm configure the Adam step after every chunk.
	LR, ClipNorm float64
	// Loss records window t's loss on tape; first marks the first window of
	// its chunk, where recurrent state restarts. A tape fit has one run.
	Loss func(tape *ad.Tape, t int, first bool) *ad.Value
	// Fit, set instead of Loss, steps every run off the tape: run r's chunk
	// is the windows from from[r] on, Len of them or up to Windows; Fit
	// writes the chunk's mean loss to loss[r] and adds its gradient to the
	// run's parameters' Grad.
	Fit func(from []int, loss []float64)
	// AfterBackward, when set, runs between a chunk's backward pass and its
	// Adam step: where a regulariser adds its gradients.
	AfterBackward func()
	// Epoch, when set, receives each run's epoch number (from 1), mean chunk
	// loss and share of the epoch's wall time: the runs step in lockstep, so
	// each is credited the epoch's time over the number of runs, and the
	// shares add up to the time spent.
	Epoch func(run, epoch int, loss float64, took time.Duration)
}

// Train fits the runs in lockstep: c.Epochs passes over the series in
// c.Len-window chunks, each run visiting them in an order its generator
// shuffles once per epoch (its only draws); at every step each run's chunk
// loss is refused if non-finite, differentiated (by the tape, or by c.Fit)
// and stepped by the run's own Adam, which starts afresh on its parameters;
// a gradient whose norm is non-finite is refused too. The params carry
// gradients only while Train runs.
//
// A refusal names the run and leaves its parameters as its previous step
// did — a loss is refused before any run is stepped, a gradient before its
// run's Adam update: one non-finite step writes NaN into every parameter the
// optimizer touches, and if it were the run's last those weights would be
// published.
func (ws *Workspace) Train(runs []Run, c Chunks) error {
	var params []*ad.Param
	for _, r := range runs {
		params = append(params, r.Params...)
	}
	ws.grad = ad.BindGrads(ws.grad, params)
	defer ad.UnbindGrads(params)
	for len(ws.adams) < len(runs) {
		ws.adams = append(ws.adams, opt.NewAdam(nil, 0))
	}
	for i, r := range runs {
		ws.adams[i].Reset(r.Params)
		ws.adams[i].LR, ws.adams[i].ClipNorm = c.LR, c.ClipNorm
	}

	nChunks := (c.Windows + c.Len - 1) / c.Len
	orders := make([]int, len(runs)*nChunks) // run r's: the epoch before's, shuffled again
	for i := range orders {
		orders[i] = i % nChunks
	}
	from, loss, epochLoss := make([]int, len(runs)), make([]float64, len(runs)), make([]float64, len(runs))
	// The SumScalars operand slice is only read up to Backward, so one
	// serves every chunk.
	losses := make([]*ad.Value, 0, c.Len)
	for ep := 1; ep <= c.Epochs; ep++ {
		start := time.Now()
		clear(epochLoss)
		for r, run := range runs {
			order := orders[r*nChunks : (r+1)*nChunks]
			run.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for s := range nChunks {
			for r := range runs {
				from[r] = orders[r*nChunks+s] * c.Len
			}
			var mean *ad.Value
			if c.Fit != nil {
				c.Fit(from, loss)
			} else {
				mean = ws.chunkLoss(c, from[0], losses)
				loss[0] = mean.Data[0]
			}
			for r, l := range loss {
				if math.IsNaN(l) || math.IsInf(l, 0) {
					return fmt.Errorf("%s: non-finite training loss %v in epoch %d (non-finite telemetry or diverged weights)", runs[r].Name, l, ep)
				}
			}
			if mean != nil {
				ws.Tape.Backward(mean)
			}
			if c.AfterBackward != nil {
				c.AfterBackward()
			}
			for r := range runs {
				epochLoss[r] += loss[r]
				if norm := ws.adams[r].Step(); math.IsNaN(norm) || math.IsInf(norm, 0) {
					return fmt.Errorf("%s: non-finite training gradient (norm %v) in epoch %d (non-finite telemetry or diverged weights)", runs[r].Name, norm, ep)
				}
			}
		}
		if c.Epoch != nil {
			took := time.Since(start) / time.Duration(len(runs))
			for r := range runs {
				c.Epoch(r, ep, epochLoss[r]/float64(nChunks), took)
			}
		}
	}
	return nil
}

// chunkLoss records on the training tape the mean loss of the chunk that
// starts at window from, its windows' losses in losses.
func (ws *Workspace) chunkLoss(c Chunks, from int, losses []*ad.Value) *ad.Value {
	to := min(from+c.Len, c.Windows)
	tape := ws.Tape
	tape.Reset()
	losses = losses[:0]
	for t := from; t < to; t++ {
		losses = append(losses, c.Loss(tape, t, t == from))
	}
	return tape.ScaleConst(tape.SumScalars(losses...), 1/float64(to-from))
}
