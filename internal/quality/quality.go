// Package quality continuously shadow-scores the serving model against the
// ground truth it is about to be asked about.
//
// DeepRest's control surfaces (what-if answers, sanity checks, and — next on
// the roadmap — autoscaling) are only as good as the active model generation,
// yet accuracy was previously measurable only offline via cmd/experiments.
// The Scorer closes that gap: as telemetry windows arrive, it replays them
// through the active generation and scores prediction against the observed
// utilization, maintaining rolling per-(component,resource) MAE/sMAPE over
// sliding horizons (1h/6h/24h of windows by default), quantile-head
// calibration (empirical interval coverage plus pinball loss for the upper
// p-head), the fraction of span visits on invocation paths the model has
// never seen, and per-API attributed error.
//
// Shadow-scoring semantics. Windows are grouped into fixed chunks at
// absolute window indices (chunk k covers windows [k·C, (k+1)·C)), and the
// model's recurrent state is reset at each chunk start. A pass scores
// through the newest window: the last chunk may be incomplete, and the next
// pass drops its samples and replays that chunk from its start. The engine
// is causal, so a chunk's first windows estimate the same bits alone as
// inside the whole chunk (TestChunkPrefixMatchesFullChunk); the scores are
// therefore a pure function of (telemetry, model generation), independent
// of how often CatchUp is called, which is what makes the golden
// determinism test possible.
//
// Boards are keyed by model version: a serving swap finalizes the current
// scoreboard into a compact summary (retained for before/after comparison)
// and starts a fresh one, so scores never mix generations. Ring buffers are
// bounded by the longest horizon and clamped to the telemetry retention
// horizon, evicting in lockstep with the PR-5 ring buffer.
//
// The Scorer also closes the loop back into the pipeline: Verdict folds the
// board's windows since the active generation's trained-to mark into the one
// early-retrain decision, which internal/pipeline asks for on its drift tick.
package quality

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/nn/loss"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Source is the telemetry view the scorer replays. *telemetry.Server
// satisfies it.
type Source interface {
	// WindowSeconds is the telemetry window length in seconds.
	WindowSeconds() float64
	// NumWindows counts every window ever recorded; OldestWindow is the
	// absolute index of the first still-resident one.
	NumWindows() int
	OldestWindow() int
	// Traces, Metrics and Features read the absolute window range [from, to).
	Traces(from, to int) ([][]trace.Batch, error)
	Metrics(from, to int) (map[app.Pair][]float64, error)
	Features(gen int, fn func([]trace.Batch) features.Vector, from, to int) ([]features.Vector, error)
}

// Config bounds and tunes a Scorer.
type Config struct {
	// Horizons are the sliding report horizons, shortest first. Empty
	// defaults to 1h/6h/24h. The longest horizon sizes the ring buffers.
	Horizons []time.Duration
	// Chunk is the shadow-prediction chunk length in windows. Zero adopts
	// the active model's ChunkLen (the truncated-BPTT segment length it
	// was trained with).
	Chunk int
	// Retention is the telemetry retention horizon in windows (0 =
	// unbounded). Rings never retain more than this, so quality evicts in
	// lockstep with telemetry.
	Retention int
	// SMAPEThreshold is the verdict's error bound: a mean sMAPE above it
	// (percent) trips the verdict. Zero means DefaultSMAPEThreshold.
	SMAPEThreshold float64
}

// The verdict's bounds (see Verdict). DefaultSMAPEThreshold sits between the
// mean sMAPE of a quiet day and of a day whose costs grew 6× (DESIGN.md
// "Early retrains").
const (
	DefaultSMAPEThreshold = 80
	maxUnknownPathFrac    = 0.05
	minCoverage           = 0.5
	// MinVerdictWindows is how many scored windows since the trained-to
	// mark a verdict needs.
	MinVerdictWindows = 8
)

// Deps wires the scorer into the daemon. All fields but Source and Active
// are optional.
type Deps struct {
	// Source is the telemetry store to replay.
	Source Source
	// Active returns the serving model generation: its registry version
	// and the system to shadow. A nil system means nothing is being
	// served yet and scoring waits.
	Active func() (version int, sys *core.System)
	// Metrics receives the deeprest_quality_* series when non-nil.
	Metrics *obs.Registry
	// Tracer records "quality.score" stage spans when non-nil.
	Tracer *obs.SpanTracer
	// Logger receives per-pass debug records when non-nil.
	Logger *slog.Logger
}

// DefaultHorizons are the report horizons used when Config.Horizons is empty.
var DefaultHorizons = []time.Duration{time.Hour, 6 * time.Hour, 24 * time.Hour}

// sample is one scored window for one pair.
type sample struct {
	exp, low, up, act float64
}

// window is one scored window's board-wide figures.
type window struct {
	// index is the window's absolute store index.
	index int
	// smape is the mean over pairs of the window's sMAPE; unknown the
	// fraction of its span visits on invocation paths the model has never
	// seen (topology drift).
	smape, unknown float64
}

// ring is a bounded FIFO of per-window values with O(1) append and O(1)
// removal of its newest entries. Its buffer grows with what was pushed,
// doubling up to limit, and wraps from there: a board that has scored little
// holds little, however long its horizon.
type ring[T any] struct {
	buf   []T
	limit int
	// head is the slot of the oldest entry; n counts the entries held.
	head, n int
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{limit: max(capacity, 1)}
}

func (r *ring[T]) push(v T) {
	if r.n == r.limit {
		r.buf[r.head] = v
		r.head = (r.head + 1) % r.limit
		return
	}
	if r.n == len(r.buf) {
		// head is still 0: it moves only once the buffer has reached limit.
		grown := make([]T, min(max(2*r.n, 16), r.limit))
		copy(grown, r.buf)
		r.buf = grown
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// drop removes the newest min(k, n) entries. Dropping what a full ring's
// pushes overwrote does not bring the overwritten entries back: the ring
// then holds fewer than limit until k more pushes refill it, which replaying
// the dropped windows does.
func (r *ring[T]) drop(k int) { r.n -= min(k, r.n) }

// last visits the most recent min(k, n) entries, oldest of them first.
func (r *ring[T]) last(k int, visit func(T)) int {
	k = min(k, r.n)
	start := r.head + r.n - k
	for i := 0; i < k; i++ {
		visit(r.buf[(start+i)%len(r.buf)])
	}
	return k
}

// apiSample is one window's error contribution attributed to one API.
type apiSample struct {
	// err is the window's aggregate sMAPE weighted by the API's traffic
	// share that window; share is the share itself. The rolling attributed
	// error is Σerr/Σshare.
	err, share float64
}

// board is the scoreboard of one model generation.
type board struct {
	version int
	// pairs are the scored pairs in sorted order (DiskUsage excluded);
	// every scored window appends one sample per pair, so rings stay
	// aligned.
	pairs    []app.Pair
	byPair   map[app.Pair]*ring[sample]
	apiNames []string
	byAPI    map[string]*ring[apiSample]
	// agg holds one entry per scored window, in window order.
	agg *ring[window]
	// scored counts every window this board ever scored (not just
	// resident ones); scoredTo is the absolute index one past the last.
	scored   int
	scoredTo int
	// tail counts the windows of an incomplete last chunk, which end at
	// scoredTo; tailAPI how many entries they pushed to each API ring. The
	// next pass drops them and replays their chunk from its start.
	tail    int
	tailAPI map[string]int
	// delta is the model's interval confidence level; qUp the upper
	// quantile its Up head targets.
	delta, qUp float64
	// chunk is the effective scoring chunk length (config override or the
	// model's ChunkLen).
	chunk int
	// verdict is the last one Verdict took on this board; nil before.
	verdict *Verdict
}

// FinalSummary is the compact score a generation leaves behind at swap.
type FinalSummary struct {
	Version       int `json:"version"`
	WindowsScored int `json:"windows_scored"`
	// SMAPE and Coverage are over the longest horizon at finalization.
	SMAPE    float64 `json:"smape"`
	Coverage float64 `json:"coverage"`
}

// PairScore is one (component,resource) row of a horizon report.
type PairScore struct {
	MAE      float64 `json:"mae"`
	SMAPE    float64 `json:"smape"`
	Coverage float64 `json:"coverage"`
	Unit     string  `json:"unit"`
}

// HorizonReport is the scoreboard over one sliding horizon.
type HorizonReport struct {
	// Label names the horizon ("1h"); Windows is how many scored windows
	// it actually covers (≤ the horizon's window count).
	Label   string `json:"label"`
	Windows int    `json:"windows"`
	// SMAPE is the aggregate symmetric error in percent; Coverage the
	// empirical fraction of actuals inside [Low, Up] (target: the model's
	// delta); PinballUp the mean pinball loss of the upper quantile head;
	// UnknownPathFrac the mean fraction of span visits on invocation paths
	// the model has never seen.
	SMAPE           float64              `json:"smape"`
	Coverage        float64              `json:"coverage"`
	PinballUp       float64              `json:"pinball_up"`
	UnknownPathFrac float64              `json:"unknown_path_frac"`
	Pairs           map[string]PairScore `json:"pairs"`
	// APIs is the per-API attributed sMAPE: each window's aggregate error
	// split by traffic share.
	APIs map[string]float64 `json:"apis,omitempty"`
}

// Report is the GET /v1/quality document.
type Report struct {
	Version       int     `json:"version"`
	WindowSeconds float64 `json:"window_seconds"`
	ChunkWindows  int     `json:"chunk_windows"`
	WindowsScored int     `json:"windows_scored"`
	ScoredTo      int     `json:"scored_to_window"`
	// Delta is the interval confidence level the coverage column targets;
	// QUp the upper quantile the pinball column scores.
	Delta float64 `json:"delta"`
	QUp   float64 `json:"q_up"`
	// Summary is the traffic light: "green", "yellow", "red", or "empty"
	// when nothing has been scored yet.
	Summary string `json:"summary"`
	// Verdict is the last early-retrain verdict taken on this board.
	Verdict  *Verdict        `json:"verdict,omitempty"`
	Horizons []HorizonReport `json:"horizons"`
	// Previous is the predecessor generation's final score, for
	// before/after comparison across a serving swap.
	Previous *FinalSummary `json:"previous,omitempty"`
}

// Verdict is the early-retrain decision over the windows a generation has
// not trained on. It trips (Reason non-empty) on the first of three bounds
// that holds: an unknown-path fraction above 0.05 (topology drift), an
// interval coverage below 0.5, or a mean sMAPE above Config.SMAPEThreshold.
type Verdict struct {
	Windows         int     `json:"windows"`
	UnknownPathFrac float64 `json:"unknown_path_frac"`
	Coverage        float64 `json:"coverage"`
	SMAPE           float64 `json:"smape"`
	Reason          string  `json:"reason,omitempty"`
}

// Scorer shadow-scores the active model generation against arriving
// telemetry. Safe for concurrent use; CatchUp passes serialize.
type Scorer struct {
	cfg  Config
	deps Deps

	mSMAPE   *obs.GaugeVec
	mAggrS   *obs.GaugeVec
	mCover   *obs.GaugeVec
	mPinball *obs.GaugeVec
	mUnknown *obs.GaugeVec
	mScored  *obs.Counter
	mRegr    *obs.Gauge

	mu   sync.Mutex
	cur  *board
	prev *FinalSummary
}

// New builds a Scorer. deps.Source and deps.Active must be non-nil.
func New(cfg Config, deps Deps) *Scorer {
	if len(cfg.Horizons) == 0 {
		cfg.Horizons = append([]time.Duration(nil), DefaultHorizons...)
	}
	sort.Slice(cfg.Horizons, func(i, j int) bool { return cfg.Horizons[i] < cfg.Horizons[j] })
	if cfg.SMAPEThreshold <= 0 {
		cfg.SMAPEThreshold = DefaultSMAPEThreshold
	}
	s := &Scorer{cfg: cfg, deps: deps}
	if reg := deps.Metrics; reg != nil {
		s.mSMAPE = reg.GaugeVec("deeprest_quality_smape",
			"Rolling shadow-scoring sMAPE (percent) per component/resource over the shortest horizon.",
			"component", "resource")
		s.mAggrS = reg.GaugeVec("deeprest_quality_smape_aggregate",
			"Rolling aggregate shadow-scoring sMAPE (percent) per horizon.", "horizon")
		s.mCover = reg.GaugeVec("deeprest_quality_coverage",
			"Empirical confidence-interval coverage per horizon (target: model delta).", "horizon")
		s.mPinball = reg.GaugeVec("deeprest_quality_pinball_up",
			"Mean pinball loss of the upper quantile head per horizon.", "horizon")
		s.mUnknown = reg.GaugeVec("deeprest_quality_unknown_path_frac",
			"Mean fraction of span visits on invocation paths the active model has never seen, per horizon.", "horizon")
		s.mScored = reg.Counter("deeprest_quality_windows_scored_total",
			"Telemetry windows shadow-scored against the active model generation.")
		s.mRegr = reg.Gauge("deeprest_quality_regressed",
			"1 while the last early-retrain verdict on the active generation tripped, else 0.")
	}
	return s
}

// horizonWindows converts the configured horizons to window counts (≥1),
// clamped to the retention horizon so rings evict in lockstep with telemetry.
func (s *Scorer) horizonWindows() []int {
	ws := s.deps.Source.WindowSeconds()
	if ws <= 0 {
		ws = 1
	}
	out := make([]int, len(s.cfg.Horizons))
	for i, h := range s.cfg.Horizons {
		n := int(math.Round(h.Seconds() / ws))
		if n < 1 {
			n = 1
		}
		if s.cfg.Retention > 0 && n > s.cfg.Retention {
			n = s.cfg.Retention
		}
		out[i] = n
	}
	return out
}

// horizonLabel renders a horizon duration compactly ("1h", "90m", "24h").
func horizonLabel(d time.Duration) string {
	if d%time.Hour == 0 {
		return fmt.Sprintf("%dh", int(d/time.Hour))
	}
	if d%time.Minute == 0 {
		return fmt.Sprintf("%dm", int(d/time.Minute))
	}
	return d.String()
}

// newBoard starts a fresh scoreboard for one generation.
func (s *Scorer) newBoard(version int, sys *core.System, capacity int) *board {
	model := sys.Model()
	b := &board{
		version: version,
		byPair:  map[app.Pair]*ring[sample]{},
		byAPI:   map[string]*ring[apiSample]{},
		agg:     newRing[window](capacity),
		delta:   model.Cfg.Delta,
		qUp:     loss.Quantiles(model.Cfg.Delta)[2],
	}
	for _, p := range model.Pairs {
		if p.Resource == app.DiskUsage {
			// Monotone counters: sMAPE against a cumulative series is
			// dominated by the running total, not prediction skill.
			continue
		}
		b.pairs = append(b.pairs, p)
		b.byPair[p] = newRing[sample](capacity)
	}
	sort.Slice(b.pairs, func(i, j int) bool {
		if b.pairs[i].Component != b.pairs[j].Component {
			return b.pairs[i].Component < b.pairs[j].Component
		}
		return b.pairs[i].Resource < b.pairs[j].Resource
	})
	return b
}

// apiRing fetches or creates the attribution ring for one API, keeping
// apiNames sorted for deterministic aggregation order.
func (b *board) apiRing(name string, capacity int) *ring[apiSample] {
	if r, ok := b.byAPI[name]; ok {
		return r
	}
	r := newRing[apiSample](capacity)
	b.byAPI[name] = r
	i := sort.SearchStrings(b.apiNames, name)
	b.apiNames = append(b.apiNames, "")
	copy(b.apiNames[i+1:], b.apiNames[i:])
	b.apiNames[i] = name
	return r
}

// CatchUp scores every still-resident window that has not been scored yet,
// through the newest, and returns how many windows it newly scored. It is
// the single write path: the pipeline's drift tick and GET /v1/quality call
// it, and passes serialize on the scorer lock. A version change finalizes
// the current board first, so scores never mix generations; the new board
// starts at the start of the chunk the old one stopped in.
func (s *Scorer) CatchUp(ctx context.Context) int {
	version, sys := s.deps.Active()
	if sys == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	horizons := s.horizonWindows()
	capacity := horizons[len(horizons)-1]

	if s.cur == nil || s.cur.version != version {
		from := 0
		if s.cur != nil {
			from = s.cur.scoredTo
		}
		s.finalizeLocked(horizons)
		s.cur = s.newBoard(version, sys, capacity)
		s.cur.chunk = s.cfg.Chunk
		if s.cur.chunk <= 0 {
			s.cur.chunk = max(sys.Model().Cfg.ChunkLen, 1)
		}
		s.cur.scoredTo = from - from%s.cur.chunk
		s.mRegr.Set(0)
	}
	b := s.cur
	if len(b.pairs) == 0 {
		return 0
	}
	chunk := b.chunk
	n := s.deps.Source.NumWindows()
	// Replay the incomplete last chunk from its start. When that start has
	// been evicted the chunk cannot be replayed: what was scored of it
	// stays, and scoring resumes at the first chunk boundary at or after
	// the retention floor.
	lo := b.scoredTo - b.tail
	if oldest := s.deps.Source.OldestWindow(); lo < oldest {
		b.tail, b.tailAPI = 0, nil
		lo = (max(b.scoredTo, oldest) + chunk - 1) / chunk * chunk
	}
	if n <= b.scoredTo || lo >= n {
		return 0
	}

	ctx, span := s.deps.Tracer.Start(ctx, "quality.score")
	defer span.End()

	prevTo := b.scoredTo
	b.dropTail()
	fresh := 0
	for ; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		if err := s.scoreChunkLocked(b, sys, version, lo, hi, capacity); err != nil {
			span.SetErr(err)
			if s.deps.Logger != nil {
				s.deps.Logger.Warn("quality: scoring chunk failed",
					"from", lo, "to", hi, "err", err, "span_id", obs.SpanID(ctx))
			}
			break
		}
		fresh += max(hi-max(lo, prevTo), 0)
	}
	if fresh > 0 {
		s.mScored.Add(uint64(fresh))
		s.exportLocked(b, horizons)
		if s.deps.Logger != nil {
			s.deps.Logger.Debug("quality: scored",
				"windows", fresh, "scored_to", b.scoredTo, "version", version,
				"span_id", obs.SpanID(ctx))
		}
	}
	span.SetWindows(fresh)
	return fresh
}

// dropTail removes the samples of an incomplete last chunk, so the pass that
// follows can replay the chunk from its start.
func (b *board) dropTail() {
	if b.tail == 0 {
		return
	}
	b.agg.drop(b.tail)
	for _, p := range b.pairs {
		b.byPair[p].drop(b.tail)
	}
	for name, k := range b.tailAPI {
		b.byAPI[name].drop(k)
	}
	b.scored -= b.tail
	b.scoredTo -= b.tail
	b.tail, b.tailAPI = 0, nil
}

// scoreChunkLocked replays windows [lo, hi) of one chunk through sys, from
// the chunk's start, and appends one sample per pair per window. A chunk
// that ends short of its length becomes the board's tail.
func (s *Scorer) scoreChunkLocked(b *board, sys *core.System, version int, lo, hi, capacity int) error {
	series, err := s.deps.Source.Features(version, sys.Extractor(), lo, hi)
	if err != nil {
		return fmt.Errorf("features: %w", err)
	}
	usage, err := s.deps.Source.Metrics(lo, hi)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	windows, err := s.deps.Source.Traces(lo, hi)
	if err != nil {
		return fmt.Errorf("traces: %w", err)
	}
	est, err := sys.ExpectedUtilizationVectors(series)
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	var tailAPI map[string]int
	if hi-lo < b.chunk {
		tailAPI = map[string]int{}
	}

	for w := 0; w < hi-lo; w++ {
		// Aggregate sMAPE for this window: mean of per-pair symmetric
		// errors, iterated in sorted pair order so float summation is
		// deterministic.
		sum, cnt := 0.0, 0
		for _, p := range b.pairs {
			e, ok := est[p]
			actSeries := usage[p]
			if !ok || w >= len(e.Exp) || w >= len(actSeries) {
				continue
			}
			sm := sample{exp: e.Exp[w], low: e.Low[w], up: e.Up[w], act: actSeries[w]}
			b.byPair[p].push(sm)
			den := (math.Abs(sm.exp) + math.Abs(sm.act)) / 2
			if den > 0 {
				sum += 100 * math.Abs(sm.exp-sm.act) / den
				cnt++
			}
		}
		win := window{index: lo + w}
		if cnt > 0 {
			win.smape = sum / float64(cnt)
		}
		visits := series[w].Unknown
		for _, c := range series[w].Counts {
			visits += c
		}
		if visits > 0 {
			win.unknown = series[w].Unknown / visits
		}
		b.agg.push(win)
		b.scored++

		// Attribute the window's aggregate error to APIs by traffic share.
		total := 0
		shares := map[string]int{}
		for _, batch := range windows[w] {
			shares[batch.Trace.API] += batch.Count
			total += batch.Count
		}
		if total > 0 {
			names := make([]string, 0, len(shares))
			for name := range shares {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				share := float64(shares[name]) / float64(total)
				b.apiRing(name, capacity).push(apiSample{err: win.smape * share, share: share})
				if tailAPI != nil {
					tailAPI[name]++
				}
			}
		}
	}
	b.scoredTo = hi
	if tailAPI != nil {
		b.tail, b.tailAPI = hi-lo, tailAPI
	}
	return nil
}

// exportLocked refreshes the Prometheus gauges from the current rings: the
// per-pair sMAPE over the shortest horizon, and the aggregate series per
// horizon.
func (s *Scorer) exportLocked(b *board, horizons []int) {
	if s.mSMAPE == nil {
		return
	}
	shortest := horizons[0]
	for _, p := range b.pairs {
		s.mSMAPE.With(p.Component, p.Resource.String()).Set(pairScore(b.byPair[p], shortest, b.qUp).SMAPE)
	}
	for i, h := range horizons {
		label := horizonLabel(s.cfg.Horizons[i])
		agg := s.aggregateLocked(b, h)
		s.mAggrS.With(label).Set(agg.SMAPE)
		s.mCover.With(label).Set(agg.Coverage)
		s.mPinball.With(label).Set(agg.PinballUp)
		s.mUnknown.With(label).Set(agg.UnknownPathFrac)
	}
}

// pairScore folds the last h samples of one pair ring into a PairScore.
func pairScore(r *ring[sample], h int, qUp float64) PairScore {
	var mae, smape, pinball float64
	covered, cnt := 0, 0
	r.last(h, func(sm sample) {
		mae += math.Abs(sm.exp - sm.act)
		den := (math.Abs(sm.exp) + math.Abs(sm.act)) / 2
		if den > 0 {
			smape += 100 * math.Abs(sm.exp-sm.act) / den
		}
		if sm.act >= sm.low && sm.act <= sm.up {
			covered++
		}
		pinball += loss.Pinball(sm.act-sm.up, qUp)
		cnt++
	})
	if cnt == 0 {
		return PairScore{}
	}
	f := float64(cnt)
	return PairScore{MAE: mae / f, SMAPE: smape / f, Coverage: float64(covered) / f}
}

// aggregate is the cross-pair fold of one horizon.
type aggregate struct {
	Windows         int
	SMAPE           float64
	Coverage        float64
	PinballUp       float64
	UnknownPathFrac float64
}

// aggregateLocked folds all pair rings over the last h windows.
func (s *Scorer) aggregateLocked(b *board, h int) aggregate {
	var smape, unknown float64
	windows := b.agg.last(h, func(w window) { smape += w.smape; unknown += w.unknown })
	var pinball float64
	covered, cnt := 0, 0
	for _, p := range b.pairs {
		b.byPair[p].last(h, func(sm sample) {
			if sm.act >= sm.low && sm.act <= sm.up {
				covered++
			}
			pinball += loss.Pinball(sm.act-sm.up, b.qUp)
			cnt++
		})
	}
	out := aggregate{Windows: windows}
	if windows > 0 {
		out.SMAPE = smape / float64(windows)
		out.UnknownPathFrac = unknown / float64(windows)
	}
	if cnt > 0 {
		out.Coverage = float64(covered) / float64(cnt)
		out.PinballUp = pinball / float64(cnt)
	}
	return out
}

// Verdict decides whether the active generation still explains live
// telemetry, over the board's windows at or after trainedTo — the windows
// the generation has not trained on. It returns nil while fewer than
// MinVerdictWindows of them are scored; otherwise the verdict, which also
// sets deeprest_quality_regressed. internal/pipeline asks for it on its
// drift tick, after a CatchUp.
func (s *Scorer) Verdict(trainedTo int) *Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.cur
	if b == nil {
		return nil
	}
	k := 0
	b.agg.last(b.agg.n, func(w window) {
		if w.index >= trainedTo {
			k++
		}
	})
	if k < MinVerdictWindows {
		return nil
	}
	agg := s.aggregateLocked(b, k)
	v := &Verdict{Windows: k, UnknownPathFrac: agg.UnknownPathFrac, Coverage: agg.Coverage, SMAPE: agg.SMAPE}
	switch {
	case v.UnknownPathFrac > maxUnknownPathFrac:
		v.Reason = fmt.Sprintf("unknown-path fraction %.3f exceeds %.3f (topology drift)", v.UnknownPathFrac, maxUnknownPathFrac)
	case v.Coverage < minCoverage:
		v.Reason = fmt.Sprintf("interval coverage %.2f below %.2f", v.Coverage, minCoverage)
	case v.SMAPE > s.cfg.SMAPEThreshold:
		v.Reason = fmt.Sprintf("mean sMAPE %.1f%% exceeds %.1f%%", v.SMAPE, s.cfg.SMAPEThreshold)
	}
	b.verdict = v
	if v.Reason != "" {
		s.mRegr.Set(1)
	} else {
		s.mRegr.Set(0)
	}
	return v
}

// finalizeLocked compacts the current board (if it scored anything) into the
// predecessor summary slot.
func (s *Scorer) finalizeLocked(horizons []int) {
	if s.cur == nil || s.cur.scored == 0 {
		return
	}
	longest := horizons[len(horizons)-1]
	agg := s.aggregateLocked(s.cur, longest)
	s.prev = &FinalSummary{
		Version:       s.cur.version,
		WindowsScored: s.cur.scored,
		SMAPE:         agg.SMAPE,
		Coverage:      agg.Coverage,
	}
}

// Report renders the scoreboard. Safe to call before any scoring; the
// summary is then "empty".
func (s *Scorer) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()

	rep := Report{
		WindowSeconds: s.deps.Source.WindowSeconds(),
		Summary:       "empty",
		Previous:      s.prev,
	}
	b := s.cur
	if b == nil || b.scored == 0 {
		return rep
	}
	rep.Version = b.version
	rep.WindowsScored = b.scored
	rep.ScoredTo = b.scoredTo
	rep.Delta = b.delta
	rep.QUp = b.qUp
	rep.ChunkWindows = b.chunk

	horizons := s.horizonWindows()
	for i, h := range horizons {
		hr := HorizonReport{
			Label: horizonLabel(s.cfg.Horizons[i]),
			Pairs: map[string]PairScore{},
		}
		agg := s.aggregateLocked(b, h)
		hr.Windows = agg.Windows
		hr.SMAPE = agg.SMAPE
		hr.Coverage = agg.Coverage
		hr.PinballUp = agg.PinballUp
		hr.UnknownPathFrac = agg.UnknownPathFrac
		for _, p := range b.pairs {
			ps := pairScore(b.byPair[p], h, b.qUp)
			ps.Unit = p.Resource.Unit()
			hr.Pairs[p.String()] = ps
		}
		for _, name := range b.apiNames {
			var errSum, shareSum float64
			b.byAPI[name].last(h, func(a apiSample) { errSum += a.err; shareSum += a.share })
			if shareSum > 0 {
				if hr.APIs == nil {
					hr.APIs = map[string]float64{}
				}
				hr.APIs[name] = errSum / shareSum
			}
		}
		rep.Horizons = append(rep.Horizons, hr)
	}

	rep.Verdict = b.verdict
	rep.Summary = trafficLight(rep)
	return rep
}

// trafficLight folds the longest populated horizon into green/yellow/red.
// Green: error low and the interval roughly holds its nominal coverage.
// Red: the last verdict tripped, error is severe, or the interval has
// collapsed. Everything between is yellow.
func trafficLight(rep Report) string {
	if len(rep.Horizons) == 0 {
		return "empty"
	}
	h := rep.Horizons[len(rep.Horizons)-1]
	if h.Windows == 0 {
		return "empty"
	}
	switch {
	case rep.Verdict != nil && rep.Verdict.Reason != "" || h.SMAPE >= 40 || h.Coverage < 0.5:
		return "red"
	case h.SMAPE < 15 && h.Coverage >= rep.Delta-0.2:
		return "green"
	default:
		return "yellow"
	}
}
