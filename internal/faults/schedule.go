package faults

// Schedule answers fault queries for a compiled Spec. Every answer is a
// pure function of (seed, injector index, window, unit): no RNG state is
// shared with callers, no call order matters, and concurrent queries are
// safe. A nil *Schedule is valid and injects nothing, so consumers thread
// it without guards.
type Schedule struct {
	spec Spec
}

// NewSchedule compiles a spec. The spec is copied; later mutation of the
// caller's Spec does not affect the schedule.
func NewSchedule(spec *Spec) *Schedule {
	if spec == nil {
		return nil
	}
	s := &Schedule{spec: Spec{Seed: spec.Seed}}
	s.spec.Injectors = append([]Injector(nil), spec.Injectors...)
	return s
}

// Compile parses a spec string and builds its schedule in one step — the
// form the -fault-spec flags consume. An empty string yields a nil schedule
// (no faults).
func Compile(specText string) (*Schedule, error) {
	spec, err := Parse(specText)
	if err != nil {
		return nil, err
	}
	if len(spec.Injectors) == 0 {
		return nil, nil
	}
	return NewSchedule(spec), nil
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll draws the deterministic uniform [0, 1) variate of one (injector,
// window, unit) coordinate. Chaining mix64 over the coordinates gives
// independent streams per injector and per window with no shared state.
func (s *Schedule) roll(injector, window, unit int) float64 {
	h := mix64(uint64(s.spec.Seed))
	h = mix64(h ^ uint64(injector+1))
	h = mix64(h ^ uint64(window+1))
	h = mix64(h ^ uint64(unit+1))
	return float64(h>>11) / (1 << 53)
}

// active reports whether injector in covers window (or attempt) w.
func active(in Injector, w int) bool {
	return w >= in.From && (in.To == 0 || w < in.To)
}

// matches reports whether injector in targets component comp ("" in the
// injector matches every component).
func matches(in Injector, comp string) bool {
	return in.Component == "" || in.Component == comp
}

// fires reports whether a probabilistic injector fires at window w for the
// given unit. Prob 0 means "always, while in range".
func (s *Schedule) fires(i int, in Injector, w, unit int) bool {
	if !active(in, w) {
		return false
	}
	return in.Prob == 0 || s.roll(i, w, unit) < in.Prob
}

// Crashed reports whether comp is down in window w.
func (s *Schedule) Crashed(comp string, w int) bool {
	if s == nil {
		return false
	}
	for i, in := range s.spec.Injectors {
		if in.Kind == Crash && in.Component == comp && s.fires(i, in, w, 0) {
			return true
		}
	}
	return false
}

// CPUFactor returns the product of the capacity multipliers throttling comp
// in window w (1 when unthrottled).
func (s *Schedule) CPUFactor(comp string, w int) float64 {
	f := 1.0
	if s == nil {
		return f
	}
	for i, in := range s.spec.Injectors {
		if in.Kind == Throttle && matches(in, comp) && s.fires(i, in, w, 0) {
			f *= in.Factor
		}
	}
	return f
}

// LatencyFactor returns the product of the queue-inflation multipliers on
// comp in window w (1 when unaffected, ≥ 1 otherwise).
func (s *Schedule) LatencyFactor(comp string, w int) float64 {
	f := 1.0
	if s == nil {
		return f
	}
	for i, in := range s.spec.Injectors {
		if in.Kind == Latency && matches(in, comp) && s.fires(i, in, w, 0) {
			f *= in.Factor
		}
	}
	return f
}

// ScrapeGapped reports whether comp's metric scrape is lost in window w.
func (s *Schedule) ScrapeGapped(comp string, w int) bool {
	if s == nil {
		return false
	}
	for i, in := range s.spec.Injectors {
		if in.Kind == ScrapeGap && matches(in, comp) && s.fires(i, in, w, 0) {
			return true
		}
	}
	return false
}

// DroppedSpans returns how many of a batch's count requests lose their
// spans to collector faults in window w. unit distinguishes batches within
// the window so per-batch rounding stays independent. The result never
// exceeds count.
func (s *Schedule) DroppedSpans(w, unit, count int) int {
	return s.collectorLoss(DropSpans, w, unit, count)
}

// DuplicatedSpans returns how many duplicate requests the collector mints
// for a batch of count requests in window w.
func (s *Schedule) DuplicatedSpans(w, unit, count int) int {
	return s.collectorLoss(DupSpans, w, unit, count)
}

// collectorLoss converts a fractional factor into a deterministic integer
// perturbation: the expectation round(count·factor) with the fractional
// remainder resolved by an independent roll, so small batches still see
// occasional loss rather than never rounding up.
func (s *Schedule) collectorLoss(kind Kind, w, unit, count int) int {
	if s == nil || count <= 0 {
		return 0
	}
	total := 0
	for i, in := range s.spec.Injectors {
		if in.Kind != kind || !active(in, w) || in.Factor == 0 {
			continue
		}
		exp := float64(count) * in.Factor
		n := int(exp)
		if s.roll(i, w, unit) < exp-float64(n) {
			n++
		}
		total += n
	}
	if total > count {
		total = count
	}
	return total
}

// Skew returns how many windows the traces emitted in window w are delayed
// before the collector delivers them (0 = on time).
func (s *Schedule) Skew(w int) int {
	if s == nil {
		return 0
	}
	k := 0
	for i, in := range s.spec.Injectors {
		if in.Kind == ClockSkew && s.fires(i, in, w, 0) {
			k += in.Skew
		}
	}
	return k
}

// FailTraining reports whether training attempt (1-based, monotonically
// counted by the pipeline) is injected to fail.
func (s *Schedule) FailTraining(attempt int) bool {
	if s == nil {
		return false
	}
	for i, in := range s.spec.Injectors {
		if in.Kind == RetrainFail && s.fires(i, in, attempt, 0) {
			return true
		}
	}
	return false
}

// CorruptCheckpoint reports whether the checkpoint of generation version is
// injected to rot on disk after a successful write.
func (s *Schedule) CorruptCheckpoint(version int) bool {
	if s == nil {
		return false
	}
	for i, in := range s.spec.Injectors {
		if in.Kind == CkptCorrupt && s.fires(i, in, version, 0) {
			return true
		}
	}
	return false
}

// TouchesSim reports whether the schedule contains any cluster-facing
// injector — lets a daemon warn when a spec only makes sense against the
// simulator.
func (s *Schedule) TouchesSim() bool {
	if s == nil {
		return false
	}
	simKinds := map[Kind]bool{
		Crash: true, Throttle: true, Latency: true, DropSpans: true,
		DupSpans: true, ScrapeGap: true, ClockSkew: true,
	}
	for _, in := range s.spec.Injectors {
		if simKinds[in.Kind] {
			return true
		}
	}
	return false
}
