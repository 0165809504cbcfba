// Package faults is the deterministic fault-injection subsystem: a textual
// scenario language, a parser, and a seeded Schedule that turns a Spec into
// reproducible per-window fault decisions.
//
// DeepRest's second query mode is an application sanity check — the system
// must keep estimating (and flagging) when the application misbehaves. The
// simulator only ever produced healthy traffic and the serving stack assumed
// every retrain and checkpoint succeeds; this package is the substrate that
// lets every layer rehearse partial failure:
//
//   - internal/sim consumes the cluster-facing injectors (crash, throttle,
//     latency, dropspans, dupspans, scrapegap, clockskew) to perturb the
//     emitted traces and metrics;
//   - internal/pipeline consumes the control-plane injectors (retrainfail,
//     ckptcorrupt) to fail training generations and rot checkpoints on disk.
//
// Determinism contract: every decision a Schedule makes is a pure function
// of (Spec.Seed, injector index, window/attempt, unit). No shared RNG state
// is consumed, so the same seed + spec produces bit-identical fault
// schedules regardless of call order, goroutine interleaving, or how many
// other random draws the host system performed. Two simulator runs with the
// same cluster seed and the same fault spec emit bit-identical telemetry.
//
// Spec text format (flag-friendly, one line):
//
//	seed=42;crash:comp=DB,from=10,to=15;throttle:comp=Svc,from=0,factor=0.5
//
// Clauses are ';'-separated. An optional leading "seed=N" sets the schedule
// seed; every other clause is "kind" or "kind:key=val,key=val,...". Keys:
//
//	comp=NAME   target component ("" = every component, where allowed)
//	from=N      first affected window/attempt (default 0)
//	to=N        one past the last affected window/attempt (0 = open-ended)
//	prob=P      per-window/attempt firing probability in [0,1] (0 = always)
//	factor=F    magnitude (capacity multiplier, inflation, or fraction)
//	skew=N      clock skew in windows
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies one fault injector type.
type Kind string

// Cluster-facing kinds (consumed by internal/sim).
const (
	// Crash takes a component down for [From, To) windows: its requests
	// fail (no traces, no demand), its scrapes read zero, and its caches
	// restart cold.
	Crash Kind = "crash"
	// Throttle multiplies a component's CPU capacity by Factor (0 < F ≤ 1),
	// amplifying queuing inflation under the same load.
	Throttle Kind = "throttle"
	// Latency multiplies a component's queuing coefficient by Factor
	// (F ≥ 1): the same load queues as if the component were slower.
	Latency Kind = "latency"
	// DropSpans makes the trace collector lose a Factor fraction of each
	// batch's requests: resources are consumed but spans never arrive.
	DropSpans Kind = "dropspans"
	// DupSpans makes the collector deliver a Factor fraction of duplicate
	// spans: traffic looks heavier than the resources it consumed.
	DupSpans Kind = "dupspans"
	// ScrapeGap drops a component's metric scrape for the window (the
	// store records zero), with per-window probability Prob.
	ScrapeGap Kind = "scrapegap"
	// ClockSkew delays trace delivery by Skew windows relative to metric
	// scrapes, desynchronising the two telemetry streams.
	ClockSkew Kind = "clockskew"
)

// Control-plane kinds (consumed by internal/pipeline).
const (
	// RetrainFail fails training attempts in [From, To) with probability
	// Prob (0 = every attempt in range).
	RetrainFail Kind = "retrainfail"
	// CkptCorrupt flips bytes in a just-written checkpoint for generation
	// versions in [From, To) with probability Prob — latent disk
	// corruption discovered only at recovery time.
	CkptCorrupt Kind = "ckptcorrupt"
)

// Injector is one parsed fault clause.
type Injector struct {
	Kind      Kind
	Component string
	// From and To bound the affected windows (or training attempts /
	// checkpoint versions for control-plane kinds) as a half-open
	// interval [From, To); To == 0 means open-ended.
	From, To int
	// Prob is the per-window (or per-attempt) firing probability for
	// probabilistic kinds; 0 means "always, while in range".
	Prob float64
	// Factor is the kind-specific magnitude: capacity multiplier
	// (throttle), queue inflation (latency), or dropped/duplicated
	// fraction (dropspans, dupspans).
	Factor float64
	// Skew is the trace delay in windows (clockskew only).
	Skew int
}

// Spec is a parsed fault scenario: a seed plus its injectors.
type Spec struct {
	Seed      int64
	Injectors []Injector
}

// Parse decodes the textual spec format. An empty string parses to an empty
// spec (no faults).
func Parse(s string) (*Spec, error) {
	spec := &Spec{}
	for ci, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: clause %d: bad seed %q", ci, v)
			}
			spec.Seed = seed
			continue
		}
		in, err := parseInjector(clause)
		if err != nil {
			return nil, fmt.Errorf("faults: clause %d: %w", ci, err)
		}
		spec.Injectors = append(spec.Injectors, in)
	}
	return spec, nil
}

// MustParse is Parse for compile-time-constant specs in tests and examples.
func MustParse(s string) *Spec {
	spec, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return spec
}

func parseInjector(clause string) (Injector, error) {
	kindStr, params, _ := strings.Cut(clause, ":")
	in := Injector{Kind: Kind(strings.TrimSpace(kindStr))}
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return in, fmt.Errorf("parameter %q is not key=value", kv)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "comp":
				in.Component = val
			case "from":
				in.From, err = parseBoundedInt(val)
			case "to":
				in.To, err = parseBoundedInt(val)
			case "prob":
				in.Prob, err = strconv.ParseFloat(val, 64)
			case "factor":
				in.Factor, err = strconv.ParseFloat(val, 64)
			case "skew":
				in.Skew, err = parseBoundedInt(val)
			default:
				return in, fmt.Errorf("unknown parameter %q", key)
			}
			if err != nil {
				return in, fmt.Errorf("bad %s value %q", key, val)
			}
		}
	}
	return in, in.validate()
}

// maxBound caps window/attempt indices so arithmetic on them (skew offsets,
// interval ends) cannot overflow regardless of the input.
const maxBound = 1 << 30

func parseBoundedInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > maxBound {
		return 0, fmt.Errorf("out of range [0, %d]", maxBound)
	}
	return n, nil
}

// validate enforces per-kind parameter constraints so a Schedule never has
// to defend against nonsensical magnitudes at query time.
func (in Injector) validate() error {
	if in.To != 0 && in.To <= in.From {
		return fmt.Errorf("%s: empty interval [%d, %d)", in.Kind, in.From, in.To)
	}
	if math.IsNaN(in.Prob) || math.IsNaN(in.Factor) ||
		math.IsInf(in.Prob, 0) || math.IsInf(in.Factor, 0) {
		return fmt.Errorf("%s: prob and factor must be finite", in.Kind)
	}
	if in.Prob < 0 || in.Prob > 1 {
		return fmt.Errorf("%s: prob %v outside [0, 1]", in.Kind, in.Prob)
	}
	switch in.Kind {
	case Crash:
		if in.Component == "" {
			return fmt.Errorf("crash: comp is required")
		}
	case Throttle:
		if in.Component == "" {
			return fmt.Errorf("throttle: comp is required")
		}
		if in.Factor <= 0 || in.Factor > 1 {
			return fmt.Errorf("throttle: factor %v outside (0, 1]", in.Factor)
		}
	case Latency:
		if in.Component == "" {
			return fmt.Errorf("latency: comp is required")
		}
		if in.Factor < 1 {
			return fmt.Errorf("latency: factor %v must be ≥ 1", in.Factor)
		}
	case DropSpans, DupSpans:
		if in.Factor < 0 || in.Factor > 1 {
			return fmt.Errorf("%s: factor %v outside [0, 1]", in.Kind, in.Factor)
		}
	case ScrapeGap:
		// comp "" means every component; all parameters optional.
	case ClockSkew:
		if in.Skew < 1 {
			return fmt.Errorf("clockskew: skew %d must be ≥ 1", in.Skew)
		}
	case RetrainFail, CkptCorrupt:
		// Interval and prob only; both optional.
	default:
		return fmt.Errorf("unknown injector kind %q", in.Kind)
	}
	return nil
}

// String renders the spec in canonical form: Parse(spec.String()) yields an
// identical spec, which the parser fuzz target pins as an invariant.
func (s *Spec) String() string {
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(s.Seed, 10))
	}
	for _, in := range s.Injectors {
		parts = append(parts, in.String())
	}
	return strings.Join(parts, ";")
}

// String renders one injector clause in canonical form.
func (in Injector) String() string {
	var kv []string
	if in.Component != "" {
		kv = append(kv, "comp="+in.Component)
	}
	if in.From != 0 {
		kv = append(kv, "from="+strconv.Itoa(in.From))
	}
	if in.To != 0 {
		kv = append(kv, "to="+strconv.Itoa(in.To))
	}
	if in.Prob != 0 {
		kv = append(kv, "prob="+strconv.FormatFloat(in.Prob, 'g', -1, 64))
	}
	if in.Factor != 0 {
		kv = append(kv, "factor="+strconv.FormatFloat(in.Factor, 'g', -1, 64))
	}
	if in.Skew != 0 {
		kv = append(kv, "skew="+strconv.Itoa(in.Skew))
	}
	if len(kv) == 0 {
		return string(in.Kind)
	}
	return string(in.Kind) + ":" + strings.Join(kv, ",")
}
