// Package buildinfo identifies the running build. The version is stamped at
// link time (go build -ldflags "-X repro/internal/buildinfo.Version=v1.2.3")
// and defaults to "dev" plus whatever VCS revision the Go toolchain embeds.
package buildinfo

import (
	"runtime"
	"runtime/debug"

	"repro/internal/nn/ad"
	"repro/internal/obs"
)

// Version is the release identity of this binary; overridden at link time.
var Version = "dev"

// Revision returns the VCS revision the toolchain embedded into the build
// ("" outside a VCS checkout or when built from a module zip).
func Revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return ""
}

// GoVersion returns the Go runtime the binary was built with.
func GoVersion() string { return runtime.Version() }

// String renders the full identity, e.g. "dev (abc123def456, go1.22.1)".
func String() string {
	if rev := Revision(); rev != "" {
		return Version + " (" + rev + ", " + GoVersion() + ")"
	}
	return Version + " (" + GoVersion() + ")"
}

// Register publishes the deeprest_build_info gauge: constant 1 with the
// build identity in labels, the standard Prometheus idiom for joining
// version metadata onto any other series — and beside it, in the same
// idiom, deeprest_kernel_info. Nil registry is a no-op;
// registration is idempotent like the rest of internal/obs.
func Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	// Build identity is per-process, not per-tenant: register through the
	// root view so a tenant-labelled registry never forks the family.
	reg = reg.Root()
	reg.GaugeVec("deeprest_build_info",
		"Build identity of the running deeprest binary (constant 1; the labels carry the information).",
		"version", "go_version").
		With(Version, GoVersion()).Set(1)
	// Which dense kernels this process selected at start-up: a host that
	// runs the portable loops (no AVX2, or YMM state not enabled by the OS)
	// spends 1.5–2× the CPU per estimate and must be visible, not silent.
	// So must one whose gate activations fell back to the scalar functions
	// (no FMA, or a math.Exp whose bits the four-lane kernel no longer has).
	reg.GaugeVec("deeprest_kernel_info",
		"Implementations selected at start-up, avx2 or go each: impl the estimator's dense kernels, gates its sigmoid and tanh (constant 1; the labels carry the information).",
		"impl", "gates").
		With(ad.KernelImpl(), ad.GateImpl()).Set(1)
}
