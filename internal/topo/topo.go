// Package topo makes application topologies data instead of code: a
// declarative JSON spec format (the topology DSL) for the microservice
// applications the simulator executes, plus a seeded generator that emits
// production-scale topologies on demand.
//
// The DSL half is a strict parser and a canonical encoder for Document, a
// faithful mirror of app.Spec extended with per-API traffic weights. Parsing
// is strict: unknown fields, type mismatches, and out-of-range values are
// rejected with line- and field-level errors, and every accepted document
// also passes app.Spec.Validate — Parse never returns a spec the simulator
// would refuse to deploy. Encoding is deterministic (fixed field order,
// shortest round-trip floats, zero-valued optionals omitted), so the same
// document always serialises to the same bytes. The three bundled
// applications are documents embedded from apps/ (see Resolve), each in
// canonical form.
//
// The generator half (Generate) turns a Config — seed plus size knobs —
// into a production-like topology: components in tiered layers (entry
// gateways → business-logic services → caches → stateful stores), each API
// owning a subtree of the logic tier with realistic irregular fan-out,
// shared hub services (auth/session-style) called across APIs, and shared
// backing stores picked with a power-law bias so a few hot stores serve
// many APIs, exactly the concentration production call graphs show. All
// randomness is a pure splitmix64 stream off Config.Seed — the same
// discipline as internal/faults — so a given (seed, size) reproduces the
// same document byte for byte on every platform.
package topo

import (
	"repro/internal/app"
	"repro/internal/workload"
)

// Document is a topology DSL document: an application spec plus the per-API
// traffic weights that give workload generators a default mix. It is the
// in-memory form of the JSON format handled by Parse and Encode.
type Document struct {
	// Name identifies the application.
	Name string
	// Components lists every component in declaration order.
	Components []ComponentDef
	// APIs lists every user-facing endpoint in declaration order.
	APIs []APIDef
}

// ComponentDef mirrors app.Component in the DSL.
type ComponentDef struct {
	Name     string
	Stateful bool
	// BaseCPU (millicores) and BaseMemory (MiB) are idle consumption;
	// CPUCapacity bounds queuing inflation; CacheMax and CacheDecay
	// configure cache-driven memory (see app.Component).
	BaseCPU, BaseMemory, CPUCapacity, CacheMax, CacheDecay float64
}

// APIDef mirrors app.API plus a traffic weight.
type APIDef struct {
	Name string
	// Weight is the API's relative share in the default traffic mix.
	// All-zero weights mean a uniform mix.
	Weight float64
	// PayloadCV is the per-request cost spread (see app.API).
	PayloadCV float64
	Templates []TemplateDef
}

// TemplateDef mirrors app.Template.
type TemplateDef struct {
	Prob float64
	Root *NodeDef
}

// NodeDef mirrors app.PathNode: one visit in an invocation-path template.
type NodeDef struct {
	Component string
	Operation string
	Cost      app.Cost
	Calls     []*NodeDef
}

// Spec converts the document to the simulator's application spec.
func (d *Document) Spec() *app.Spec {
	s := &app.Spec{Name: d.Name}
	for _, c := range d.Components {
		s.Components = append(s.Components, app.Component{
			Name:        c.Name,
			Stateful:    c.Stateful,
			BaseCPU:     c.BaseCPU,
			BaseMemory:  c.BaseMemory,
			CPUCapacity: c.CPUCapacity,
			CacheMax:    c.CacheMax,
			CacheDecay:  c.CacheDecay,
		})
	}
	for _, a := range d.APIs {
		api := app.API{Name: a.Name, PayloadCV: a.PayloadCV}
		for _, t := range a.Templates {
			api.Templates = append(api.Templates, app.Template{Prob: t.Prob, Root: t.Root.node()})
		}
		s.APIs = append(s.APIs, api)
	}
	return s
}

func (n *NodeDef) node() *app.PathNode {
	if n == nil {
		return nil
	}
	out := &app.PathNode{Component: n.Component, Operation: n.Operation, Cost: n.Cost}
	for _, c := range n.Calls {
		out.Children = append(out.Children, c.node())
	}
	return out
}

// Mix returns the document's default traffic mix. APIs carry relative
// weights; if no API declares one, the mix is uniform.
func (d *Document) Mix() workload.Mix {
	weighted := false
	for _, a := range d.APIs {
		if a.Weight > 0 {
			weighted = true
			break
		}
	}
	m := make(workload.Mix, len(d.APIs))
	for _, a := range d.APIs {
		if weighted {
			m[a.Name] = a.Weight
		} else {
			m[a.Name] = 1
		}
	}
	return m
}

// FromSpec lifts an application spec (and an optional traffic mix, stored
// as per-API weights) into a document, the inverse of Document.Spec. It is
// how `deeprest spec export` writes any resolved application to the DSL.
func FromSpec(spec *app.Spec, mix workload.Mix) *Document {
	d := &Document{Name: spec.Name}
	for _, c := range spec.Components {
		d.Components = append(d.Components, ComponentDef{
			Name:        c.Name,
			Stateful:    c.Stateful,
			BaseCPU:     c.BaseCPU,
			BaseMemory:  c.BaseMemory,
			CPUCapacity: c.CPUCapacity,
			CacheMax:    c.CacheMax,
			CacheDecay:  c.CacheDecay,
		})
	}
	for _, a := range spec.APIs {
		ad := APIDef{Name: a.Name, Weight: mix[a.Name], PayloadCV: a.PayloadCV}
		for _, t := range a.Templates {
			ad.Templates = append(ad.Templates, TemplateDef{Prob: t.Prob, Root: fromNode(t.Root)})
		}
		d.APIs = append(d.APIs, ad)
	}
	return d
}

func fromNode(n *app.PathNode) *NodeDef {
	if n == nil {
		return nil
	}
	out := &NodeDef{Component: n.Component, Operation: n.Operation, Cost: n.Cost}
	for _, c := range n.Children {
		out.Calls = append(out.Calls, fromNode(c))
	}
	return out
}

// Validate checks the document-level extras (traffic weights), then defers
// to app.Spec.Validate for the full application-consistency pass. Parse
// runs this automatically; it is exported for programmatically built
// documents.
func (d *Document) Validate() error {
	for _, a := range d.APIs {
		if a.Weight < 0 || a.Weight != a.Weight {
			return &ParseError{Path: "apis", Msg: "API " + a.Name + ": negative traffic weight"}
		}
	}
	return d.Spec().Validate()
}
