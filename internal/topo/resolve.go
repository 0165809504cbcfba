package topo

import (
	"embed"
	"fmt"
	"os"
	"strings"

	"repro/internal/app"
	"repro/internal/workload"
)

// apps holds the bundled DeathStarBench-style applications, one topology
// document each.
//
//go:embed apps/*.json
var apps embed.FS

// bundled maps each bundled application's -app name to its document.
var bundled = map[string]string{
	"social": "apps/social-network.json",
	"hotel":  "apps/hotel-reservation.json",
	"media":  "apps/media-microservices.json",
}

// Resolve turns a CLI -app argument into an application spec and default
// traffic mix. Four forms are accepted:
//
//	social | hotel | media     — the bundled applications (embedded documents)
//	@FILE                      — a topology DSL document on disk
//	gen:seed=N,components=N    — a generated topology (see ParseGenArg)
//
// Every call parses afresh, so callers own the spec they get.
func Resolve(arg string) (*app.Spec, workload.Mix, error) {
	var doc *Document
	var err error
	switch file, ok := bundled[arg]; {
	case ok:
		doc, err = parseFile(apps.ReadFile, file)
	case strings.HasPrefix(arg, "@"):
		doc, err = parseFile(os.ReadFile, arg[1:])
	case strings.HasPrefix(arg, "gen:"):
		var cfg Config
		if cfg, err = ParseGenArg(arg[len("gen:"):]); err == nil {
			doc = Generate(cfg)
		}
	default:
		err = fmt.Errorf("unknown app %q (want social, hotel, media, @spec.json, or gen:seed=N,components=N)", arg)
	}
	if err != nil {
		return nil, nil, err
	}
	return doc.Spec(), doc.Mix(), nil
}

// parseFile reads a document with read and parses it, naming path in errors.
func parseFile(read func(string) ([]byte, error), path string) (*Document, error) {
	data, err := read(path)
	if err != nil {
		return nil, fmt.Errorf("topo: reading spec %s: %w", path, err)
	}
	doc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}
