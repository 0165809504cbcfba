package topo

import (
	"testing"
)

// FuzzParseTopology asserts the parser's safety invariants on arbitrary
// input: it never panics, and any document it accepts passes full
// validation (so a fuzz-found input can never reach the simulator in an
// undeployable state) and round-trips through the canonical encoding.
func FuzzParseTopology(f *testing.F) {
	f.Add([]byte(minimal))
	for _, file := range bundled {
		data, err := apps.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(Encode(Generate(Config{Seed: 7, Components: 20})))
	f.Add([]byte(`{"name":"x","components":[],"apis":[]}`))
	f.Add([]byte(`{"name":1e999}`))
	f.Add([]byte(`[`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Parse(data)
		if err != nil {
			return
		}
		if verr := doc.Validate(); verr != nil {
			t.Fatalf("Parse accepted a document that fails Validate: %v", verr)
		}
		// Accepted documents must survive the canonical encoding.
		enc := Encode(doc)
		if _, rerr := Parse(enc); rerr != nil {
			t.Fatalf("Encode produced an unparseable document: %v\n%s", rerr, enc)
		}
	})
}
