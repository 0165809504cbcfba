package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// Fuzz targets for the one decoder that accepts external bytes: ImportJSON
// must reject malformed input with an error — never panic — and anything
// it accepts must re-export losslessly.

func FuzzImportJSON(f *testing.F) {
	f.Add(`{"format":"deeprest-telemetry","version":1,"window_seconds":60}
{"traces":[{"api":"/x","count":2,"root":{"component":"A","operation":"op"}}],"usage":{"A/cpu":1.5}}`)
	f.Add(`{"format":"deeprest-telemetry","version":1,"window_seconds":60}`)
	f.Add(`{"format":"nope"}`)
	f.Add(`{{{`)
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ImportJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted input must survive a re-export → re-import cycle.
		var buf bytes.Buffer
		if err := s.ExportJSON(&buf); err != nil {
			t.Fatalf("accepted stream failed to export: %v", err)
		}
		s2, err := ImportJSON(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if s2.NumWindows() != s.NumWindows() {
			t.Fatalf("round trip lost windows: %d vs %d", s2.NumWindows(), s.NumWindows())
		}
	})
}

// FuzzExportedStreamsAlwaysImport checks the invariant from the generator
// side: any telemetry the simulator can produce exports to a stream the
// importer accepts.
func FuzzExportedStreamsAlwaysImport(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, days uint8) {
		d := int(days%2) + 1
		_, _, run := testutil.ToyTelemetry(t, d, 20, seed)
		s := NewServer(run.WindowSeconds)
		s.RecordRun(run)
		var buf bytes.Buffer
		if err := s.ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ImportJSON(&buf); err != nil {
			t.Fatalf("generated stream rejected: %v", err)
		}
	})
}
