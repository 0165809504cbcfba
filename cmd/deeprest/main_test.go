package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topo"
	"repro/internal/workload"
)

// buildCLI compiles the CLI under test; -short skips the process tests.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real CLI")
	}
	bin := filepath.Join(t.TempDir(), "deeprest")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run executes the CLI and returns its stdout, stderr and exit code.
func run(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("deeprest %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestTrafficCSVRoundTrip: the table `deeprest traffic -format csv` prints,
// read back by the parser `estimate -traffic` uses, is the program's traffic.
func TestTrafficCSVRoundTrip(t *testing.T) {
	bin := buildCLI(t)
	out, stderr, code := run(t, bin, "traffic", "-format", "csv", "-app", "hotel", "-days", "2",
		"-shape", "1peak", "-peak", "20", "-scale", "1.5", "-wpd", "24", "-window", "60", "-seed", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	got, err := workload.ReadCSV(strings.NewReader(out), 60, 24)
	if err != nil {
		t.Fatal(err)
	}
	_, mix, err := topo.Resolve("hotel")
	if err != nil {
		t.Fatal(err)
	}
	want := program(2, workload.DaySpec{Shape: workload.OnePeak{}, Mix: mix, PeakRPS: 30}, 24, 60, 5).Generate()
	if !reflect.DeepEqual(got.APIs, want.APIs) || got.NumWindows() != 48 || got.TotalRequests() != want.TotalRequests() {
		t.Fatalf("read back %v, %d windows, %d requests; generated %v, %d, %d",
			got.APIs, got.NumWindows(), got.TotalRequests(), want.APIs, want.NumWindows(), want.TotalRequests())
	}
	for w := range want.Windows {
		for _, api := range want.APIs {
			if got.Windows[w][api] != want.Windows[w][api] {
				t.Fatalf("window %d %s: read back %d, generated %d", w, api, got.Windows[w][api], want.Windows[w][api])
			}
		}
	}
}

// TestShapeFlagIsShared: traffic and estimate parse -shape with one name
// table — an unknown name is a usage error naming the four shapes, and
// estimate accepts all four (it used to know only 2peak and flat).
func TestShapeFlagIsShared(t *testing.T) {
	bin := buildCLI(t)
	for _, sub := range []string{"traffic", "estimate"} {
		_, stderr, code := run(t, bin, sub, "-shape", "sawtooth")
		if code != 2 {
			t.Errorf("%s -shape sawtooth: exit %d, want 2", sub, code)
		}
		for _, name := range []string{`"sawtooth"`, "2peak", "flat", "1peak", "high"} {
			if !strings.Contains(stderr, name) {
				t.Errorf("%s -shape sawtooth: stderr does not name %s:\n%s", sub, name, stderr)
			}
		}
	}
	lab := []string{"-app", "gen:seed=7,components=10", "-quick", "-days", "1", "-model", filepath.Join(t.TempDir(), "m.model")}
	if _, stderr, code := run(t, bin, append([]string{"learn"}, lab...)...); code != 0 {
		t.Fatalf("learn: exit %d: %s", code, stderr)
	}
	out, stderr, code := run(t, bin, append([]string{"estimate", "-shape", "1peak"}, lab...)...)
	if code != 0 || !strings.Contains(out, "1-peak/day shape (48 windows)") {
		t.Fatalf("estimate -shape 1peak: exit %d\n%s%s", code, out, stderr)
	}
}
