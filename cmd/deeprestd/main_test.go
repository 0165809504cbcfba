package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// daemon is one deeprestd child process on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string // the child's stderr, a file so it can be read while the child runs
	outPath string // the child's stdout, likewise
	exited  chan error
}

func (d *daemon) stderr() string {
	b, _ := os.ReadFile(d.logPath)
	return string(b)
}

func (d *daemon) stdout() string {
	b, _ := os.ReadFile(d.outPath)
	return string(b)
}

// buildDaemon compiles the daemon under test; -short skips the process tests.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and boots the real daemon")
	}
	bin := filepath.Join(t.TempDir(), "deeprestd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon boots bin with args on a free loopback port. It does not wait
// for the listener: a daemon that is expected to refuse to start never has
// one.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := t.TempDir()
	d := &daemon{base: "http://" + addr, logPath: filepath.Join(dir, "stderr"), outPath: filepath.Join(dir, "stdout"),
		exited: make(chan error, 1)}
	logf, err := os.Create(d.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close() // the child holds its own descriptor
	outf, err := os.Create(d.outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer outf.Close()
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = logf
	d.cmd.Stdout = outf
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	t.Cleanup(func() { _ = d.cmd.Process.Kill() })
	return d
}

// waitUp polls until the daemon answers GET /v1/status.
func (d *daemon) waitUp(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/v1/status")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case err := <-d.exited:
			t.Fatalf("daemon exited before listening: %v\n%s", err, d.stderr())
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("daemon did not come up\n%s", d.stderr())
}

// call issues one request and returns the status code and body.
func (d *daemon) call(t *testing.T, method, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", method, path, err, d.stderr())
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// terminate sends SIGTERM and requires a clean exit within five seconds.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, d.stderr())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("daemon still running 5 s after SIGTERM\n%s", d.stderr())
	}
}

const estimateBody = `{"windows":[{"/composePost":50,"/readTimeline":200},{"/composePost":20,"/readTimeline":90}],"windows_per_day":48}`

// TestDaemonSingleTenantRestart drives the real binary, booted without
// -fleet: the lone tenant is the fleet tenant "default" behind both route
// families, the operator surface is off unless asked for, a SIGTERM exits
// cleanly with the model checkpointed under <dir>/default/, and a restart
// serves the byte-identical estimate. A checkpoint dir in the old un-nested
// layout refuses to boot.
func TestDaemonSingleTenantRestart(t *testing.T) {
	bin := buildDaemon(t)
	ckpt := t.TempDir()
	flags := []string{"-app", "social", "-bootstrap-days", "1", "-hidden", "4", "-epochs", "2",
		"-checkpoint-dir", ckpt, "-log-level", "warn"}

	d := startDaemon(t, bin, flags...)
	d.waitUp(t)

	var fleet struct {
		Tenants []struct {
			App string `json:"app"`
		} `json:"tenants"`
		Default string `json:"default_tenant"`
	}
	code, body := d.call(t, "GET", "/v1/fleet", "")
	if err := json.Unmarshal(body, &fleet); err != nil || code != http.StatusOK {
		t.Fatalf("GET /v1/fleet = %d (%v): %s", code, err, body)
	}
	if len(fleet.Tenants) != 1 || fleet.Tenants[0].App != "default" || fleet.Default != "default" {
		t.Fatalf("fleet = %s, want exactly the tenant default", body)
	}
	_, legacy := d.call(t, "GET", "/v1/status", "")
	_, prefixed := d.call(t, "GET", "/v1/t/default/v1/status", "")
	if !bytes.Equal(legacy, prefixed) {
		t.Errorf("/v1/status and /v1/t/default/v1/status differ:\n%s\n%s", legacy, prefixed)
	}
	if code, _ := d.call(t, "GET", "/debug/pprof/", ""); code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without -pprof = %d, want 404", code)
	}
	if code, _ := d.call(t, "POST", "/v1/pipeline/start", ""); code != http.StatusNotFound {
		t.Errorf("POST /v1/pipeline/start = %d, want 404", code)
	}

	if code, body := d.call(t, "POST", "/v1/learn", `{"pairs":["ComposePostService/cpu"]}`); code != http.StatusOK {
		t.Fatalf("learn = %d: %s", code, body)
	}
	// The daemon logs only through slog, on stderr: a learn writes nothing
	// to stdout.
	if out := d.stdout(); out != "" {
		t.Errorf("daemon wrote to stdout during a learn:\n%s", out)
	}
	code, before := d.call(t, "POST", "/v1/estimate", estimateBody)
	if code != http.StatusOK {
		t.Fatalf("estimate = %d: %s", code, before)
	}
	code, metrics := d.call(t, "GET", "/metrics", "")
	if code != http.StatusOK || !bytes.Contains(metrics, []byte(`deeprest_http_requests_total{app="default",endpoint="/v1/learn",code="200"} 1`)) {
		t.Errorf("/metrics = %d, carries no app=\"default\" request series", code)
	}
	if err := obs.Lint(bytes.NewReader(metrics)); err != nil {
		t.Errorf("/metrics fails the exposition grammar: %v", err)
	}

	d.terminate(t)
	if _, err := os.Stat(filepath.Join(ckpt, "default", "gen-000001.ckpt")); err != nil {
		t.Fatalf("no checkpoint under <dir>/default/: %v", err)
	}

	// Same flags, plus the operator surface this time.
	d = startDaemon(t, bin, append(flags, "-pprof")...)
	d.waitUp(t)
	var st struct {
		Version int `json:"version"`
	}
	_, body = d.call(t, "GET", "/v1/status", "")
	if err := json.Unmarshal(body, &st); err != nil || st.Version != 1 {
		t.Fatalf("status after restart = %s (%v), want version 1", body, err)
	}
	code, after := d.call(t, "POST", "/v1/estimate", estimateBody)
	if code != http.StatusOK || !bytes.Equal(before, after) {
		t.Errorf("estimate after restart = %d, differs from the one before the kill:\n%s\n%s", code, before, after)
	}
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/spans"} {
		if code, _ := d.call(t, "GET", path, ""); code != http.StatusOK {
			t.Errorf("%s with -pprof = %d, want 200", path, code)
		}
	}
	d.terminate(t)

	// A checkpoint left in the root by a pre-fleet single-app daemon.
	stray := filepath.Join(ckpt, "gen-000001.ckpt")
	if err := os.WriteFile(stray, []byte("old layout"), 0o644); err != nil {
		t.Fatal(err)
	}
	d = startDaemon(t, bin, flags...)
	select {
	case err := <-d.exited:
		want := fmt.Sprintf("mv %s %s/", filepath.Join(ckpt, "gen-*.ckpt"), filepath.Join(ckpt, "default"))
		if err == nil || !strings.Contains(d.stderr(), want) {
			t.Errorf("boot over an un-nested checkpoint: exit %v, stderr does not name %q:\n%s", err, want, d.stderr())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("daemon did not refuse a checkpoint dir holding %s\n%s", stray, d.stderr())
	}
}

// TestDaemonPushOnlyRestart is the restart a push-only tenant goes through:
// its telemetry is volatile, so the rebooted daemon serves the checkpointed
// generation over an empty store — status, models and downloads at once,
// Mode-1 422 because the recovered synthesizer saw no traces — and once the
// adapters push again the scheduler, on its own, learns the next generation
// from what they pushed, which answers Mode-1. The re-pushed windows stay
// fewer than version 1 trained to: only Pipeline.rebaseTrainedTo, clamping
// the recovered high-water mark to the restarted store, lets the scheduler
// see them as fresh (without it this test times out waiting for version 2).
func TestDaemonPushOnlyRestart(t *testing.T) {
	bin := buildDaemon(t)
	run, err := fleet.BootstrapRun("social", 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(from, to int) string {
		in := telemetry.NewServer(run.WindowSeconds)
		in.RecordRun(run.Slice(from, to))
		var buf strings.Builder
		if err := in.ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	flags := []string{"-hidden", "4", "-epochs", "2", "-checkpoint-dir", t.TempDir(), "-log-level", "warn"}

	// First life, without a scheduler so version 1 is the manual learn's.
	d := startDaemon(t, bin, flags...)
	d.waitUp(t)
	if code, body := d.call(t, "POST", "/v1/telemetry", stream(0, run.NumWindows())); code != http.StatusOK {
		t.Fatalf("push = %d: %s", code, body)
	}
	if code, body := d.call(t, "POST", "/v1/learn", `{"pairs":["ComposePostService/cpu"]}`); code != http.StatusOK {
		t.Fatalf("learn = %d: %s", code, body)
	}
	if code, body := d.call(t, "POST", "/v1/estimate", estimateBody); code != http.StatusOK {
		t.Fatalf("estimate = %d: %s", code, body)
	}
	d.terminate(t)

	d = startDaemon(t, bin, append(flags, "-retrain-every", "200ms")...)
	d.waitUp(t)
	var st struct {
		Version int `json:"version"`
		Windows int `json:"windows"`
	}
	status := func() {
		t.Helper()
		_, body := d.call(t, "GET", "/v1/status", "")
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status = %s: %v", body, err)
		}
	}
	if status(); st.Version != 1 || st.Windows != 0 {
		t.Fatalf("status after restart = %+v, want version 1 over an empty store", st)
	}
	if code, body := d.call(t, "GET", "/v1/models", ""); code != http.StatusOK || !bytes.Contains(body, []byte(`"active":true`)) {
		t.Fatalf("models after restart = %d: %s", code, body)
	}
	if code, body := d.call(t, "POST", "/v1/estimate", estimateBody); code != http.StatusUnprocessableEntity || !bytes.Contains(body, []byte("never observed")) {
		t.Fatalf("estimate over the empty store = %d: %s, want 422 API never observed", code, body)
	}

	// The adapters resume, a few windows at a time.
	const chunk = 8
	for at := 0; st.Version < 2 && at+chunk < run.NumWindows(); at += chunk {
		if code, body := d.call(t, "POST", "/v1/telemetry", stream(at, at+chunk)); code != http.StatusOK {
			t.Fatalf("re-push = %d: %s", code, body)
		}
		for deadline := time.Now().Add(2 * time.Second); st.Version < 2 && time.Now().Before(deadline); status() {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if st.Version < 2 {
		t.Fatalf("no generation published from %d re-pushed windows (version 1 trained to %d): the scheduler is waiting for the old mark to be passed\n%s",
			st.Windows, run.NumWindows(), d.stderr())
	}
	if code, body := d.call(t, "POST", "/v1/estimate", estimateBody); code != http.StatusOK {
		t.Fatalf("estimate from the relearned generation = %d: %s", code, body)
	}
	d.terminate(t)
}
