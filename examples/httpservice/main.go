// DeepRest as a service — the paper's §1 deployment vision, end to end over
// HTTP: a deeprestd instance receives telemetry from a (simulated) cluster,
// learns, and answers a capacity-planning query, all through the JSON API a
// real deployment would use. Anonymisation is on, so the traces' component,
// operation, and API names are hashed before they enter the model.
//
// Run with: go run ./examples/httpservice
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"

	deeprest "repro"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/service"
)

func main() {
	// The service side: what `go run ./cmd/deeprestd -anonymize` hosts.
	opts := core.DefaultOptions()
	opts.Anonymize = true
	opts.HashSalt = "demo"
	opts.Pairs = []deeprest.Pair{
		{Component: "ComposePostService", Resource: deeprest.CPU},
		{Component: "PostStorageMongoDB", Resource: deeprest.WriteIOps},
	}
	svc, err := service.NewWithConfig(opts, pipeline.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	base := ts.URL
	fmt.Printf("deeprest service at %s (anonymized)\n\n", base)

	// The application side: a cluster whose telemetry stack exports the
	// interchange format.
	cluster, err := deeprest.NewCluster(deeprest.SocialNetwork(), 9)
	if err != nil {
		log.Fatal(err)
	}
	program := deeprest.UniformProgram(2, deeprest.DaySpec{
		Shape:   deeprest.TwoPeak{},
		Mix:     deeprest.Mix{"/composePost": 0.3, "/readTimeline": 0.5, "/uploadMedia": 0.2},
		PeakRPS: 30,
	})
	program.WindowsPerDay = 48
	program.WindowSeconds = 60
	run, err := cluster.Run(program.Generate())
	if err != nil {
		log.Fatal(err)
	}
	store := deeprest.NewTelemetryServer(60)
	store.RecordRun(run)
	var dump bytes.Buffer
	if err := store.ExportJSON(&dump); err != nil {
		log.Fatal(err)
	}

	// 1. Push the telemetry.
	post(base+"/v1/telemetry", dump.Bytes())
	fmt.Println("telemetry ingested")

	// 2. Learn.
	out := post(base+"/v1/learn", []byte(`{}`))
	fmt.Printf("learned: %s\n", out)

	// 3. Query: one day at 2x users, sent as raw per-window counts.
	query := deeprest.UniformProgram(1, deeprest.DaySpec{
		Shape:   deeprest.TwoPeak{},
		Mix:     deeprest.Mix{"/composePost": 0.3, "/readTimeline": 0.5, "/uploadMedia": 0.2},
		PeakRPS: 60,
	})
	query.WindowsPerDay = 48
	query.WindowSeconds = 60
	body, _ := json.Marshal(map[string]interface{}{
		"windows":         query.Generate().Windows,
		"windows_per_day": 48,
	})
	resp := post(base+"/v1/estimate", body)
	var est struct {
		Estimates map[string]struct {
			Exp  []float64 `json:"exp"`
			Up   []float64 `json:"up"`
			Unit string    `json:"unit"`
		} `json:"estimates"`
	}
	if err := json.Unmarshal(resp, &est); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nallocation for a 2x day (trace/API semantics were hashed before")
	fmt.Println("entering the model; the metric keys identify the estimation targets):")
	keys := make([]string, 0, len(est.Estimates))
	for k := range est.Estimates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := est.Estimates[k]
		peak := 0.0
		for _, v := range e.Up {
			if v > peak {
				peak = v
			}
		}
		fmt.Printf("  %-40s allocate for peak %8.1f %s\n", k, peak, e.Unit)
	}
}

// post sends a JSON/body POST and returns the response body, exiting on any
// HTTP error.
func post(url string, body []byte) []byte {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		log.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %d: %s", url, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}
