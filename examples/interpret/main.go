// Interpreting a trained DeepRest model — the paper's §6 (Figures 21–22).
//
// Beyond estimation, the learned experts are themselves informative:
//
//   - occluding one API's invocation paths and measuring the output change
//     reveals which endpoints drive which resource (Figure 22) — e.g. which
//     APIs could be degraded without touching a given database's write path;
//   - the attention weights show which other (component, resource) experts
//     an expert listens to;
//   - projecting the experts' GRU parameters with PCA shows experts for
//     similar components (the MongoDBs) clustering, motivating transfer
//     learning (Figure 21).
//
// Run with: go run ./examples/interpret
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	deeprest "repro"
	"repro/internal/eval"
)

func main() {
	cluster, err := deeprest.NewCluster(deeprest.SocialNetwork(), 5)
	if err != nil {
		log.Fatal(err)
	}
	program := deeprest.UniformProgram(3, deeprest.DaySpec{
		Shape: deeprest.TwoPeak{},
		Mix: deeprest.Mix{
			"/composePost": 0.25, "/readTimeline": 0.40,
			"/uploadMedia": 0.15, "/getMedia": 0.20,
		},
		PeakRPS: 30,
	})
	program.WindowsPerDay = 48
	program.WindowSeconds = 60
	traffic := program.Generate()
	run, err := cluster.Run(traffic)
	if err != nil {
		log.Fatal(err)
	}
	ts := deeprest.NewTelemetryServer(60)
	ts.RecordRun(run)

	opts := deeprest.DefaultOptions()
	opts.Pairs = []deeprest.Pair{
		{Component: "ComposePostService", Resource: deeprest.CPU},
		{Component: "MediaMongoDB", Resource: deeprest.Memory},
		{Component: "PostStorageMongoDB", Resource: deeprest.CPU},
		{Component: "PostStorageMongoDB", Resource: deeprest.WriteIOps},
		{Component: "UserTimelineMongoDB", Resource: deeprest.CPU},
		{Component: "MediaMongoDB", Resource: deeprest.CPU},
		{Component: "UserTimelineService", Resource: deeprest.CPU},
		{Component: "MediaService", Resource: deeprest.CPU},
	}
	system, err := deeprest.Learn(ts, 0, ts.NumWindows(), opts)
	if err != nil {
		log.Fatal(err)
	}
	model := system.Model()
	windows, err := ts.Traces(0, ts.NumWindows())
	if err != nil {
		log.Fatal(err)
	}

	// Figure-22-style: which APIs influence which resource?
	fmt.Println("learned API -> resource dependencies (occlusion influence, 0..1):")
	for _, p := range []deeprest.Pair{
		{Component: "MediaMongoDB", Resource: deeprest.Memory},
		{Component: "ComposePostService", Resource: deeprest.CPU},
		{Component: "PostStorageMongoDB", Resource: deeprest.WriteIOps},
		{Component: "PostStorageMongoDB", Resource: deeprest.CPU},
	} {
		infl, err := model.APIInfluence(p, model.Space.ExtractSeries(windows))
		if err != nil {
			log.Fatal(err)
		}
		type kv struct {
			api string
			v   float64
		}
		var list []kv
		for api, v := range infl {
			if v >= 0.05 {
				list = append(list, kv{api, v})
			}
		}
		sort.Slice(list, func(i, j int) bool { return list[i].v > list[j].v })
		fmt.Printf("  %s:\n", p)
		for _, e := range list {
			fmt.Printf("    %-34s %s %.2f\n", e.api, strings.Repeat("#", int(e.v*24)), e.v)
		}
	}

	// Attention: who does the write-IOps expert listen to?
	fmt.Println("\ntop attention peers of PostStorageMongoDB/write_iops:")
	for _, pw := range model.AttentionReport(deeprest.Pair{Component: "PostStorageMongoDB", Resource: deeprest.WriteIOps}, 3) {
		fmt.Printf("  %-38s alpha=%+.4f\n", pw.Peer, pw.Alpha)
	}

	// Figure-21-style: PCA of the experts' recurrent parameters.
	fmt.Println("\nPCA of expert GRU parameters (MongoDB experts marked x):")
	pairs := system.Pairs()
	rows := make([][]float64, len(pairs))
	for i, p := range pairs {
		rows[i] = model.ExpertVector(p)
	}
	proj := eval.PCA(rows, 2, 60)
	for i, p := range pairs {
		mark := " "
		if strings.Contains(p.Component, "MongoDB") {
			mark = "x"
		}
		fmt.Printf("  [%s] %-38s (%7.3f, %7.3f)\n", mark, p, proj[i][0], proj[i][1])
	}
}
