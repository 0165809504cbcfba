package deeprest_test

import (
	"fmt"
	"log"

	deeprest "repro"
)

// Example_capacityPlanning shows the Mode-1 flow: learn from telemetry,
// then ask how many resources a 2x-traffic day would need. (The telemetry
// here comes from the bundled simulator; in production it comes from your
// tracing and metrics stack, converted to the telemetry interchange stream
// that `deeprest learn -telemetry` and POST /v1/telemetry read.)
func Example_capacityPlanning() {
	cluster, err := deeprest.NewCluster(deeprest.SocialNetwork(), 1)
	if err != nil {
		log.Fatal(err)
	}
	day := deeprest.DaySpec{
		Shape:   deeprest.TwoPeak{},
		Mix:     deeprest.Mix{"/composePost": 0.3, "/readTimeline": 0.7},
		PeakRPS: 20,
	}
	program := deeprest.UniformProgram(2, day)
	program.WindowsPerDay = 48
	program.WindowSeconds = 60
	run, err := cluster.Run(program.Generate())
	if err != nil {
		log.Fatal(err)
	}
	store := deeprest.NewTelemetryServer(60)
	store.RecordRun(run)

	opts := deeprest.DefaultOptions()
	opts.Pairs = []deeprest.Pair{{Component: "ComposePostService", Resource: deeprest.CPU}}
	system, err := deeprest.Learn(store, 0, store.NumWindows(), opts)
	if err != nil {
		log.Fatal(err)
	}

	day.PeakRPS = 40 // the hypothetical 2x day
	query := deeprest.UniformProgram(1, day)
	query.WindowsPerDay = 48
	query.WindowSeconds = 60
	estimates, err := system.EstimateTraffic(query.Generate())
	if err != nil {
		log.Fatal(err)
	}
	for pair, est := range estimates {
		fmt.Printf("%s: %d windows estimated\n", pair, len(est.Exp))
	}
	// Output:
	// ComposePostService/cpu: 48 windows estimated
}

// Example_sanityCheck shows the Mode-2 flow: after learning, verify whether
// a served period's consumption is justified by its traffic.
func Example_sanityCheck() {
	cluster, err := deeprest.NewCluster(deeprest.SocialNetwork(), 2)
	if err != nil {
		log.Fatal(err)
	}
	day := deeprest.DaySpec{
		Shape:   deeprest.TwoPeak{},
		Mix:     deeprest.Mix{"/composePost": 0.4, "/readTimeline": 0.6},
		PeakRPS: 20,
	}
	program := deeprest.UniformProgram(2, day)
	program.WindowsPerDay = 48
	program.WindowSeconds = 60
	run, err := cluster.Run(program.Generate())
	if err != nil {
		log.Fatal(err)
	}
	store := deeprest.NewTelemetryServer(60)
	store.RecordRun(run)

	victim := deeprest.Pair{Component: "PostStorageMongoDB", Resource: deeprest.CPU}
	opts := deeprest.DefaultOptions()
	opts.Pairs = []deeprest.Pair{victim}
	system, err := deeprest.Learn(store, 0, store.NumWindows(), opts)
	if err != nil {
		log.Fatal(err)
	}

	// Serve another day with a cryptominer installed mid-day.
	check := deeprest.UniformProgram(1, day)
	check.WindowsPerDay = 48
	check.WindowSeconds = 60
	check.Seed = 7
	cluster.Inject(deeprest.Cryptojack{
		Component:  victim.Component,
		FromWindow: cluster.Window() + 20,
		ToWindow:   cluster.Window() + 40,
		ExtraCPU:   80,
	})
	served, err := cluster.Run(check.Generate())
	if err != nil {
		log.Fatal(err)
	}
	events, err := system.SanityCheck(served.Windows,
		map[deeprest.Pair][]float64{victim: served.Usage[victim]}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack detected on %s: %v\n", victim.Component, len(events) > 0)
	// Output:
	// attack detected on PostStorageMongoDB: true
}
