// Command loadgen is the standalone workload generator — the Locust stand-in
// (paper §5.1). It prints, per scrape window, the request count of every API
// endpoint, either as a CSV stream (for piping into other tools) or as a
// sparkline summary.
//
// Usage:
//
//	loadgen [-app APP] [-days N] [-shape 2peak|flat|1peak|high]
//	        [-peak RPS] [-scale F] [-format csv|summary] [-seed N]
//
// APP is social|hotel|media, @FILE (a topology DSL document), or
// gen:seed=N,components=N (a generated topology); the mix comes from the
// resolved application's per-API traffic weights.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/eval"
	"repro/internal/topo"
	"repro/internal/workload"
)

func main() {
	appName := flag.String("app", "social",
		"application mix: social|hotel|media, @spec.json, or gen:seed=N,components=N")
	days := flag.Int("days", 1, "number of days to generate")
	shapeName := flag.String("shape", "2peak", "traffic shape: 2peak, flat, 1peak, or high")
	peak := flag.Float64("peak", 60, "peak total requests per second")
	scale := flag.Float64("scale", 1, "user-scale multiplier")
	wpd := flag.Int("wpd", 96, "windows per day")
	windowSec := flag.Float64("window", 300, "window duration in seconds")
	format := flag.String("format", "summary", "output format: csv or summary")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	_, mix, err := topo.Resolve(*appName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}
	var shape workload.Shape
	switch *shapeName {
	case "2peak":
		shape = workload.TwoPeak{}
	case "flat":
		shape = workload.Flat{}
	case "1peak":
		shape = workload.OnePeak{}
	case "high":
		shape = workload.High{}
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown shape %q\n", *shapeName)
		os.Exit(2)
	}

	prog := workload.Uniform(*days, workload.DaySpec{Shape: shape, Mix: mix, PeakRPS: *peak * *scale})
	prog.WindowsPerDay = *wpd
	prog.WindowSeconds = *windowSec
	prog.Seed = *seed
	traffic := prog.Generate()

	switch *format {
	case "csv":
		if err := traffic.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	case "summary":
		fmt.Printf("%d days x %d windows (%gs each), shape=%s, peak=%.0f rps, total=%d requests\n",
			*days, *wpd, *windowSec, shape.Name(), *peak**scale, traffic.TotalRequests())
		for _, api := range traffic.APIs {
			s := traffic.Series(api)
			fmt.Printf("  %-20s %s (%s req/window)\n", api, eval.Sparkline(s, 72), eval.SeriesSummary(s))
		}
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown format %q\n", *format)
		os.Exit(2)
	}
}
