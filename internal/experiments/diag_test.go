package experiments

import (
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/eval"
	"repro/internal/topo"
	"repro/internal/workload"
)

func TestDiagAttribution(t *testing.T) {
	if os.Getenv("DIAG") == "" {
		t.Skip("diagnostic; set DIAG=1")
	}
	p := Params{Out: io.Discard, Quick: true, Seed: 1, Reps: 1}
	wpd, ws, days, peak := workload.Scale(p.Quick)
	_ = ws
	target := app.Pair{Component: "PostStorageMongoDB", Resource: app.WriteIOps}
	spec, mix, err := topo.Resolve("social")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		mod  func(c *estimator.Config)
	}{
		{"default", func(c *estimator.Config) {}},
		{"noAttn", func(c *estimator.Config) { c.AttentionEpochs = 0; c.UseAttention = false }},
		{"noL1", func(c *estimator.Config) { c.MaskL1 = 0; c.BypassL1 = 0 }},
		{"strongL1", func(c *estimator.Config) { c.MaskL1 = 0.01; c.BypassL1 = 0.002 }},
		{"epochs60", func(c *estimator.Config) { c.Epochs = 60 }},
		{"noGRUskip", func(c *estimator.Config) { c.LinearBypass = false }},
		{"bypassOnlyIsh", func(c *estimator.Config) { c.Hidden = 4 }},
	} {
		l := &Lab{
			P: p, Spec: spec, LearnShape: workload.TwoPeak{},
			Mix: mix, PeakRPS: peak, LearnDays: days,
			WPD: wpd, WindowSec: ws,
			Pairs:       SocialFocusPairs(),
			clusterSeed: 101,
		}
		cfg := p.estimatorConfig()
		tc.mod(&cfg)
		// provision manually with modified config
		if err := provisionWith(l, cfg); err != nil {
			t.Fatal(err)
		}
		// in-sample
		est, _ := l.System.ExpectedUtilization(l.LearnRun.Windows)
		insample := eval.MAPE(est[target].Exp, l.LearnRun.Usage[target])
		// read-dominated query
		q := l.queryDay(workload.TwoPeak{}, readDominatedMix(), l.PeakRPS*2, 440+1)
		ev, err := l.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		ratio := meanOf(ev.Series[MethodDeepRest][target]) / meanOf(ev.Actual[target])
		mape := eval.MAPE(ev.Series[MethodDeepRest][target], ev.Actual[target])
		// 3x scale query, check CPU of ComposePostService and FrontendNGINX
		q3 := l.queryDay(workload.TwoPeak{}, l.Mix, l.PeakRPS*3, 470+2)
		ev3, err := l.Evaluate(q3)
		if err != nil {
			t.Fatal(err)
		}
		ccpu := app.Pair{Component: "ComposePostService", Resource: app.CPU}
		fcpu := app.Pair{Component: "FrontendNGINX", Resource: app.CPU}
		m3c := eval.MAPE(ev3.Series[MethodDeepRest][ccpu], ev3.Actual[ccpu])
		m3f := eval.MAPE(ev3.Series[MethodDeepRest][fcpu], ev3.Actual[fcpu])
		fmt.Printf("%-14s insample=%.1f%% readQ: MAPE=%.1f%% ratio=%.2f | 3x: composeCPU=%.1f%% frontendCPU=%.1f%%\n",
			tc.name, insample, mape, ratio, m3c, m3f)
	}
}
