package estimator

import (
	"slices"
	"testing"

	"repro/internal/nn/ad"
	"repro/internal/testutil"
)

// pinnedAblations are the ablations as pinned models of the one architecture
// (export_test.go), each the replacement of a Config switch that is gone:
// the mask's (σ(m) at raw +800), the bypass's (S zeroed and frozen) and
// attention's (AttentionEpochs 0, α left at +0, so every context sums to
// +0). pinned names the parameters a pin sets, whose values
// differ from the switched-off model's by construction: an unused mask stayed
// at 0 and an unused bypass kept its draws.
var pinnedAblations = []struct {
	name   string
	cfg    func(*Config)
	pin    func(*Expert)
	pinned func(*Expert) []*ad.Param
}{
	{"noMask", func(*Config) {}, NoMask, func(e *Expert) []*ad.Param { return []*ad.Param{e.Mask.M} }},
	{"noBypass", func(*Config) {}, NoBypass, func(e *Expert) []*ad.Param { return []*ad.Param{e.Bypass.W, e.Bypass.B} }},
	{"noAttn", func(c *Config) { c.AttentionEpochs = 0 }, Full, func(*Expert) []*ad.Param { return nil }},
}

// pinnedRun is goldenRun over the toy app's every pair at Hidden=7 with an
// ablation's configuration and pins, its hashes joined by one per expert
// ("pair|params") over every parameter but the pinned ones.
func pinnedRun(t *testing.T, mod func(*Config), pin func(*Expert), pinned func(*Expert) []*ad.Param) (map[string][]float64, map[string]uint64) {
	t.Helper()
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 12)
	rec := newLossRecorder()
	cfg := goldenConfig(7)
	cfg.Progress = rec.hook
	mod(&cfg)
	m, err := TrainPinned(run.Windows, run.Usage, cfg, pin)
	if err != nil {
		t.Fatalf("TrainPinned: %v", err)
	}
	est, err := m.PredictVectors(m.Space.ExtractSeries(run.Windows))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	preds := make(map[string]uint64)
	for p, e := range est {
		preds[p.String()+"|exp"] = hashFloats(e.Exp)
		preds[p.String()+"|low"] = hashFloats(e.Low)
		preds[p.String()+"|up"] = hashFloats(e.Up)
	}
	for p, e := range m.Experts {
		var vals []float64
		for _, par := range e.Params() {
			if !slices.Contains(pinned(e), par) {
				vals = append(vals, par.Data...)
			}
		}
		preds[p.String()+"|params"] = hashFloats(vals)
	}
	return rec.losses, preds
}

// TestPinnedAblationsMatchSwitchedOff: each pinned ablation trains and
// predicts, bit for bit, as the switch it replaced did — every epoch's loss,
// every estimate and every parameter but the pinned ones hold the goldens
// captured with the switch off, before the switches were deleted.
func TestPinnedAblationsMatchSwitchedOff(t *testing.T) {
	for _, a := range pinnedAblations {
		t.Run(a.name, func(t *testing.T) {
			losses, preds := pinnedRun(t, a.cfg, a.pin, a.pinned)
			g := pinnedGoldens[a.name]
			if len(losses) != len(g.losses) {
				t.Errorf("%d loss series, the switched-off model had %d", len(losses), len(g.losses))
			}
			compareGoldens(t, losses, preds, g.losses, g.preds)
		})
	}
}

// pinnedGoldens are the switched-off models' bits: pinnedRun's, captured
// before the switches were deleted with each of them off in turn — the
// mask's, the bypass's, and attention's with AttentionEpochs 0 — and nothing
// pinned.
var pinnedGoldens = map[string]struct {
	losses map[string][]uint64
	preds  map[string]uint64
}{
	"noMask": {
		losses: map[string][]uint64{
			"DB/cpu|attention":         {0x3fab37bb2ed1139d, 0x3fa2fb63a71ad528},
			"DB/cpu|train":             {0x3fd15db3676ee086, 0x3fb3b2b901588c38, 0x3fac7b683cc694ba},
			"DB/disk_usage|attention":  {0x3fc7a93fd46906b4, 0x3fc6e3d9ca527c0e},
			"DB/disk_usage|train":      {0x3fdccf9a0a5b40e0, 0x3fd02638b6f67adf, 0x3fc90e05f679a22f},
			"DB/memory|attention":      {0x3fc60ff2ae7234ce, 0x3fc2634c8c678da4},
			"DB/memory|train":          {0x3fec3f73ab1c2c98, 0x3fdb560b4488e360, 0x3fd0cc8573b9a81e},
			"DB/write_iops|attention":  {0x3fbc3f78c94d03d2, 0x3fb8234ab3c2e9d7},
			"DB/write_iops|train":      {0x3fd7706bfeab70df, 0x3fc478ea01e32c84, 0x3fc184b55ed66be1},
			"DB/write_tput|attention":  {0x3fc0c76d652ecb2e, 0x3fb8ec79eef06e92},
			"DB/write_tput|train":      {0x3fd58ab065382be6, 0x3fc2af149cff33d0, 0x3fc2692d4d1686d2},
			"Gateway/cpu|attention":    {0x3fca51e897766e24, 0x3fc0030940efc48a},
			"Gateway/cpu|train":        {0x3ff55a9e5efb12d5, 0x3fe88db363247ea0, 0x3fd6a00203cfe43d},
			"Gateway/memory|attention": {0x3faa035c217d7aed, 0x3fa822467355eff8},
			"Gateway/memory|train":     {0x3fd6a899bffa88f1, 0x3fb3794342f62236, 0x3faa79106a4afd1e},
			"Service/cpu|attention":    {0x3fba778cae2da740, 0x3fb7b239265962c4},
			"Service/cpu|train":        {0x3fe1422216dadb54, 0x3fd0c4969ef942fc, 0x3fc0c4482db1aae3},
			"Service/memory|attention": {0x3fb593164567d2a0, 0x3fb21a299e5d79ec},
			"Service/memory|train":     {0x3fd56ee6fe43d959, 0x3fbd2788d67954d6, 0x3fbefd6066c91b91},
		},
		preds: map[string]uint64{
			"DB/cpu|exp":            0x4b37e31d99612a0b,
			"DB/cpu|low":            0xa6c2903ac2906f8c,
			"DB/cpu|params":         0x17dd76a3f4eaf061,
			"DB/cpu|up":             0x12c4e11943b8023c,
			"DB/disk_usage|exp":     0x50c156f633169230,
			"DB/disk_usage|low":     0x5370ba11caeb40ea,
			"DB/disk_usage|params":  0x3fb4c92ac5a4f202,
			"DB/disk_usage|up":      0x359593c27efcb06a,
			"DB/memory|exp":         0x72e853a139b85d3b,
			"DB/memory|low":         0x0870e174a9444ffb,
			"DB/memory|params":      0xd67773999122a467,
			"DB/memory|up":          0x1b75bd8a8c352284,
			"DB/write_iops|exp":     0x7259d6ab8076087a,
			"DB/write_iops|low":     0x71c9503eaa0518d1,
			"DB/write_iops|params":  0x64128fb1e52ba408,
			"DB/write_iops|up":      0xd3e66095e7e096d1,
			"DB/write_tput|exp":     0x5882870442f9648b,
			"DB/write_tput|low":     0x3e9d3e39c36fe6ad,
			"DB/write_tput|params":  0x4adcfc1965579fe0,
			"DB/write_tput|up":      0x968c2bcbf3d8b408,
			"Gateway/cpu|exp":       0xb5fcc1394e4035b8,
			"Gateway/cpu|low":       0x58c1320f5a0a2eb0,
			"Gateway/cpu|params":    0x4370beacd297b679,
			"Gateway/cpu|up":        0x0db12cd7b8bcd45b,
			"Gateway/memory|exp":    0x40e78fc10c1fe140,
			"Gateway/memory|low":    0xf11e05f94f76d38f,
			"Gateway/memory|params": 0xab5030617e643f25,
			"Gateway/memory|up":     0xe4a92ea6f0b8fa94,
			"Service/cpu|exp":       0x9db190f189d870a8,
			"Service/cpu|low":       0x87a44760fa9b6a14,
			"Service/cpu|params":    0x5823781381eac492,
			"Service/cpu|up":        0xcfbc97d5f53ea369,
			"Service/memory|exp":    0xce61e6fa99aaeedc,
			"Service/memory|low":    0x6e675233fb47e22e,
			"Service/memory|params": 0x45ccbc9fd2c0287e,
			"Service/memory|up":     0x84dbd204fe51a0a4,
		},
	},
	"noBypass": {
		losses: map[string][]uint64{
			"DB/cpu|attention":         {0x3fc4415af6445f37, 0x3fbd057d6da27d8f},
			"DB/cpu|train":             {0x3fe13655b950b78e, 0x3fd6fa767bce7dc5, 0x3fd025827a3c777d},
			"DB/disk_usage|attention":  {0x3fcf66a20c71c5ac, 0x3fcb93a7e36b46da},
			"DB/disk_usage|train":      {0x3fde85452effa092, 0x3fd6ba6e27865200, 0x3fd29a9111d768d2},
			"DB/memory|attention":      {0x3fc0e4ec57797572, 0x3fbc7cd3b405c2e2},
			"DB/memory|train":          {0x3fe3ee78c6ae9a4f, 0x3fd4fb4fa338bf8d, 0x3fcd86b5f5623a9b},
			"DB/write_iops|attention":  {0x3fb9f6943a5e7143, 0x3fb5d257d5e25ad0},
			"DB/write_iops|train":      {0x3fcf6591e21429f7, 0x3fc1aa0dff49908c, 0x3fc08ff008a72091},
			"DB/write_tput|attention":  {0x3fc1d02a12463434, 0x3fbcfb18aa37463d},
			"DB/write_tput|train":      {0x3fd26659300738b8, 0x3fc40e59935955cb, 0x3fc2ea01cec43105},
			"Gateway/cpu|attention":    {0x3fb59c15c8bd9bbe, 0x3faf5d2e5bd4abc2},
			"Gateway/cpu|train":        {0x3fe78012f8857101, 0x3fdaef636c8f3185, 0x3fc5f7d23ba8ff9c},
			"Gateway/memory|attention": {0x3fbd02f5733b457a, 0x3fb62c01accbf5e2},
			"Gateway/memory|train":     {0x3fe0900dc4b2646f, 0x3fd0d0e745fca6d4, 0x3fc853e860edab9f},
			"Service/cpu|attention":    {0x3fbe1bd302817746, 0x3fb83a2bd6d69324},
			"Service/cpu|train":        {0x3fdb9cf1f84dd416, 0x3fd160b38987428d, 0x3fc5998ad03b43f3},
			"Service/memory|attention": {0x3fb5f1107e01afa4, 0x3fb0c9ed34a9ef6a},
			"Service/memory|train":     {0x3fdd49b71fef2b01, 0x3fc40c2f04d5fbf2, 0x3fb729bd30867fcf},
		},
		preds: map[string]uint64{
			"DB/cpu|exp":            0x5e5b79e53c968b2b,
			"DB/cpu|low":            0x03d4d59a0d13651e,
			"DB/cpu|params":         0xfd3b373faf101a31,
			"DB/cpu|up":             0xb16b518492fa565e,
			"DB/disk_usage|exp":     0x51dc6566a8539ae6,
			"DB/disk_usage|low":     0x6d0c812602c4471e,
			"DB/disk_usage|params":  0x9680f974892af645,
			"DB/disk_usage|up":      0x67b4ab0728b78faa,
			"DB/memory|exp":         0x0312419b2555dcca,
			"DB/memory|low":         0xf6f2d04c76eec223,
			"DB/memory|params":      0x7fab37c9fac837cc,
			"DB/memory|up":          0x954e919cfe6aa27c,
			"DB/write_iops|exp":     0xebb2497406b42557,
			"DB/write_iops|low":     0x893374fae6d8fda4,
			"DB/write_iops|params":  0x9a49b6622ed9b36a,
			"DB/write_iops|up":      0xa2bb33d216a4718f,
			"DB/write_tput|exp":     0x9448d8cf371b0a7f,
			"DB/write_tput|low":     0x887b02d4289b9ae9,
			"DB/write_tput|params":  0x712acf844c157a07,
			"DB/write_tput|up":      0xbdc2d90c2f93f841,
			"Gateway/cpu|exp":       0x7461d8c4df5d949b,
			"Gateway/cpu|low":       0x627e331537b7a8b5,
			"Gateway/cpu|params":    0x8c79349f4711ac31,
			"Gateway/cpu|up":        0xb0c89f3f77a8cbf4,
			"Gateway/memory|exp":    0x893938eb57a11760,
			"Gateway/memory|low":    0x5a2b2903b147dc28,
			"Gateway/memory|params": 0xcabd64bc1ba50f30,
			"Gateway/memory|up":     0x073c73711a77d043,
			"Service/cpu|exp":       0x7bef8d38e96ce9e8,
			"Service/cpu|low":       0x7de19f8c6db4b986,
			"Service/cpu|params":    0x7e647d5be952420f,
			"Service/cpu|up":        0xf2c76e71ca27902b,
			"Service/memory|exp":    0x202c1f1b36a6780d,
			"Service/memory|low":    0x6a5050734bf5b0aa,
			"Service/memory|params": 0x071fb98c9c7cea64,
			"Service/memory|up":     0x4e1fc172b1c9b196,
		},
	},
	"noAttn": {
		losses: map[string][]uint64{
			"DB/cpu|train":         {0x3fd4a7bffe63c851, 0x3fb857cdc76679ea, 0x3fa9aa2eaaf897ad},
			"DB/disk_usage|train":  {0x3fdb5e901d39f63b, 0x3fd136e0319a99c7, 0x3fcb2f0d37e86512},
			"DB/memory|train":      {0x3fe7e66f3ed6cacf, 0x3fd66bc100989061, 0x3fca2c6f46b62694},
			"DB/write_iops|train":  {0x3fcd5d6693d10f4e, 0x3fbf3ce2d3723530, 0x3fbe0a5664050430},
			"DB/write_tput|train":  {0x3fd3f47ba5c5d396, 0x3fc279747fdbb790, 0x3fc1ca2271291fde},
			"Gateway/cpu|train":    {0x3fef3445339c796a, 0x3fe1b676758ef12e, 0x3fcf9b59c62b8fb2},
			"Gateway/memory|train": {0x3fdb1d242857e10c, 0x3fbe02b7d5f7baf1, 0x3fac86593bff8d74},
			"Service/cpu|train":    {0x3fde9863e29d5498, 0x3fd07646b26d759a, 0x3fc1cc255a0238be},
			"Service/memory|train": {0x3fda2a52f96ce1c3, 0x3fba6a54b290e87e, 0x3fb8986c4d7c1e1a},
		},
		preds: map[string]uint64{
			"DB/cpu|exp":            0xbd29c17545c9441d,
			"DB/cpu|low":            0xccec104dcde5b8f5,
			"DB/cpu|params":         0x94de6e591000f8cd,
			"DB/cpu|up":             0x5d4b0025071fa57a,
			"DB/disk_usage|exp":     0x415a206ababd0812,
			"DB/disk_usage|low":     0x465af64578f00270,
			"DB/disk_usage|params":  0x8194a2919e259320,
			"DB/disk_usage|up":      0x075393e73c34ecce,
			"DB/memory|exp":         0x4822a466a659eebb,
			"DB/memory|low":         0x24ce65df35b6d9fc,
			"DB/memory|params":      0x352257fca8d68014,
			"DB/memory|up":          0x8abdb007a7f093e3,
			"DB/write_iops|exp":     0x382c182adc552546,
			"DB/write_iops|low":     0xe042f8e3113bdffb,
			"DB/write_iops|params":  0xb5385b787a6b6128,
			"DB/write_iops|up":      0x05f8ad2ac7cb0583,
			"DB/write_tput|exp":     0x2a25c03aee9653df,
			"DB/write_tput|low":     0xb4b97e615803111f,
			"DB/write_tput|params":  0x613ff8f7dc0940c0,
			"DB/write_tput|up":      0x0fe2dd576f602414,
			"Gateway/cpu|exp":       0x3d2a37b653e68e10,
			"Gateway/cpu|low":       0xd906a17179c31f8c,
			"Gateway/cpu|params":    0xd86ee8ad596146b4,
			"Gateway/cpu|up":        0x3d2a37b653e68e10,
			"Gateway/memory|exp":    0x268a54ab3cd84feb,
			"Gateway/memory|low":    0xe1b6ff3d9240564f,
			"Gateway/memory|params": 0x27434e1a61981992,
			"Gateway/memory|up":     0xb62169df4a194abd,
			"Service/cpu|exp":       0xc891ee96328aaad6,
			"Service/cpu|low":       0x59a44fa918ff757e,
			"Service/cpu|params":    0x3d06863398a33063,
			"Service/cpu|up":        0x99d2de5c800bdbef,
			"Service/memory|exp":    0x2018f79165a967e1,
			"Service/memory|low":    0x50bc7b9bd1c7e1b7,
			"Service/memory|params": 0x2502e14bde3ec65b,
			"Service/memory|up":     0x12ff5cda5ebb6558,
		},
	},
}
