package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
)

func TestFoldAssignsEverySampleToOneLayer(t *testing.T) {
	cases := []struct {
		funcs []string
		want  string
	}{
		{[]string{"rrmpcm/internal/timing.(*EventQueue).siftDown", "rrmpcm/internal/sim.(*System).advance"}, "timing"},
		{[]string{"math.Exp", "rrmpcm/internal/trace.(*Generator).Next", "rrmpcm/internal/cpu.(*Core).step"}, "trace"},
		{[]string{"runtime.mallocgc", "rrmpcm/internal/cache.(*Cache).allocate"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "rrmpcm/internal/memctrl.(*Controller).tick"}, "runtime"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"rrmpcm/internal/stats.MeanCI95", "rrmpcm/internal/sampling.aggregate"}, "other"},
		{[]string{"sort.Slice[rrmpcm/internal/cache.line]", "rrmpcm/internal/experiments.perfTable"}, "experiments"},
		{[]string{"crypto/sha256.block", "rrmpcm/internal/engine.ConfigHash"}, "engine"},
		{[]string{"main.runChild", "main.main"}, "other"},
		{nil, "other"},
	}
	var samples []stack
	for i, c := range cases {
		if got := layerOf(c.funcs); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.funcs, got, c.want)
		}
		samples = append(samples, stack{funcs: c.funcs, count: int64(i + 1)})
	}
	for _, l := range layers {
		samples = append(samples, stack{funcs: []string{modulePrefix + l + ".F"}, count: 3})
	}
	shares := foldShares(samples)
	if len(shares) != len(layers) {
		t.Fatalf("fold has %d layers, want %d", len(shares), len(layers))
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if got := foldShares(nil); got["runtime"] != 0 || len(got) != len(layers) {
		t.Errorf("empty fold = %v", got)
	}
}

// TestProfileDecode folds a real CPU profile written by runtime/pprof.
func TestProfileDecode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	spun := false
	for _, s := range samples {
		total += s.count
		if len(s.funcs) == 0 {
			t.Fatalf("sample with no frames")
		}
		for _, fn := range s.funcs {
			spun = spun || strings.HasSuffix(fn, ".spin")
		}
	}
	if total == 0 || !spun {
		t.Fatalf("profile has %d samples, spin seen %v", total, spun)
	}
	sum := 0.0
	for _, v := range foldShares(samples) {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
}

var sink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// smallConfig is a detailed run short enough for a unit test.
func smallConfig(scheme sim.Scheme, workload string) sim.Config {
	cfg := detailedConfig(scheme, workload, 1, defaultSeed)
	cfg.Warmup = 3 * timing.Millisecond
	return cfg
}

// TestRateIsPerOperation guards against dividing one operation's
// instructions by time summed over several operations.
func TestRateIsPerOperation(t *testing.T) {
	r := runDetailed(context.Background(), smallConfig(sim.StaticScheme(pcm.Mode7SETs), "mcf"), nil)
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if want := float64(r.Insts) / r.SimSeconds / 1e6; r.minstsPerSec() != want {
		t.Errorf("rate %v, want insts/elapsed %v", r.minstsPerSec(), want)
	}
	if r.SimSeconds <= 0 || r.SimSeconds > r.WallSecs {
		t.Errorf("simulation time %v outside wall time %v", r.SimSeconds, r.WallSecs)
	}

	ops := []op{
		{opResult: opResult{Insts: 100e6, SimSeconds: 2}},
		{opResult: opResult{Insts: 100e6, SimSeconds: 4}},
		{opResult: opResult{Insts: 100e6, SimSeconds: 5}},
		{opResult: opResult{Insts: 1, SimSeconds: 1, Err: "failed"}},
	}
	if got := endToEndValues(ops)["sim_minsts_per_s"]; got != 25 {
		t.Errorf("median rate %v, want 25 (the middle operation's own rate)", got)
	}
}

// TestTracedMatchesUntraced runs one operation with and without the
// CPU profile and spans: the simulated result must not change.
func TestTracedMatchesUntraced(t *testing.T) {
	cfg := smallConfig(sim.RRMScheme(), "GemsFDTD")
	plain := runDetailed(context.Background(), cfg, nil)

	f, err := os.Create(filepath.Join(t.TempDir(), "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	sp := &spans{d: map[string]float64{}}
	traced := runDetailed(context.Background(), cfg, sp)
	pprof.StopCPUProfile()

	if plain.Err != "" || traced.Err != "" {
		t.Fatalf("errors: %q / %q", plain.Err, traced.Err)
	}
	if plain.Digest != traced.Digest {
		t.Errorf("traced digest %s, untraced %s", traced.Digest, plain.Digest)
	}
	if sp.d["sim.warmup_s"] <= 0 || sp.d["sim.measure_s"] <= 0 {
		t.Errorf("spans not recorded: %v", sp.d)
	}
}

// TestChecksFailOperations: a failed check or an error marks the
// operation failed instead of stopping the benchmark.
func TestChecksFailOperations(t *testing.T) {
	bad := smallConfig(sim.RRMScheme(), "GemsFDTD")
	bad.Duration = 0
	if r := runDetailed(context.Background(), bad, nil); !strings.Contains(r.Err, "setup") {
		t.Errorf("invalid config: err %q", r.Err)
	}
	cold := smallConfig(sim.StaticScheme(pcm.Mode7SETs), "mcf")
	cold.Warmup = 100 * timing.Microsecond
	if r := runDetailed(context.Background(), cold, nil); !strings.Contains(r.Err, "LLC took") {
		t.Errorf("cold LLC: err %q", r.Err)
	}

	ops := []op{{opResult: opResult{Digest: "a"}}, {opResult: opResult{Digest: "b"}}, {opResult: opResult{Digest: "a"}}}
	checkDigests(ops, "detailed-static7-mcf", defaultSeed+1)
	if ops[0].Err != "" || ops[1].Err == "" || ops[2].Err != "" {
		t.Errorf("held-out seed: errors %q %q %q", ops[0].Err, ops[1].Err, ops[2].Err)
	}
	ops = []op{{opResult: opResult{Digest: "a"}}}
	checkDigests(ops, "detailed-static7-mcf", defaultSeed)
	if ops[0].Err == "" {
		t.Errorf("default seed accepted a digest other than the recorded one")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if recordedDigests[w.Name] == "" {
			t.Errorf("workload %s has no recorded digest", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s metrics %v, program reports %v", kind, g, w)
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
}
