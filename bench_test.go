package rrmpcm

// One benchmark per paper table/figure (DESIGN.md §5). Each bench
// regenerates its artifact in quick mode (reduced windows, three
// representative workloads) — run them with
//
//	go test -bench=. -benchmem
//
// Full-fidelity regeneration is cmd/experiments' job; these benches are
// the fast, always-runnable variants. Simulation results are cached in a
// shared runner across benchmarks (the experiments share runs exactly as
// the figures share the scheme x workload matrix), so the first bench
// touching the matrix pays for it and the rest measure table assembly.

import (
	"context"
	"sync"
	"testing"

	"rrmpcm/internal/cache"
	"rrmpcm/internal/dram"
	"rrmpcm/internal/engine"
	"rrmpcm/internal/experiments"
	"rrmpcm/internal/memctrl"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
	"rrmpcm/internal/tracefile"
)

var (
	benchRunnerOnce sync.Once
	benchRunner     *experiments.Runner
)

// sharedRunner fans its simulations out over all CPUs (Parallel 0 =
// GOMAXPROCS); results are deterministic at any parallelism, so the
// benchmarked tables are identical to the sequential ones.
func sharedRunner() *experiments.Runner {
	benchRunnerOnce.Do(func() {
		benchRunner = experiments.NewRunner(experiments.Options{Quick: true, Seed: 1})
	})
	return benchRunner
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	r := sharedRunner()
	// Warm outside the measured region: the first run pays for every
	// simulation the shared matrix needs; the loop then measures table
	// assembly, which is what these benches compare run to run.
	if out, err := e.Run(r); err != nil {
		b.Fatal(err)
	} else if len(out) == 0 {
		b.Fatal("empty experiment output")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkTable1_ModeTable(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkFigure2_StaticPerformance(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFigure3_StaticLifetime(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFigure4_StaticWear(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkTable3_RegionHistogram(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable7_MPKI(b *testing.B)               { benchExperiment(b, "table7") }
func BenchmarkFigure7_Performance(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFigure8_Lifetime(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFigure9_Wear(b *testing.B)              { benchExperiment(b, "fig9") }
func BenchmarkFigure10_Energy(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFigure11_HotThreshold(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFigure12_Coverage(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkTable8_Storage(b *testing.B)            { benchExperiment(b, "table8") }
func BenchmarkFigure13_EntrySize(b *testing.B)        { benchExperiment(b, "fig13") }

func BenchmarkAblationGlobalRefresh(b *testing.B) { benchExperiment(b, "ablation-globalrefresh") }
func BenchmarkAblationCleanWrites(b *testing.B)   { benchExperiment(b, "ablation-cleanwrites") }
func BenchmarkAblationNoPause(b *testing.B)       { benchExperiment(b, "ablation-nopause") }
func BenchmarkAblationDecay(b *testing.B)         { benchExperiment(b, "ablation-decay") }

// --- engine benchmarks: worker-pool scaling ---

// benchEngineBatch measures one 8-run batch (4 static schemes x 2
// workloads, minimal windows) through a fresh Runner at the given
// parallelism. Compare BenchmarkEngineBatchSequential vs
// BenchmarkEngineBatchParallel for the worker-pool speedup on your host;
// the emitted metrics are byte-identical by construction.
func benchEngineBatch(b *testing.B, parallel int) {
	b.Helper()
	var specs []experiments.RunSpec
	tiny := func(c *Config) {
		c.Duration = 1500 * Microsecond
		c.Warmup = 500 * Microsecond
		c.TimeScale = 1000
	}
	for _, wn := range []string{"GemsFDTD", "mcf"} {
		w, err := WorkloadByName(wn)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []WriteMode{Mode3SETs, Mode5SETs, Mode6SETs, Mode7SETs} {
			specs = append(specs, experiments.RunSpec{
				Label: "bench", Scheme: StaticScheme(mode), Workload: w, Mutate: tiny})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Quick: true, Seed: 1, Parallel: parallel})
		if _, err := r.RunBatch(specs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBatchSequential(b *testing.B) { benchEngineBatch(b, 1) }
func BenchmarkEngineBatchParallel(b *testing.B)   { benchEngineBatch(b, 0) }

// --- warm-start benchmarks: shared warmup across a sweep ---

// warmSweepConfigs is the warm-start benchmark's sweep: four measurement
// windows over one shared, deliberately warmup-heavy prefix (3 ms warmup
// against 0.5-1.25 ms windows). Cold-started, the sweep simulates the
// warmup four times (15.5 ms of simulated time); warm-started it
// simulates it once (6.5 ms), so the sweep-level speedup bound is ~2.4x.
func warmSweepConfigs(b *testing.B) []Config {
	b.Helper()
	w, err := WorkloadByName("GemsFDTD")
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []Config
	for _, d := range []Time{500, 750, 1000, 1250} {
		cfg := DefaultConfig(RRMScheme(), w)
		cfg.Warmup = 3 * Millisecond
		cfg.Duration = d * Microsecond
		cfg.TimeScale = 500
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// BenchmarkColdStartSweep runs the sweep with a full warmup per config —
// the baseline BenchmarkWarmStartSweep is compared against.
func BenchmarkColdStartSweep(b *testing.B) {
	cfgs := warmSweepConfigs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := engine.RunSim(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWarmStartSweep runs the same sweep through the warm-start
// layer with a fresh snapshot store per iteration: the first config pays
// for the warmup and snapshots it, the other three fork. Results are
// bit-identical to the cold sweep (engine's warm-start tests); only the
// wall clock moves.
func BenchmarkWarmStartSweep(b *testing.B) {
	cfgs := warmSweepConfigs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		warm := engine.WarmRunSim(engine.NewMemSnapshotStore())
		for _, cfg := range cfgs {
			if _, err := warm(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- component micro-benchmarks: simulator throughput itself ---

func BenchmarkTraceGenerator(b *testing.B) {
	p, err := trace.ProfileByName("GemsFDTD")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewMixture(p, 0, 2<<30, 1)
	if err != nil {
		b.Fatal(err)
	}
	var op trace.Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&op)
	}
}

func BenchmarkCacheHierarchyAccess(b *testing.B) {
	h, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		b.Fatal(err)
	}
	p, _ := trace.ProfileByName("GemsFDTD")
	gen, _ := trace.NewMixture(p, 0, 2<<30, 1)
	var op trace.Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&op)
		kind := cache.Load
		if op.Store {
			kind = cache.Store
		}
		h.Access(i&3, op.Addr, kind, false)
	}
}

func BenchmarkMemoryController(b *testing.B) {
	amap, err := pcm.NewAddressMap(pcm.DefaultDeviceConfig())
	if err != nil {
		b.Fatal(err)
	}
	eq := timing.NewEventQueue()
	ctl, err := memctrl.New(memctrl.DefaultConfig(), amap, eq, nil)
	if err != nil {
		b.Fatal(err)
	}
	state := uint64(1)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	pending := 0
	onDone := func(timing.Time) { pending-- }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := ctl.AcquireRequest()
		req.Addr, req.OnDone = next()%(8<<30), onDone
		if i%3 == 0 {
			req.Kind = memctrl.WriteReq
			req.Mode = pcm.Mode7SETs
			req.Wear = pcm.WearDemandWrite
		} else {
			req.Kind = memctrl.ReadReq
		}
		for pending > 64 {
			eq.Step()
		}
		if ctl.TryEnqueue(req) {
			pending++
		} else {
			eq.Step()
		}
	}
	for eq.Step() {
	}
}

// benchModeDecider is the writeback-mode policy for the hybrid
// microbenchmarks: always the durable mode, no per-address state.
type benchModeDecider struct{}

func (benchModeDecider) DecideWriteMode(uint64, timing.Time) pcm.WriteMode { return pcm.Mode7SETs }

// benchHybridRig assembles the migrator-fronted stack (PCM controller,
// DRAM device, migration engine) the hybrid benchmarks drive directly.
func benchHybridRig(b testing.TB, mutate func(*dram.HybridConfig)) (*dram.Migrator, *timing.EventQueue, dram.HybridConfig) {
	b.Helper()
	hc := dram.DefaultHybridConfig()
	if mutate != nil {
		mutate(&hc)
	}
	pcmCfg := pcm.DefaultDeviceConfig()
	if err := hc.Validate(pcmCfg); err != nil {
		b.Fatal(err)
	}
	amap, err := pcm.NewAddressMap(pcmCfg)
	if err != nil {
		b.Fatal(err)
	}
	eq := timing.NewEventQueue()
	ctl, err := memctrl.New(memctrl.DefaultConfig(), amap, eq, nil)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := dram.NewDevice(hc.DRAM, amap, eq)
	if err != nil {
		b.Fatal(err)
	}
	m, err := dram.NewMigrator(hc.Migration, ctl, dev, amap, eq, benchModeDecider{})
	if err != nil {
		b.Fatal(err)
	}
	return m, eq, hc
}

// benchHybridDrain runs the stack dry: process every queued event, then
// slice time forward past posted DRAM writes (which occupy banks without
// scheduling events) until nothing is in flight.
func benchHybridDrain(b testing.TB, m *dram.Migrator, eq *timing.EventQueue) {
	b.Helper()
	for i := 0; m.Pending(); i++ {
		eq.Drain(1 << 20)
		eq.RunUntil(eq.Now() + timing.Millisecond)
		if i > 1<<20 {
			b.Fatal("hybrid stack failed to drain")
		}
	}
}

// BenchmarkHybridDRAMHit measures the staging tier's hit path: every
// access lands on a page already resident in DRAM, so reads are DRAM
// array reads and writes are absorbed dirty. ns/op is the routing plus
// DRAM cost the hybrid seam adds in front of the PCM controller —
// compare BenchmarkMemoryController for the PCM-only path it replaces.
func BenchmarkHybridDRAMHit(b *testing.B) {
	m, eq, hc := benchHybridRig(b, func(hc *dram.HybridConfig) {
		hc.Migration.PromoteThreshold = 1 // first touch promotes
	})
	base := uint64(1) << 24
	blockBytes := pcm.DefaultDeviceConfig().BlockBytes
	blocks := hc.Migration.PageBytes / blockBytes

	// Stage the one page every measured access will hit.
	req := m.AcquireRequest()
	req.Kind, req.Addr, req.Mode, req.Wear = memctrl.WriteReq, base, pcm.Mode7SETs, pcm.WearDemandWrite
	if !m.TryEnqueue(req) {
		b.Fatal("staging write rejected")
	}
	benchHybridDrain(b, m, eq)
	if m.ResidentPages() != 1 {
		b.Fatalf("staged %d pages, want 1", m.ResidentPages())
	}

	pending := 0
	onDone := func(timing.Time) { pending-- }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + (uint64(i)%blocks)*blockBytes
		req := m.AcquireRequest()
		req.Addr = addr
		if i%3 == 0 {
			req.Kind = memctrl.WriteReq
			req.Mode = pcm.Mode7SETs
			req.Wear = pcm.WearDemandWrite
		} else {
			req.Kind = memctrl.ReadReq
			req.OnDone = onDone
			pending++
		}
		if !m.TryEnqueue(req) {
			b.Fatal("resident-page access rejected")
		}
		for pending > 64 {
			eq.Step()
		}
	}
	b.StopTimer()
	benchHybridDrain(b, m, eq)
	st := m.Stats()
	if st.PCMWrites != 0 || st.PCMReads != 0 {
		b.Fatalf("hit benchmark leaked to PCM: %d reads / %d writes", st.PCMReads, st.PCMWrites)
	}
}

// BenchmarkHybridMigration measures the churn path: a write stream that
// touches a fresh page every access against a small staging tier, so
// each op promotes a page (copy reads from PCM), dirties it, and
// eventually demotes an LRU victim through the write-coalescing batch
// machinery. ns/op amortizes a full promote/copy/demote cycle.
func BenchmarkHybridMigration(b *testing.B) {
	m, eq, hc := benchHybridRig(b, func(hc *dram.HybridConfig) {
		hc.Migration.PromoteThreshold = 1
		hc.DRAM.CapBytes = 64 * hc.Migration.PageBytes // 64-frame tier
	})
	span := uint64(1) << 30
	var addr uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = (addr + hc.Migration.PageBytes) % span
		req := m.AcquireRequest()
		req.Kind, req.Addr, req.Mode, req.Wear = memctrl.WriteReq, addr, pcm.Mode7SETs, pcm.WearDemandWrite
		if !m.TryEnqueue(req) {
			b.Fatal("promoting write rejected")
		}
		// Keep the event population bounded so copy reads and coalesced
		// writebacks drain as part of the measured cycle.
		for eq.Len() > 1024 {
			eq.Step()
		}
	}
	b.StopTimer()
	benchHybridDrain(b, m, eq)
	st := m.Stats()
	if st.Promotions == 0 {
		b.Fatalf("migration benchmark idle: %+v", st)
	}
	// Demotions need the 64-frame tier full plus the dirty high-water
	// crossed; calibration runs shorter than that legitimately see none.
	if uint64(b.N) > 128 && st.WritebackBlocks == 0 {
		b.Fatalf("migration benchmark never demoted: %+v", st)
	}
}

// reportSimRate reports simulated instructions per host second: the
// instructions of all b.N iterations over the time they took together,
// so the rate is per iteration whatever b.N the harness chose.
func reportSimRate(b *testing.B, insts uint64) {
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}

func BenchmarkFullSystemSimulation(b *testing.B) {
	w, err := WorkloadByName("GemsFDTD")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(RRMScheme(), w)
		cfg.Duration = 2 * Millisecond
		cfg.Warmup = 500 * Microsecond
		cfg.TimeScale = 1000
		m, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		insts += m.Instructions
	}
	reportSimRate(b, insts)
}

// BenchmarkReliabilitySimulation measures the end-to-end cost of the
// fault-injection/ECC/scrubbing model on a full-system run (compare
// against BenchmarkFullSystemSimulation for the disabled baseline).
func BenchmarkReliabilitySimulation(b *testing.B) {
	w, err := WorkloadByName("GemsFDTD")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(StaticScheme(Mode3SETs), w)
		cfg.Duration = 2 * Millisecond
		cfg.Warmup = 500 * Microsecond
		cfg.TimeScale = 1000
		cfg.Reliability = DefaultReliabilityConfig()
		cfg.Reliability.Enabled = true
		m, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if m.Reliability == nil {
			b.Fatal("reliability metrics missing")
		}
		insts += m.Instructions
	}
	reportSimRate(b, insts)
}

// sampledBenchConfig is the steady-state regime where interval sampling
// pays for itself: the retention clock at real time (TimeScale 1) and a
// long measured window, so retention events are sparse and nearly all
// wall time goes to cycle-accurate core/memory simulation. Both halves
// of the pair share this config exactly; BenchmarkSampledRun only adds
// the SamplingSpec.
func sampledBenchConfig(b *testing.B) Config {
	b.Helper()
	w, err := WorkloadByName("GemsFDTD")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(RRMScheme(), w)
	cfg.Duration = 50 * Millisecond
	cfg.Warmup = 1 * Millisecond
	cfg.TimeScale = 1
	return cfg
}

// BenchmarkFullRun / BenchmarkSampledRun are the headline pair for the
// sampling executor: identical configs, one simulated cycle by cycle,
// the other through eight 100 us detailed windows with stride-16
// functional fast-forward between them. The ns/op ratio is the recorded
// speedup in BENCH_8.json; internal/sampling/validate_test.go proves
// the sampled intervals still contain the full-run metrics.
func BenchmarkFullRun(b *testing.B) {
	cfg := sampledBenchConfig(b)
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		insts += m.Instructions
	}
	reportSimRate(b, insts)
}

func BenchmarkSampledRun(b *testing.B) {
	cfg := sampledBenchConfig(b)
	cfg.Sampling = &SamplingSpec{
		Windows:      8,
		Window:       100 * Microsecond,
		DetailWarmup: 100 * Microsecond,
		FFStride:     16,
	}
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := RunSampled(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if m.Sampling == nil {
			b.Fatal("sampling report missing")
		}
		insts += m.Instructions
	}
	reportSimRate(b, insts)
}

// benchDynamicStream builds stream 0 of a named non-stationary
// workload with the simulator's partition and seeding rules.
func benchDynamicStream(b *testing.B, workload string) Stream {
	b.Helper()
	w, err := WorkloadByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	base, span := CorePartition(DefaultDeviceConfig().MemBytes, len(w.Cores), 0)
	gen, err := NewStream(w, 0, base, span, 1)
	if err != nil {
		b.Fatal(err)
	}
	return gen
}

// BenchmarkTraceGeneratorPhases measures the non-stationary generator
// with phase switching active (compare against BenchmarkTraceGenerator
// for the stationary baseline).
func BenchmarkTraceGeneratorPhases(b *testing.B) {
	gen := benchDynamicStream(b, "PHASE_1")
	var op trace.Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&op)
	}
}

// BenchmarkTraceGeneratorBurst measures the MMPP on/off modulation path.
func BenchmarkTraceGeneratorBurst(b *testing.B) {
	gen := benchDynamicStream(b, "BURST_1")
	var op trace.Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&op)
	}
}

// BenchmarkTraceReplay measures trace-file decode throughput — the
// replay-side counterpart of BenchmarkTraceGenerator (the recording
// wraps as needed, so b.N is unbounded).
func BenchmarkTraceReplay(b *testing.B) {
	p, err := trace.ProfileByName("GemsFDTD")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewMixture(p, 0, 2<<30, 1)
	if err != nil {
		b.Fatal(err)
	}
	meta := tracefile.Meta{Name: p.Name, BaseCPI: gen.BaseCPI(), MaxMLP: gen.MaxMLP(), Span: 2 << 30, Seed: 1}
	blob, err := tracefile.Record(gen, meta, 1<<18)
	if err != nil {
		b.Fatal(err)
	}
	f, err := tracefile.Parse(blob)
	if err != nil {
		b.Fatal(err)
	}
	r := f.Stream()
	var op trace.Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Next(&op)
	}
}
