package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"time"

	"rrmpcm/internal/experiments"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/sampling"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/stats"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// workload is one benchmark input: a config generator plus the
// operation that runs it through a public simulator entry point.
type workload struct {
	name string
	run  func(ctx context.Context, seed uint64, sp *spans) opResult
	// setupSpan names the per-layer span its set-up time is reported as.
	setupSpan string
}

// workloads each stress different layers; README.md gives the reason
// for each and the layers it should move.
var workloads = []workload{
	{
		name: "detailed-static7-mcf",
		run: func(ctx context.Context, seed uint64, sp *spans) opResult {
			return runDetailed(ctx, detailedConfig(sim.StaticScheme(pcm.Mode7SETs), "mcf", 30, seed), sp)
		},
		setupSpan: "sim.setup_s",
	},
	{
		name:      "sampled-rrm-mix2",
		run:       runSampled,
		setupSpan: "sim.setup_s",
	},
	{
		name:      "artifact-fig7-quick",
		run:       runArtifact,
		setupSpan: "experiments.setup_s",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func traceWorkload(name string) trace.Workload {
	for _, w := range trace.Workloads() {
		if w.Name == name {
			return w
		}
	}
	panic("perfbench: unknown trace workload " + name)
}

// detailedConfig is the full experiments pass's regime, TimeScale 100
// and a 10 ms warmup, with a measured window of durationMS.
func detailedConfig(scheme sim.Scheme, workload string, durationMS int, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(scheme, traceWorkload(workload))
	cfg.Warmup = 10 * timing.Millisecond
	cfg.Duration = timing.Time(durationMS) * timing.Millisecond
	cfg.TimeScale = 100
	cfg.Seed = seed
	return cfg
}

// sampledConfig samples 200 ms of MIX_2 under RRM with eight 100 µs
// windows and stride-4 fast-forward thinning.
func sampledConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(sim.RRMScheme(), traceWorkload("MIX_2"))
	cfg.Duration = 200 * timing.Millisecond
	cfg.TimeScale = 100
	cfg.Seed = seed
	cfg.Sampling = &sim.SamplingSpec{
		Windows:      8,
		Window:       100 * timing.Microsecond,
		DetailWarmup: 100 * timing.Microsecond,
		FFStride:     4,
	}
	return cfg
}

// opResult is what one operation reports to the parent process.
type opResult struct {
	// Err is the first error or failed check; "" means the operation
	// succeeded.
	Err    string `json:"err,omitempty"`
	Digest string `json:"digest"`
	// Insts are the simulated instructions SimSeconds covers; the
	// operation's rate is Insts/SimSeconds.
	Insts      uint64    `json:"insts"`
	SimSeconds float64   `json:"sim_seconds"`
	WallSecs   float64   `json:"wall_seconds"`
	Setups     []float64 `json:"setups"`
	PeakRSSMiB float64   `json:"peak_rss_mib"`
	AllocMiB   float64   `json:"alloc_mib"`
	GCCPUPct   float64   `json:"gc_cpu_pct"`
	// Counts are the operation's simulated results and engine counts,
	// keyed by per-layer metric name.
	Counts map[string]float64 `json:"counts"`
	Spans  map[string]float64 `json:"spans,omitempty"`
	// again repeats the operation's set-up once and discards it; the
	// child process times it after the operation's own measurements.
	again func() error
}

// minstsPerSec is the operation's own simulation rate: its
// instructions over its own elapsed time, in millions per second.
func (r opResult) minstsPerSec() float64 {
	if r.SimSeconds <= 0 {
		return 0
	}
	return float64(r.Insts) / r.SimSeconds / 1e6
}

func (r *opResult) failf(format string, a ...any) {
	if r.Err == "" {
		r.Err = fmt.Sprintf(format, a...)
	}
}

// runDetailed is one full-detail run: sim.New, Warmup, Measure.
func runDetailed(ctx context.Context, cfg sim.Config, sp *spans) opResult {
	var r opResult
	start := time.Now()
	sys, err := sim.New(cfg)
	r.Setups = append(r.Setups, time.Since(start).Seconds())
	if err != nil {
		r.failf("setup: %v", err)
		return r
	}
	simStart := time.Now()
	end := sp.start("sim.warmup_s")
	err = sys.Warmup(ctx)
	end()
	if err != nil {
		r.failf("warmup: %v", err)
		return r
	}
	llc := sys.Hierarchy().LLC().Stats()
	end = sp.start("sim.measure_s")
	m, err := sys.Measure(ctx)
	end()
	done := time.Now()
	if err != nil {
		r.failf("measure: %v", err)
		return r
	}
	r.Insts = sys.Instructions()
	r.SimSeconds = done.Sub(simStart).Seconds()
	r.WallSecs = done.Sub(start).Seconds()
	r.finish(m)

	lines := uint64(cfg.Hierarchy.LLC.SizeBytes / cfg.Hierarchy.LLC.LineBytes)
	if llc.Misses <= lines {
		r.failf("LLC took %d misses in warmup, not more than its %d lines", llc.Misses, lines)
	}
	r.again = func() error { return setupOnce(cfg) }
	return r
}

// runSampled is one sampled run through sampling.Run, which builds its
// own systems; its set-up time is that of separate constructions of the
// same config, made after the run.
func runSampled(ctx context.Context, seed uint64, sp *spans) opResult {
	var r opResult
	cfg := sampledConfig(seed)
	start := time.Now()
	end := sp.start("sampling.run_s")
	m, err := sampling.Run(ctx, cfg)
	end()
	done := time.Now()
	if err != nil {
		r.failf("sampled run: %v", err)
		return r
	}
	r.Insts = m.Instructions
	r.SimSeconds = done.Sub(start).Seconds()
	r.WallSecs = r.SimSeconds
	r.finish(m)

	if m.Sampling == nil {
		r.failf("sampled run returned no sampling report")
		return r
	}
	s := m.Sampling
	for _, iv := range []struct {
		name string
		iv   stats.Interval
	}{
		{"ipc", s.IPC}, {"llc_mpki", s.LLCMPKI}, {"wear_total_rate", s.WearTotalRate},
		{"lifetime_years", s.LifetimeYears}, {"short_write_fraction", s.ShortWriteFraction},
	} {
		if !(iv.iv.Lo <= iv.iv.Mean && iv.iv.Mean <= iv.iv.Hi) {
			r.failf("sampled %s interval [%g, %g] does not bracket its mean %g",
				iv.name, iv.iv.Lo, iv.iv.Hi, iv.iv.Mean)
		}
	}
	r.Counts["sampling.coverage"] = s.Coverage
	if s.IPC.Mean > 0 {
		r.Counts["sampling.ipc_ci_halfwidth_pct"] = 100 * s.IPC.Width() / 2 / s.IPC.Mean
	}
	r.again = func() error { return setupOnce(cfg) }
	return r
}

// setupOnce constructs cfg's system and discards it.
func setupOnce(cfg sim.Config) error {
	sys, err := sim.New(cfg)
	if err != nil {
		return err
	}
	sys.Close()
	return nil
}

// finish records a successful run's digest, invariants and simulated
// counts.
func (r *opResult) finish(m sim.Metrics) {
	blob, err := json.Marshal(m)
	if err != nil {
		r.failf("encode metrics: %v", err)
	}
	r.Digest = digest(blob)
	if m.RetentionViolations != 0 {
		r.failf("%d retention violations (first: %s)", m.RetentionViolations, m.FirstViolation)
	}
	r.Counts = simCounts(m)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// simCounts maps one run's metrics onto the per-layer simulated
// counts. They are deterministic for a given config.
func simCounts(m sim.Metrics) map[string]float64 {
	c := map[string]float64{
		"cpu.ipc":                     m.IPC,
		"cpu.insts":                   float64(m.Instructions),
		"cache.llc_mpki":              m.LLCMPKI,
		"core.registrations":          float64(m.RRM.Registrations),
		"core.short_write_frac":       m.ShortWriteFraction,
		"core.fast_refreshes":         float64(m.RRM.FastRefreshes),
		"core.slow_refreshes":         float64(m.RRM.SlowRefreshes),
		"core.hot_entries":            float64(m.HotEntries),
		"core.refresh_backlog_max":    float64(m.RefreshBacklogMax),
		"memctrl.reads":               float64(m.ReadsServed),
		"memctrl.writes":              float64(m.WritesServed),
		"memctrl.refreshes":           float64(m.RefreshesServed),
		"memctrl.avg_read_latency_ns": m.AvgReadLatency.Nanoseconds(),
		"memctrl.row_hit_rate":        m.RowBufHitRate,
		"memctrl.write_pauses":        float64(m.WritePauses),
		"pcm.wear_total_rate":         m.WearTotalRate,
		"pcm.lifetime_years":          m.LifetimeYears,
		"pcm.retention_violations":    float64(m.RetentionViolations),
	}
	if n := m.RRM.RegHits + m.RRM.RegMisses; n > 0 {
		c["core.reg_hit_ratio"] = float64(m.RRM.RegHits) / float64(n)
	}
	if paper, ok := trace.PaperMPKI()[m.Workload]; ok && paper > 0 {
		c["cache.llc_mpki_err_pct"] = 100 * (m.LLCMPKI/paper - 1)
	}
	return c
}

// Figure 7's matrix in quick mode: Static-7…3 and RRM over the quick
// workload trio.
var (
	fig7Schemes = []sim.Scheme{
		sim.StaticScheme(pcm.Mode7SETs), sim.StaticScheme(pcm.Mode6SETs),
		sim.StaticScheme(pcm.Mode5SETs), sim.StaticScheme(pcm.Mode4SETs),
		sim.StaticScheme(pcm.Mode3SETs), sim.RRMScheme(),
	}
	fig7Workloads = []string{"GemsFDTD", "mcf", "MIX_2"}

	rrmVsStatic7 = regexp.MustCompile(`RRM vs Static-7 \(geomean\): ([-+0-9.]+)%`)
	gapBridged   = regexp.MustCompile(`Gap bridged by RRM: +([-+0-9.]+)%`)
)

// runArtifact regenerates quick-mode Figure 7 through a fresh in-memory
// runner with one worker, then runs the experiment again on the warm
// runner to time table assembly alone.
func runArtifact(ctx context.Context, seed uint64, sp *spans) opResult {
	var r opResult
	opts := experiments.Options{Quick: true, Seed: seed, Parallel: opProcs, Context: ctx}
	start := time.Now()
	runner, exp, specs, err := artifactSetup(opts)
	r.Setups = append(r.Setups, time.Since(start).Seconds())
	if err != nil {
		r.failf("setup: %v", err)
		return r
	}
	batchStart := time.Now()
	end := sp.start("experiments.run_s")
	text, err := exp.Run(runner)
	end()
	done := time.Now()
	if err != nil {
		r.failf("fig7: %v", err)
		return r
	}
	r.SimSeconds = done.Sub(batchStart).Seconds()
	r.WallSecs = done.Sub(start).Seconds()
	r.Digest = digest([]byte(text))
	st := runner.Stats()

	end = sp.start("experiments.assemble_s")
	again, err := exp.Run(runner)
	end()
	if err != nil || again != text {
		r.failf("fig7 on the warm runner differs from the first pass (err %v)", err)
	}
	ms, err := runner.RunBatch(specs)
	if err != nil {
		r.failf("matrix lookup: %v", err)
		return r
	}
	if after := runner.Stats(); after.Simulated != st.Simulated {
		r.failf("warm runner simulated %d more runs", after.Simulated-st.Simulated)
	}
	var violations uint64
	for _, m := range ms {
		r.Insts += m.Instructions
		violations += m.RetentionViolations
	}
	if violations != 0 {
		r.failf("%d retention violations across the matrix", violations)
	}
	if st.Simulated != uint64(len(specs)) {
		r.failf("runner simulated %d runs, want %d", st.Simulated, len(specs))
	}
	r.Counts = map[string]float64{
		"cpu.insts":                float64(r.Insts),
		"pcm.retention_violations": float64(violations),
		"engine.jobs":              float64(st.Simulated),
		"engine.parallel_eff":      st.SimWall.Seconds() / (r.SimSeconds * float64(opts.Parallel)),
	}
	for name, re := range map[string]*regexp.Regexp{
		"experiments.rrm_vs_static7_pct": rrmVsStatic7,
		"experiments.gap_bridged_pct":    gapBridged,
	} {
		sub := re.FindStringSubmatch(text)
		if sub == nil {
			r.failf("fig7 table has no %s line", name)
			continue
		}
		v, err := strconv.ParseFloat(sub[1], 64)
		if err != nil {
			r.failf("fig7 %s: %v", name, err)
		}
		r.Counts[name] = v
	}
	r.again = func() error {
		_, _, _, err := artifactSetup(opts)
		return err
	}
	return r
}

// artifactSetup builds the runner and the validated, hashed job specs
// of the Figure 7 matrix.
func artifactSetup(opts experiments.Options) (*experiments.Runner, experiments.Experiment, []experiments.RunSpec, error) {
	runner := experiments.NewRunner(opts)
	exp, err := experiments.ByID("fig7")
	if err != nil {
		return nil, exp, nil, err
	}
	var specs []experiments.RunSpec
	for _, name := range fig7Workloads {
		w := traceWorkload(name)
		for _, s := range fig7Schemes {
			cfg := opts.SimConfig(s, w)
			if err := cfg.Validate(); err != nil {
				return nil, exp, nil, err
			}
			if _, err := experiments.NewJob(cfg, "main"); err != nil {
				return nil, exp, nil, err
			}
			specs = append(specs, experiments.RunSpec{Label: "main", Scheme: s, Workload: w})
		}
	}
	return runner, exp, specs, nil
}
