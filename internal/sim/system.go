package sim

import (
	"context"
	"fmt"

	"rrmpcm/internal/cache"
	"rrmpcm/internal/core"
	"rrmpcm/internal/cpu"
	"rrmpcm/internal/dram"
	"rrmpcm/internal/memctrl"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/reliability"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// runPhase tracks a System's single-use lifecycle: built, warmed (by
// Warmup or Restore), measured.
type runPhase int

const (
	phaseNew runPhase = iota
	phaseWarm
	phaseDone
)

func (p runPhase) String() string {
	switch p {
	case phaseNew:
		return "fresh"
	case phaseWarm:
		return "warmed"
	default:
		return "measured"
	}
}

// System is one fully assembled simulated machine.
type System struct {
	cfg   Config
	phase runPhase

	// functional is true while FastForward runs the machine in
	// functional-only mode: the backend bypasses the memory controller
	// (flat read latency, instant writes/refreshes) while all
	// architectural state keeps advancing.
	functional bool
	// ffInsts/ffSpan record the most recent FastForward's instruction
	// count and span, feeding the sampler's rate-matching feedback loop.
	ffInsts uint64
	ffSpan  timing.Time

	// eq is the simulation's single event queue; eq.Now() is the
	// global time.
	eq     *timing.EventQueue
	amap   *pcm.AddressMap
	wear   *pcm.WearTracker
	energy *pcm.EnergyMeter
	hier   *cache.Hierarchy
	ctl    *memctrl.Controller
	// dev is the memory device the backend talks to: the PCM controller
	// directly, or the hybrid migration engine fronting it (cfg.Hybrid).
	dev     memctrl.Device
	dramDev *dram.Device   // nil unless the hybrid tier is enabled
	migr    *dram.Migrator // nil unless the hybrid tier is enabled
	policy  core.WritePolicy
	rrm     *core.RRM // nil for static/custom schemes
	cores   []*cpu.Core
	gens    []trace.Stream // per-core streams, retained for snapshots
	backend *backend
	checker *retentionChecker
	rel     *reliability.Engine // nil when the reliability model is off
	tenants *tenantTracker      // nil unless the workload names tenants

	// base is the warmup-end counter baseline collect subtracts; held on
	// the System (with fixed-size arrays) so a run allocates nothing to
	// capture it.
	base baseline

	// Patrol-scrub event bookkeeping (see initPatrol/armPatrol).
	patrolInterval timing.Time
	patrolAt       timing.Time
	patrolSeq      int64
	patrolFn       func(timing.Time)
}

// New assembles the system described by cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, eq: timing.NewEventQueue()}

	var err error
	s.amap, err = pcm.NewAddressMap(cfg.Device)
	if err != nil {
		return nil, err
	}
	s.wear = pcm.NewWearTracker(s.amap)
	s.energy = pcm.NewEnergyMeter(cfg.Device.BlockBytes)
	s.hier, err = cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	if cfg.CheckRetention {
		s.checker = newRetentionChecker(cfg)
	}
	s.backend = newBackend(s)

	s.ctl, err = memctrl.New(cfg.Ctrl, s.amap, s.eq, s.backend)
	if err != nil {
		return nil, err
	}

	switch cfg.Scheme.Kind {
	case SchemeStatic:
		s.policy = core.NewStatic(cfg.Scheme.StaticMode)
	case SchemeRRM:
		s.rrm, err = core.NewRRM(cfg.scaledRRM(), s.backend)
		if err != nil {
			return nil, err
		}
		s.policy = s.rrm
	case SchemeCustom:
		s.policy = cfg.Scheme.Custom
		// Custom policies that issue selective refreshes (e.g. the
		// multi-mode RRM) get the backend's refresh path.
		if setter, ok := s.policy.(interface{ SetIssuer(core.RefreshIssuer) }); ok {
			setter.SetIssuer(s.backend)
		}
	}

	if s.checker != nil {
		// The checker tracks exactly the blocks whose refreshes the
		// policy actually simulates (see core.SampledBlock).
		s.checker.sampling = s.refreshSampling()
	}
	if cfg.Reliability.Enabled {
		// The fault injector shares the checker's sampled-subset rule
		// and gets its own config-derived RNG stream (never the trace
		// generators' core seeds).
		s.rel = reliability.New(cfg.Reliability, pcm.DefaultDriftTable(),
			cfg.TimeScale, s.refreshSampling(), cfg.reliabilitySeed())
		s.ctl.SetReadIntegrity(s.rel)
	}

	// The backend talks to the memory system through the device seam:
	// PCM-only runs bind the controller directly (one interface dispatch,
	// nothing else changes); hybrid runs interpose the migration engine.
	s.dev = s.ctl
	if cfg.Hybrid != nil {
		s.dramDev, err = dram.NewDevice(cfg.Hybrid.DRAM, s.amap, s.eq)
		if err != nil {
			return nil, err
		}
		s.migr, err = dram.NewMigrator(cfg.Hybrid.Migration, s.ctl, s.dramDev, s.amap, s.eq, s.policy)
		if err != nil {
			return nil, err
		}
		// Functional fast-forward demotions complete instantly but still
		// advance wear/energy/retention state like any PCM write.
		s.migr.SetFunctionalWriter(func(addr uint64, mode pcm.WriteMode) {
			s.backend.RecordWrite(addr, mode, pcm.WearDemandWrite)
		})
		s.dev = s.migr
	}

	nStreams := cfg.Workload.NumStreams()
	span := cfg.Device.MemBytes / uint64(nStreams)
	for i := 0; i < nStreams; i++ {
		var gen trace.Stream
		var err error
		if len(cfg.Workload.Replay) > 0 {
			gen, err = loadReplayStream(cfg.Workload.Replay[i])
		} else {
			base, span := trace.CorePartition(cfg.Device.MemBytes, nStreams, i)
			gen, err = trace.NewStream(cfg.Workload, i, base, span, cfg.Seed)
		}
		if err != nil {
			return nil, err
		}
		ccfg := cpu.DefaultConfig(i)
		if cfg.CoreROB > 0 {
			ccfg.ROB = cfg.CoreROB
		}
		if cfg.CoreMSHRs > 0 {
			ccfg.MSHRs = cfg.CoreMSHRs
		}
		c, err := cpu.New(ccfg, gen, s.backend, s.eq)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
		s.gens = append(s.gens, gen)
	}
	if len(cfg.Workload.Tenants) > 0 {
		s.tenants = newTenantTracker(cfg.Workload.Tenants, span)
		if s.checker != nil {
			s.checker.onViolation = s.tenants.noteViolation
		}
		if s.rel != nil {
			s.rel.SetReadObserver(s.tenants.noteRead)
		}
		s.base.tenants = s.tenants.emptyCounters()
	}
	s.base.coreInsts = make([]uint64, 0, len(s.cores))
	s.base.coreTimes = make([]timing.Time, 0, len(s.cores))
	return s, nil
}

// RRM exposes the monitor for inspection (nil for static schemes).
func (s *System) RRM() *core.RRM { return s.rrm }

// refreshSampling returns the policy's simulated-refresh sampling factor
// (1 when the policy simulates every refresh).
func (s *System) refreshSampling() uint64 {
	if p, ok := s.policy.(interface{ RefreshSampling() uint64 }); ok {
		return p.RefreshSampling()
	}
	return 1
}

// Hierarchy exposes the cache hierarchy (read-only use).
func (s *System) Hierarchy() *cache.Hierarchy { return s.hier }

// Run executes the configured warmup + measurement window and returns the
// collected metrics.
func (s *System) Run() (Metrics, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// between event-queue slices (every simulated millisecond), so a
// cancelled or timed-out context stops the run mid-window with ctx's
// error instead of completing it. A System is single-use either way.
func (s *System) RunContext(ctx context.Context) (Metrics, error) {
	if err := s.Warmup(ctx); err != nil {
		return Metrics{}, err
	}
	return s.Measure(ctx)
}

// Warmup starts every component and advances the simulation to the end of
// the warmup window. A warmed system can be measured (Measure) or
// serialized (Snapshot) — taking a snapshot here and restoring it into a
// fresh same-prefix system reproduces this exact state without
// re-simulating the warmup.
func (s *System) Warmup(ctx context.Context) error {
	if s.phase != phaseNew {
		return fmt.Errorf("sim: Warmup called on a %s system", s.phase)
	}
	end := s.cfg.Warmup + s.cfg.Duration
	for _, c := range s.cores {
		c.StopAt(end)
		c.Start()
	}
	if s.rrm != nil {
		s.rrm.Start(s.eq)
	}
	if cust, ok := s.policy.(interface{ Start(*timing.EventQueue) }); ok && s.cfg.Scheme.Kind == SchemeCustom {
		cust.Start(s.eq)
	}
	if s.rel != nil && s.cfg.Reliability.Patrol {
		s.initPatrol()
		s.armPatrol(s.eq.Now() + s.patrolInterval)
	}
	if err := s.runUntil(ctx, s.cfg.Warmup); err != nil {
		return err
	}
	s.phase = phaseWarm
	return nil
}

// Measure runs the measurement window of a warmed system (from Warmup or
// Restore), drains the memory system and returns the collected metrics.
func (s *System) Measure(ctx context.Context) (Metrics, error) {
	if s.phase != phaseWarm {
		return Metrics{}, fmt.Errorf("sim: Measure called on a %s system", s.phase)
	}
	end := s.cfg.Warmup + s.cfg.Duration
	// Re-assert the stop horizon: it is not part of a snapshot (a
	// restored run sets its own), and no core can have reached it during
	// warmup (local time never leads the clock by more than a quantum).
	for _, c := range s.cores {
		c.StopAt(end)
	}
	s.captureBaseline()
	return s.finishMeasure(ctx, end, s.cfg.Duration)
}

// finishMeasure runs the event queue to end, drains the memory system
// and collects metrics over a measurement window of the given length
// (cfg.Duration for Measure, the sampling window for MeasureWindow).
func (s *System) finishMeasure(ctx context.Context, end timing.Time, window timing.Time) (Metrics, error) {
	if err := s.runUntil(ctx, end); err != nil {
		return Metrics{}, err
	}

	// Stop new refresh issue and drain in-flight memory traffic so the
	// last writes are accounted. Expiries past this horizon are
	// truncation artifacts, not policy violations.
	s.backend.stopped = true
	if s.checker != nil {
		s.checker.horizon = end
	}
	deadline := end + 100*timing.Millisecond
	for s.dev.Pending() && s.eq.Now() < deadline {
		if err := ctx.Err(); err != nil {
			return Metrics{}, fmt.Errorf("sim: run cancelled at %v: %w", s.eq.Now(), err)
		}
		s.eq.RunUntil(s.eq.Now() + timing.Millisecond)
	}
	if s.dev.Pending() {
		return Metrics{}, fmt.Errorf("sim: memory system failed to drain after %v", deadline-end)
	}
	if s.checker != nil {
		s.checker.finish(s.eq.Now())
	}
	if s.rel != nil {
		// Classify lines the workload never re-read. Ages are measured
		// at the window end: rewrites that completed during the drain
		// are in the future of `end` and read as age zero.
		s.rel.Finish(end)
	}
	s.phase = phaseDone
	return s.collect(window), nil
}

// Close is a no-op kept for existing callers: a System holds no
// goroutines or other resources beyond memory.
func (s *System) Close() {}

// initPatrol builds the periodic background patrol-scrub callback: every
// scaled PatrolInterval it asks the reliability engine for the next batch
// of tracked lines and rewrites them through the controller's refresh
// path (clock-driven work, accounted like slow refresh). armPatrol
// schedules it and records the event descriptor for snapshots.
func (s *System) initPatrol() {
	s.patrolInterval = s.cfg.scaledPatrolInterval()
	issue := func(addr uint64, mode pcm.WriteMode) {
		s.backend.IssueRefresh(addr, mode, pcm.WearSlowRefresh)
	}
	s.patrolFn = func(now timing.Time) {
		if s.backend.stopped {
			return // measurement over: the drain must not add work
		}
		s.rel.Patrol(issue)
		s.armPatrol(now + s.patrolInterval)
	}
}

func (s *System) armPatrol(at timing.Time) {
	s.patrolAt = at
	s.patrolSeq = s.eq.Schedule(at, s.patrolFn).Seq()
}

// runUntil advances the event queue to t in millisecond slices, checking
// ctx between slices.
func (s *System) runUntil(ctx context.Context, t timing.Time) error {
	for now := s.eq.Now(); now < t; now = s.eq.Now() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sim: run cancelled at %v: %w", now, err)
		}
		next := now + timing.Millisecond
		if next > t {
			next = t
		}
		s.eq.RunUntil(next)
	}
	return nil
}

// baseline captures every counter the measurement window must subtract.
// It lives on the System and is refilled in place — wearMode is a fixed
// array (indexed mode−Mode3SETs) and the per-core slices keep their
// backing arrays — so capturing it allocates nothing.
type baseline struct {
	at        timing.Time
	coreInsts []uint64
	coreTimes []timing.Time
	llcMisses uint64
	llcAcc    uint64
	ctl       memctrl.Stats
	wearKind  [4]uint64
	wearMode  [5]uint64
	energyW   [4]float64
	energyR   float64
	rrm       core.Stats
	rel       reliability.Metrics
	tenants   *tenantCounters // nil unless tenants are tracked
	dram      dram.Stats      // zero unless the hybrid tier is enabled
	mig       dram.MigStats
}

func (s *System) captureBaseline() {
	sn := &s.base
	sn.at = s.eq.Now()
	sn.ctl = s.ctl.Stats()
	sn.coreInsts = sn.coreInsts[:0]
	sn.coreTimes = sn.coreTimes[:0]
	for _, c := range s.cores {
		st := c.Stats()
		sn.coreInsts = append(sn.coreInsts, st.Instructions)
		sn.coreTimes = append(sn.coreTimes, st.LocalTime)
	}
	llc := s.hier.LLC().Stats()
	sn.llcMisses, sn.llcAcc = llc.Misses, llc.Accesses
	for i, k := range pcm.WearKinds() {
		sn.wearKind[i] = s.wear.ByKind(k)
		sn.energyW[i] = s.energy.WriteEnergy(k)
	}
	for _, m := range pcm.Modes() {
		sn.wearMode[m-pcm.Mode3SETs] = s.wear.ByMode(m)
	}
	sn.energyR = s.energy.ReadEnergy()
	sn.rrm = core.Stats{}
	if s.rrm != nil {
		sn.rrm = s.rrm.Stats()
	}
	sn.rel = reliability.Metrics{}
	if s.rel != nil {
		sn.rel = s.rel.Metrics()
	}
	if s.tenants != nil {
		sn.tenants.copyFrom(&s.tenants.tenantCounters)
	}
	if s.migr != nil {
		sn.dram = s.dramDev.Stats()
		sn.mig = s.migr.Stats()
	}
}
