// Package sim assembles the full system of Tables IV and V: four interval
// OoO cores running synthetic SPEC-like workloads against the cache
// hierarchy, a write policy (RRM or Static-N), the PCM memory controller
// and the wear/energy/retention bookkeeping — and runs the experiment,
// producing the metrics every figure of the paper is built from.
//
// # Time scaling
//
// The paper simulates 5 s of wall time because the retention machinery
// works at seconds scale (2 s fast-refresh interrupts, 0.125 s decay
// ticks, 2.01..3054.9 s retentions). Simulating seconds of 4-core traffic
// event by event is prohibitive, so the simulator runs the *demand* side
// at native rates for a short window (tens of milliseconds) and
// accelerates only the *retention clock*: FastRefreshInterval,
// DecayInterval, the retention deadlines of the checker and the global
// refresh accounting are all divided by TimeScale. When metrics are
// extracted, refresh-caused quantities (wear, energy, queue traffic) are
// divided by TimeScale again, which restores real rates exactly because
// refresh work is purely clock-driven. Demand-side rates are measured
// directly. Hotness classification is count-based (hot_threshold dirty
// writes), so it is unaffected by the clock scaling, and the decay
// mechanism sees proportionally compressed windows. TimeScale=1 with
// Duration=5 s reproduces the paper's literal setup.
package sim

import (
	"fmt"

	"rrmpcm/internal/cache"
	"rrmpcm/internal/core"
	"rrmpcm/internal/dram"
	"rrmpcm/internal/memctrl"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/reliability"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// SchemeKind selects the write policy family.
type SchemeKind int

const (
	// SchemeStatic is a Static-N-SETs baseline of Table VI.
	SchemeStatic SchemeKind = iota
	// SchemeRRM is the paper's Region Retention Monitor.
	SchemeRRM
	// SchemeCustom plugs in a user-provided WritePolicy.
	SchemeCustom
)

// Scheme selects and parameterizes the write policy of a run.
type Scheme struct {
	Kind SchemeKind

	// StaticMode is the fixed write mode for SchemeStatic.
	StaticMode pcm.WriteMode

	// RRM configures SchemeRRM with *unscaled* paper constants; the
	// simulator applies TimeScale to the periodic intervals.
	RRM core.RRMConfig

	// Custom is the policy for SchemeCustom. If it implements
	// interface{ Start(*timing.EventQueue) } it is started with the
	// simulation's event queue.
	Custom core.WritePolicy
}

// StaticScheme returns the Static-N baseline for the given mode.
func StaticScheme(mode pcm.WriteMode) Scheme {
	return Scheme{Kind: SchemeStatic, StaticMode: mode}
}

// RRMScheme returns the default-configured RRM scheme.
func RRMScheme() Scheme {
	return Scheme{Kind: SchemeRRM, RRM: core.DefaultRRMConfig()}
}

// Name returns the scheme's display name (Table VI style).
func (s Scheme) Name() string {
	switch s.Kind {
	case SchemeStatic:
		return fmt.Sprintf("Static-%d-SETs", s.StaticMode.Sets())
	case SchemeRRM:
		return "RRM"
	default:
		if s.Custom != nil {
			return s.Custom.Name()
		}
		return "custom"
	}
}

// Config describes one simulation run.
type Config struct {
	Device    pcm.DeviceConfig
	Hierarchy cache.HierarchyConfig
	Ctrl      memctrl.Config
	Scheme    Scheme
	Workload  trace.Workload

	// Duration is the measured simulation window (after Warmup).
	Duration timing.Time
	// Warmup runs before measurement starts (cache warmup, hot-set
	// formation).
	Warmup timing.Time
	// TimeScale accelerates the retention clock (see package comment).
	TimeScale float64
	// Seed makes runs reproducible; each core derives a sub-seed.
	Seed uint64

	// HitStallFactor is the fraction of L2/LLC hit latency charged to
	// the core synchronously (the rest is assumed hidden by the OoO
	// window). L1 hits are fully pipelined.
	HitStallFactor float64

	// CheckRetention enables the per-block retention deadline checker
	// (always on in tests; cheap enough to leave on everywhere).
	CheckRetention bool

	// Reliability configures the drift-fault injection + ECC + scrub
	// model (internal/reliability). Disabled by default: enabling it
	// adds ECC correction stalls to the read path.
	Reliability reliability.Config

	// CoreROB / CoreMSHRs size the cores (Table IV defaults if zero).
	CoreROB   int
	CoreMSHRs int

	// EquivalentDuration is the wall time the run stands for when
	// reporting per-run totals (the paper runs 5 s); metrics scale
	// rates by it. Zero means "report rates only, totals over 5 s".
	EquivalentDuration timing.Time

	// Hybrid, when non-nil, fronts the PCM with a DRAM staging tier and
	// hot-page migration engine (internal/dram): demand traffic to
	// resident pages is served by or absorbed into DRAM, misses feed the
	// promotion policy, and cold-dirty pages demote in coalesced
	// batches. Nil — the default — is the paper's PCM-only machine.
	Hybrid *dram.HybridConfig `json:",omitempty"`

	// Sampling, when non-nil, runs the measurement as SMARTS-style
	// interval sampling (internal/sampling) instead of one contiguous
	// detailed window: Duration is covered by Sampling.Windows detailed
	// windows with functional fast-forward between them, and the
	// metrics carry confidence intervals (Metrics.Sampling). Nil — the
	// default — is a full detailed run.
	Sampling *SamplingSpec
}

// DefaultConfig returns the Tables IV/V system with the given scheme and
// workload and calibrated fast-run settings: a 40 ms measured window at
// TimeScale 100 (retention clock: fast refresh every 20 ms, decay every
// 1.25 ms).
func DefaultConfig(scheme Scheme, w trace.Workload) Config {
	return Config{
		Device:             pcm.DefaultDeviceConfig(),
		Hierarchy:          cache.DefaultHierarchyConfig(),
		Ctrl:               memctrl.DefaultConfig(),
		Scheme:             scheme,
		Workload:           w,
		Duration:           40 * timing.Millisecond,
		Warmup:             10 * timing.Millisecond,
		TimeScale:          100,
		Seed:               1,
		HitStallFactor:     0.35,
		CheckRetention:     true,
		Reliability:        reliability.DefaultConfig(),
		EquivalentDuration: 5 * timing.Second,
	}
}

// Validate checks the run configuration.
func (c Config) Validate() error {
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if err := c.Hierarchy.Validate(); err != nil {
		return err
	}
	if err := c.Ctrl.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Workload.NumStreams() == 0 {
		return fmt.Errorf("sim: workload has no cores")
	}
	if n := c.Workload.NumStreams(); n != c.Hierarchy.Cores {
		return fmt.Errorf("sim: workload has %d streams, hierarchy %d cores",
			n, c.Hierarchy.Cores)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sim: non-positive duration")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("sim: negative warmup")
	}
	if c.TimeScale < 1 {
		return fmt.Errorf("sim: TimeScale %v must be >= 1", c.TimeScale)
	}
	if c.HitStallFactor < 0 || c.HitStallFactor > 1 {
		return fmt.Errorf("sim: HitStallFactor %v out of [0,1]", c.HitStallFactor)
	}
	if c.Sampling != nil {
		if err := c.Sampling.Validate(c.Duration); err != nil {
			return err
		}
		if c.Scheme.Kind == SchemeCustom {
			return fmt.Errorf("sim: custom schemes cannot be sampled (snapshots cannot carry policy state)")
		}
	}
	if err := c.Reliability.Validate(); err != nil {
		return err
	}
	if c.Hybrid != nil {
		if err := c.Hybrid.Validate(c.Device); err != nil {
			return err
		}
	}
	switch c.Scheme.Kind {
	case SchemeStatic:
		if !c.Scheme.StaticMode.Valid() {
			return fmt.Errorf("sim: invalid static mode %d", int(c.Scheme.StaticMode))
		}
	case SchemeRRM:
		if err := c.Scheme.RRM.Validate(); err != nil {
			return err
		}
	case SchemeCustom:
		if c.Scheme.Custom == nil {
			return fmt.Errorf("sim: custom scheme without policy")
		}
	default:
		return fmt.Errorf("sim: unknown scheme kind %d", int(c.Scheme.Kind))
	}
	return nil
}

// scaledRRM returns the RRM config with the retention clock accelerated
// and the simulated refresh stream sampled 1-in-TimeScale, which keeps
// its bandwidth and counts at the real density (see
// core.RRMConfig.RefreshSampling).
func (c Config) scaledRRM() core.RRMConfig {
	r := c.Scheme.RRM
	r.FastRefreshInterval = timing.Time(float64(r.FastRefreshInterval) / c.TimeScale)
	r.DecayInterval = timing.Time(float64(r.DecayInterval) / c.TimeScale)
	r.RefreshSampling = uint64(c.TimeScale)
	return r
}

// scaledRetention returns mode's retention under the accelerated clock.
func (c Config) scaledRetention(mode pcm.WriteMode) timing.Time {
	return timing.Time(float64(pcm.Retention(mode)) / c.TimeScale)
}

// scaledPatrolInterval returns the patrol-scrub period under the
// accelerated retention clock (patrol is clock-driven, like every
// refresh mechanism).
func (c Config) scaledPatrolInterval() timing.Time {
	t := timing.Time(float64(c.Reliability.PatrolInterval) / c.TimeScale)
	if t < 1 {
		t = 1
	}
	return t
}

// reliabilitySeed derives the run's dedicated reliability RNG stream
// from the configuration identity (FNV-1a over the simulation-relevant
// fields), so the fault injector never shares a stream with the trace
// generators' core seeds and two different configs never replay each
// other's error patterns.
func (c Config) reliabilitySeed() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
	}
	mix(fmt.Sprintf("reliability|%s|%s|%d|%d|%d|%g|%d|%g|%v",
		c.Scheme.Name(), c.Workload.Name, c.Seed,
		int64(c.Duration), int64(c.Warmup), c.TimeScale,
		c.Reliability.ECCBits, c.Reliability.ProgBitErrorProb,
		c.Reliability.Patrol))
	return h
}
