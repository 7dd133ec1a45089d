package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"rrmpcm/internal/cache"
	"rrmpcm/internal/core"
	"rrmpcm/internal/dram"
	"rrmpcm/internal/memctrl"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/reliability"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// hashVersion is mixed into every hash; bump it when the simulation's
// interpretation of a config changes, so stale disk-cache entries from
// older builds stop matching.
const hashVersion = "rrmpcm-config-v1"

// hashImage is the canonical serializable view of sim.Config used for
// hashing. It mirrors sim.Config field by field (a unit test enforces
// the correspondence by reflection) with one substitution: the Custom
// policy interface, which is not serializable, is represented by its
// Name(). Configs that differ only inside an identically-named custom
// policy therefore hash alike — which is why custom-scheme jobs are
// additionally keyed by label and excluded from the disk cache.
type hashImage struct {
	Device    pcm.DeviceConfig
	Hierarchy cache.HierarchyConfig
	Ctrl      memctrl.Config
	Scheme    schemeImage
	Workload  trace.Workload

	Duration           timing.Time
	Warmup             timing.Time
	TimeScale          float64
	Seed               uint64
	HitStallFactor     float64
	CheckRetention     bool
	CoreROB            int
	CoreMSHRs          int
	EquivalentDuration timing.Time

	// Reliability is present only when the model is enabled, so every
	// reliability-free config keeps its pre-reliability hash (and its
	// older cache entries stay valid).
	Reliability *reliability.Config `json:",omitempty"`

	// Sampling is present only for sampled runs (same omitempty pattern:
	// full-run hashes — and their cache entries — are unchanged, and a
	// sampled run can never alias the full run it approximates).
	Sampling *sim.SamplingSpec `json:",omitempty"`

	// Hybrid is present only when the DRAM staging tier is enabled (same
	// omitempty pattern: every PCM-only config keeps its pre-hybrid hash
	// and the run cache/artifact store stay valid).
	Hybrid *dram.HybridConfig `json:",omitempty"`
}

// schemeImage mirrors sim.Scheme with Custom flattened to its name.
type schemeImage struct {
	Kind       int
	StaticMode int
	RRM        core.RRMConfig
	Custom     string `json:",omitempty"`
}

// ConfigHash returns the deterministic identity of a run configuration:
// the hex SHA-256 of its canonical JSON image. Two configs hash equal
// iff every simulation-relevant field matches, so a hash key can never
// alias two genuinely different runs (modulo custom-policy internals,
// see hashImage).
func ConfigHash(cfg sim.Config) (string, error) {
	img := hashImage{
		Device:    cfg.Device,
		Hierarchy: cfg.Hierarchy,
		Ctrl:      cfg.Ctrl,
		Scheme: schemeImage{
			Kind:       int(cfg.Scheme.Kind),
			StaticMode: int(cfg.Scheme.StaticMode),
			RRM:        cfg.Scheme.RRM,
		},
		Workload:           cfg.Workload,
		Duration:           cfg.Duration,
		Warmup:             cfg.Warmup,
		TimeScale:          cfg.TimeScale,
		Seed:               cfg.Seed,
		HitStallFactor:     cfg.HitStallFactor,
		CheckRetention:     cfg.CheckRetention,
		CoreROB:            cfg.CoreROB,
		CoreMSHRs:          cfg.CoreMSHRs,
		EquivalentDuration: cfg.EquivalentDuration,
	}
	if cfg.Scheme.Custom != nil {
		img.Scheme.Custom = cfg.Scheme.Custom.Name()
	}
	if cfg.Reliability.Enabled {
		rel := cfg.Reliability
		img.Reliability = &rel
	}
	if cfg.Sampling != nil {
		sp := *cfg.Sampling
		img.Sampling = &sp
	}
	if cfg.Hybrid != nil {
		hc := *cfg.Hybrid
		img.Hybrid = &hc
	}
	blob, err := json.Marshal(img)
	if err != nil {
		return "", fmt.Errorf("engine: hashing config: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(hashVersion))
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Cacheable reports whether a config's results may live in the disk
// cache: custom policies are excluded because the hash cannot see their
// internals.
func Cacheable(cfg sim.Config) bool {
	return cfg.Scheme.Kind != sim.SchemeCustom
}
