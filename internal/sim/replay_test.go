package sim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
	"rrmpcm/internal/tracefile"
)

// exportWorkload records opsPerCore ops of every stream of cfg's
// workload into dir, using the simulator's own seeding and partition
// rules, and returns the replay variant of the workload (same Name, so
// the reliability seed — which mixes the name — matches too).
func exportWorkload(t *testing.T, cfg Config, dir string, opsPerCore uint64) trace.Workload {
	t.Helper()
	w := cfg.Workload
	n := w.NumStreams()
	rw := w
	rw.Cores = nil
	rw.Dynamics = nil
	for i := 0; i < n; i++ {
		base, span := trace.CorePartition(cfg.Device.MemBytes, n, i)
		gen, err := trace.NewStream(w, i, base, span, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		meta := tracefile.Meta{
			Name:    w.Cores[i].Name,
			BaseCPI: gen.BaseCPI(),
			MaxMLP:  gen.MaxMLP(),
			Base:    base,
			Span:    span,
			Seed:    trace.CoreSeed(cfg.Seed, i),
		}
		blob, err := tracefile.Record(gen, meta, opsPerCore)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, w.Name+".c"+string(rune('0'+i))+".rrmt")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := tracefile.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		rw.Replay = append(rw.Replay, trace.TraceRef{Path: path, Sum: f.Sum()})
	}
	return rw
}

// TestReplayRoundTripMetrics is the subsystem's acceptance proof: a
// trace exported from a synthetic workload and replayed through the
// simulator yields byte-identical Metrics to the generator run.
func TestReplayRoundTripMetrics(t *testing.T) {
	cfg := quickConfig(t, RRMScheme(), "hmmer")
	cfg.Duration = 2 * timing.Millisecond
	cfg.Warmup = 500 * timing.Microsecond

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}

	const opsPerCore = 1_000_000 // comfortably more than the window consumes
	rcfg := cfg
	rcfg.Workload = exportWorkload(t, cfg, t.TempDir(), opsPerCore)
	s2, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range s2.gens {
		r := g.(*tracefile.Replay)
		if r.Wraps() != 0 {
			t.Fatalf("stream %d wrapped (consumed > %d ops); byte-identity check needs a longer recording", i, opsPerCore)
		}
	}

	j1, err := json.Marshal(m1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(m2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("replay metrics differ from generator metrics\ngen:    %s\nreplay: %s", j1, j2)
	}
	if m1.Instructions == 0 || len(m1.WritesByMode) == 0 {
		t.Errorf("degenerate run: %d insts, no demand writes", m1.Instructions)
	}
}

// TestReplayChecksumMismatch: a config whose TraceRef.Sum does not match
// the file's content must be rejected at System construction.
func TestReplayChecksumMismatch(t *testing.T) {
	cfg := quickConfig(t, RRMScheme(), "hmmer")
	rw := exportWorkload(t, cfg, t.TempDir(), 1000)
	rw.Replay[0].Sum ^= 1
	cfg.Workload = rw
	if _, err := New(cfg); err == nil {
		t.Error("checksum mismatch accepted")
	}
}

// TestTenantAttribution: per-tenant counters must partition the global
// ones — nothing lost, nothing double-counted.
func TestTenantAttribution(t *testing.T) {
	cfg := quickConfig(t, RRMScheme(), "hmmer")
	cfg.Workload.Tenants = []string{"acme", "zenith", "acme", "zenith"}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tenants) != 2 {
		t.Fatalf("have %d tenants, want 2", len(m.Tenants))
	}
	var insts, writes, cores uint64
	for _, tm := range m.Tenants {
		if tm.Name != "acme" && tm.Name != "zenith" {
			t.Errorf("unexpected tenant %q", tm.Name)
		}
		if tm.Cores != 2 {
			t.Errorf("tenant %s has %d cores, want 2", tm.Name, tm.Cores)
		}
		if tm.Instructions == 0 || tm.DemandWrites == 0 {
			t.Errorf("tenant %s idle: %+v", tm.Name, tm)
		}
		insts += tm.Instructions
		writes += tm.DemandWrites
		cores += uint64(tm.Cores)
	}
	if insts != m.Instructions {
		t.Errorf("tenant instructions sum %d != total %d", insts, m.Instructions)
	}
	// The global WritesByMode split also counts refresh writes; the
	// wear tracker's demand-kind counter is the matching total.
	total := s.wear.ByKind(pcm.WearDemandWrite) - s.base.wearKind[0]
	if writes != total {
		t.Errorf("tenant demand writes sum %d != total %d", writes, total)
	}
	if cores != 4 {
		t.Errorf("tenant cores sum %d != 4", cores)
	}

	// Single-tenant runs carry no tenant section at all.
	cfg2 := quickConfig(t, RRMScheme(), "hmmer")
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Tenants != nil {
		t.Errorf("untenanted run produced tenant metrics: %+v", m2.Tenants)
	}

	// Reliability reads: the tenants' read classifications must sum to
	// the global reliability counts. Static-3 under the reliability
	// goldens' 6000x retention clock tracks every written line and
	// drifts some of them into correctable errors.
	w, err := trace.WorkloadByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := reliabilityGoldenConfig(StaticScheme(pcm.Mode3SETs), w)
	cfg3.Workload.Tenants = []string{"acme", "zenith", "acme", "zenith"}
	m3 := runTenanted(t, cfg3)
	if m3.Reliability == nil || m3.Reliability.CorrectedReads == 0 {
		t.Fatalf("reliability run corrected no reads: %+v", m3.Reliability)
	}
	var checked, corrected, uncorrectable uint64
	for _, tm := range m3.Tenants {
		if tm.ReadsChecked == 0 {
			t.Errorf("tenant %s had no checked reads", tm.Name)
		}
		checked += tm.ReadsChecked
		corrected += tm.CorrectedReads
		uncorrectable += tm.UncorrectableReads
	}
	rel := m3.Reliability
	if checked != rel.ReadsChecked || corrected != rel.CorrectedReads ||
		uncorrectable != rel.UncorrectableReads {
		t.Errorf("tenant reads checked/corrected/uncorrectable %d/%d/%d != global %d/%d/%d",
			checked, corrected, uncorrectable,
			rel.ReadsChecked, rel.CorrectedReads, rel.UncorrectableReads)
	}

	// Retention violations: RRM at TimeScale 1000 over a window past the
	// first slow refresh misses deadlines (a known model limitation), and
	// every miss must be charged to exactly one tenant.
	cfg4 := quickConfig(t, RRMScheme(), "GemsFDTD")
	cfg4.Workload.Tenants = []string{"acme", "zenith", "acme", "zenith"}
	cfg4.Warmup = 2 * timing.Millisecond
	cfg4.Duration = 10 * timing.Millisecond
	m4 := runTenanted(t, cfg4)
	if m4.RetentionViolations == 0 {
		t.Fatal("run produced no retention violations to attribute")
	}
	var violations uint64
	for _, tm := range m4.Tenants {
		violations += tm.RetentionViolations
	}
	if violations != m4.RetentionViolations {
		t.Errorf("tenant retention violations sum %d != total %d", violations, m4.RetentionViolations)
	}
}

// runTenanted runs cfg and checks it reports one entry per tenant name.
func runTenanted(t *testing.T, cfg Config) Metrics {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tenants) != 2 {
		t.Fatalf("have %d tenants, want 2", len(m.Tenants))
	}
	return m
}

// TestTenantSnapshotRestore: a tenanted system survives the
// snapshot/fork warm-start path with its attribution intact.
func TestTenantSnapshotRestore(t *testing.T) {
	cfg := quickConfig(t, RRMScheme(), "hmmer")
	cfg.Workload.Tenants = []string{"a", "b", "a", "b"}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fork, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Restore(blob); err != nil {
		t.Fatal(err)
	}
	m1, err := s.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := fork.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(m1)
	j2, _ := json.Marshal(m2)
	if string(j1) != string(j2) {
		t.Errorf("forked tenant run diverged\nlive: %s\nfork: %s", j1, j2)
	}
}
