package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// TestIdentityPinned pins the run-cache and warm-cache keys of the two
// default configurations, and the bytes of one warmed snapshot, to
// literals. Removing or reordering a config field, changing the snapshot
// layout or perturbing the warmup trajectory moves one of them, which
// would silently orphan every existing run cache, warm-snapshot cache
// and artifact store; a deliberate change must bump hashVersion,
// warmHashVersion or the snapshot version and update these literals.
func TestIdentityPinned(t *testing.T) {
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		scheme         sim.Scheme
		config, warmup string
	}{
		{"rrm", sim.RRMScheme(),
			"f3936995c57a89e07a01aac185b5bbf1665ef03850cd661f7077ce5685a98982",
			"2f00e94a90e669199e1be39593c80cf6ffc593871e907ee11d937c63c5bbddd9"},
		{"static-7", sim.StaticScheme(pcm.Mode7SETs),
			"ed72077895693d8486ce7c9d9b9b8740c4ee07fdc10277eb7818977180d60598",
			"ac6d470f1f38e6797a69d9049a27e320e31d834719d113b25c7e5586be311b82"},
	} {
		cfg := sim.DefaultConfig(tc.scheme, w)
		got, err := ConfigHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.config {
			t.Errorf("%s: ConfigHash = %s, want %s", tc.name, got, tc.config)
		}
		key, ok, err := WarmKey(cfg)
		if err != nil || !ok {
			t.Fatalf("%s: WarmKey ok=%v err=%v", tc.name, ok, err)
		}
		if key != tc.warmup {
			t.Errorf("%s: WarmKey = %s, want %s", tc.name, key, tc.warmup)
		}
	}

	cfg := sim.DefaultConfig(sim.RRMScheme(), w)
	cfg.Duration = 1500 * timing.Microsecond
	cfg.Warmup = 500 * timing.Microsecond
	cfg.TimeScale = 1000
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	const wantSnap = "a82d5d4751af2f91d01568a1a6adf56bcab3ca61837d932480ee340df7695ff7"
	if got := hex.EncodeToString(sum[:]); got != wantSnap {
		t.Errorf("warmed snapshot (%d bytes) SHA-256 = %s, want %s", len(blob), got, wantSnap)
	}
}
