package pcm

import (
	"bytes"
	"testing"

	"rrmpcm/internal/snapshot"
)

const wearTestMagic = 0x57454152 // "WEAR"

// wearWrites records a spread of block writes: the first and last
// region, both sides of a chunk boundary, and one region written often.
func wearWrites(t *testing.T, w *WearTracker, mem uint64) map[int]uint32 {
	t.Helper()
	want := map[int]uint32{}
	rec := func(addr uint64, n int) {
		for i := 0; i < n; i++ {
			w.RecordBlockWrite(addr, Mode7SETs, WearDemandWrite)
		}
		want[int(addr/RegionBytes)] += uint32(n)
	}
	rec(0, 2)
	rec((chunkRegions-1)*RegionBytes+64, 1)
	rec(chunkRegions*RegionBytes, 3)
	rec(37*chunkRegions*RegionBytes+5*RegionBytes, 40)
	rec(mem-64, 1)
	return want
}

func wearSnapshot(w *WearTracker) []byte {
	sw := snapshot.NewWriter(0)
	sw.Header(wearTestMagic, 1)
	w.Snapshot(sw)
	return sw.Finish()
}

// TestWearSnapshotEncoding pins the wear section to the dense encoding:
// every region in index order, (index, value) pairs for the nonzero
// ones. Chunked storage must not change a snapshot byte.
func TestWearSnapshotEncoding(t *testing.T) {
	cfg := DefaultDeviceConfig()
	amap, err := NewAddressMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearTracker(amap)
	for i, c := range w.chunks {
		if c != nil {
			t.Fatalf("fresh tracker has chunk %d allocated", i)
		}
	}
	want := wearWrites(t, w, cfg.MemBytes)

	dense := make([]uint32, cfg.MemBytes/RegionBytes)
	for r, v := range want {
		dense[r] = v
	}
	ref := snapshot.NewWriter(0)
	ref.Header(wearTestMagic, 1)
	ref.Section(snapWearSection)
	for _, k := range WearKinds() {
		ref.U64(w.ByKind(k))
	}
	for m := Fastest; m <= Slowest; m++ {
		ref.U64(w.ByMode(m))
	}
	banks := w.BankWear()
	ref.U32(uint32(len(banks)))
	for _, v := range banks {
		ref.U64(v)
	}
	ref.U32(uint32(len(dense)))
	ref.U32(uint32(len(want)))
	for i, v := range dense {
		if v != 0 {
			ref.U32(uint32(i))
			ref.U32(v)
		}
	}
	if got, exp := wearSnapshot(w), ref.Finish(); !bytes.Equal(got, exp) {
		t.Fatalf("wear snapshot differs from the dense encoding (%d vs %d bytes)", len(got), len(exp))
	}

	allocated := 0
	for _, c := range w.chunks {
		if c != nil {
			allocated++
		}
	}
	if allocated != 4 { // regions 0 and chunkRegions-1 share chunk 0
		t.Errorf("%d chunks allocated for writes into 4 chunks", allocated)
	}
}

// TestWearSnapshotRestore restores a snapshot into a tracker holding
// other wear: the restored tracker must read exactly like the source.
func TestWearSnapshotRestore(t *testing.T) {
	cfg := DefaultDeviceConfig()
	amap, err := NewAddressMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := NewWearTracker(amap)
	wearWrites(t, src, cfg.MemBytes)
	blob := wearSnapshot(src)

	dst := NewWearTracker(amap)
	for i := 0; i < 9; i++ { // wear the restore must erase
		dst.RecordBlockWrite(900*chunkRegions*RegionBytes, Mode3SETs, WearRRMRefresh)
	}
	r, err := snapshot.NewReader(blob, wearTestMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst.Restore(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got := wearSnapshot(dst); !bytes.Equal(got, blob) {
		t.Error("snapshot of the restored tracker differs from its source")
	}
	sm, st := src.MaxRegionWear()
	dm, dt := dst.MaxRegionWear()
	if sm != dm || st != dt || sm != 40 || st != 5 {
		t.Errorf("max/touched: source %d/%d, restored %d/%d, want 40/5", sm, st, dm, dt)
	}
	sz, sb := src.RegionWearHistogram()
	dz, db := dst.RegionWearHistogram()
	if sz != dz || sb != db {
		t.Errorf("histogram: source %d %v, restored %d %v", sz, sb, dz, db)
	}
	if want := uint64(cfg.MemBytes/RegionBytes) - 5; dz != want {
		t.Errorf("zero regions = %d, want %d", dz, want)
	}
}
