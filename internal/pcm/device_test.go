package pcm

import (
	"testing"
	"testing/quick"
)

func TestDefaultDeviceConfigValid(t *testing.T) {
	cfg := DefaultDeviceConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.TotalBlocks(); got != (8<<30)/64 {
		t.Errorf("TotalBlocks = %d, want %d", got, (8<<30)/64)
	}
	if got := cfg.TotalBanks(); got != 64 {
		t.Errorf("TotalBanks = %d, want 64", got)
	}
}

func TestDeviceConfigValidation(t *testing.T) {
	bad := []func(*DeviceConfig){
		func(c *DeviceConfig) { c.MemBytes = 3 << 30 },
		func(c *DeviceConfig) { c.Channels = 3 },
		func(c *DeviceConfig) { c.Banks = 0 },
		func(c *DeviceConfig) { c.Banks = 128 },
		func(c *DeviceConfig) { c.RowBufBytes = c.RowBytes * 2 },
		func(c *DeviceConfig) { c.BlockBytes = c.RowBufBytes * 2 },
		func(c *DeviceConfig) { c.MemBytes = 1 << 10 },
		func(c *DeviceConfig) { c.EnduranceWrites = 0 },
		func(c *DeviceConfig) { c.WearLevelEfficiency = 1.5 },
	}
	for i, mutate := range bad {
		cfg := DefaultDeviceConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
}

func TestAddressMapRoundTrip(t *testing.T) {
	amap, err := NewAddressMap(DefaultDeviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint64) bool {
		addr := raw & (amap.Config().MemBytes - 1)
		return amap.Encode(amap.Decode(addr)) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddressMapRanges(t *testing.T) {
	cfg := DefaultDeviceConfig()
	amap, err := NewAddressMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint64) bool {
		l := amap.Decode(raw)
		return l.Channel >= 0 && l.Channel < cfg.Channels &&
			l.Bank >= 0 && l.Bank < cfg.Banks &&
			l.Offset < cfg.RowBufBytes &&
			l.Segment >= 0 && uint64(l.Segment) < cfg.RowBytes/cfg.RowBufBytes &&
			l.GlobalBank(cfg) < cfg.TotalBanks()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddressMapInterleaving(t *testing.T) {
	amap, err := NewAddressMap(DefaultDeviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive bytes within one 1 KB segment share a location.
	a, b := amap.Decode(0), amap.Decode(1023)
	if a != b {
		b.Offset = a.Offset
		if a != b {
			t.Errorf("bytes 0 and 1023 in different segments: %+v vs %+v", amap.Decode(0), amap.Decode(1023))
		}
	}
	// The next 1 KB segment rotates to the next channel.
	c := amap.Decode(1024)
	if c.Channel != (a.Channel+1)%4 {
		t.Errorf("segment 1 on channel %d, want %d", c.Channel, (a.Channel+1)%4)
	}
	// A 4 KB page spans exactly the 4 channels with one segment each,
	// landing on the same bank in each — the hot-page bank-pressure
	// property the contention model relies on.
	banks := map[int]bool{}
	chans := map[int]bool{}
	for off := uint64(0); off < 4096; off += 1024 {
		l := amap.Decode(off)
		banks[l.Bank] = true
		chans[l.Channel] = true
	}
	if len(banks) != 1 {
		t.Errorf("4 KB page touches %d banks, want 1", len(banks))
	}
	if len(chans) != 4 {
		t.Errorf("4 KB page touches %d channels, want 4", len(chans))
	}
}

func TestAddressMapWraps(t *testing.T) {
	cfg := DefaultDeviceConfig()
	amap, err := NewAddressMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if amap.Decode(cfg.MemBytes+5) != amap.Decode(5) {
		t.Error("addresses should wrap modulo memory size")
	}
	if amap.BlockAddr(cfg.MemBytes) != 0 {
		t.Error("BlockAddr should wrap")
	}
}

func TestRowBufferTag(t *testing.T) {
	amap, err := NewAddressMap(DefaultDeviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if amap.RowBufferTag(100) != amap.RowBufferTag(1000) {
		t.Error("same 1 KB segment must share a row buffer tag")
	}
	if amap.RowBufferTag(100) == amap.RowBufferTag(5000) {
		t.Error("different segments must not share a row buffer tag")
	}
}

func TestSmallGeometry(t *testing.T) {
	cfg := DeviceConfig{
		MemBytes: 1 << 20, Channels: 2, Banks: 4,
		RowBytes: 4 << 10, RowBufBytes: 512, BlockBytes: 64,
		EnduranceWrites: 1e6, WearLevelEfficiency: 0.9,
	}
	amap, err := NewAddressMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for addr := uint64(0); addr < cfg.MemBytes; addr += 512 {
		l := amap.Decode(addr)
		key := uint64(l.GlobalBank(cfg))<<40 | l.Row<<8 | uint64(l.Segment)
		if seen[key] {
			t.Fatalf("segment collision at addr %d", addr)
		}
		seen[key] = true
	}
	if len(seen) != int(cfg.MemBytes/512) {
		t.Errorf("decoded %d distinct segments, want %d", len(seen), cfg.MemBytes/512)
	}
}

func TestWearTracker(t *testing.T) {
	amap, err := NewAddressMap(DefaultDeviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearTracker(amap)
	w.RecordBlockWrite(0, Mode7SETs, WearDemandWrite)
	w.RecordBlockWrite(64, Mode3SETs, WearDemandWrite)
	w.RecordBlockWrite(0, Mode3SETs, WearRRMRefresh)
	w.AddAnalytic(1000, Mode7SETs, WearGlobalRefresh)

	if got := w.ByKind(WearDemandWrite); got != 2 {
		t.Errorf("demand wear = %d, want 2", got)
	}
	if got := w.ByKind(WearRRMRefresh); got != 1 {
		t.Errorf("rrm wear = %d, want 1", got)
	}
	if got := w.ByKind(WearGlobalRefresh); got != 1000 {
		t.Errorf("global wear = %d, want 1000", got)
	}
	if got := w.ByMode(Mode3SETs); got != 2 {
		t.Errorf("mode-3 writes = %d, want 2", got)
	}
	if got := w.ByMode(Mode7SETs); got != 1001 {
		t.Errorf("mode-7 writes = %d, want 1001", got)
	}
	if got := w.Total(); got != 1003 {
		t.Errorf("total = %d, want 1003", got)
	}
	max, touched := w.MaxRegionWear()
	if max != 3 || touched != 1 {
		t.Errorf("max/touched = %d/%d, want 3/1 (both addresses in region 0)", max, touched)
	}
}

func TestWearHistogram(t *testing.T) {
	amap, err := NewAddressMap(DefaultDeviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearTracker(amap)
	for i := 0; i < 5; i++ { // region 0 gets 5 writes -> bucket 2^3
		w.RecordBlockWrite(0, Mode7SETs, WearDemandWrite)
	}
	w.RecordBlockWrite(RegionBytes, Mode7SETs, WearDemandWrite) // region 1: 1 write -> 2^0
	zero, buckets := w.RegionWearHistogram()
	total := uint64(w.regions)
	if zero != total-2 {
		t.Errorf("zero regions = %d, want %d", zero, total-2)
	}
	if buckets[0] != 1 {
		t.Errorf("bucket[0] = %d, want 1", buckets[0])
	}
	if buckets[3] != 1 {
		t.Errorf("bucket[3] = %d, want 1 (5 writes rounds up to 8)", buckets[3])
	}
}

func TestWearKindString(t *testing.T) {
	for _, k := range WearKinds() {
		if k.String() == "" || k.String()[0] == 'W' {
			t.Errorf("kind %d has bad name %q", int(k), k.String())
		}
	}
	if WearKind(99).String() != "WearKind(99)" {
		t.Error("unknown kind formatting")
	}
}

func TestBankWearAttribution(t *testing.T) {
	cfg := DefaultDeviceConfig()
	amap, err := NewAddressMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearTracker(amap)
	// A 4 KB page's writes land on one bank index across 4 channels.
	for off := uint64(0); off < 4096; off += 64 {
		w.RecordBlockWrite(off, Mode3SETs, WearDemandWrite)
	}
	bw := w.BankWear()
	nonzero := 0
	for _, v := range bw {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Errorf("page writes spread over %d global banks, want 4 (one per channel)", nonzero)
	}
}
