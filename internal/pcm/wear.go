package pcm

import "fmt"

// WearKind classifies the cause of a block (re)write for wear and energy
// accounting. Per Kim & Ahn (cited by the paper), the RESET pulse dominates
// cell endurance, so every block write costs one wear unit regardless of
// the write mode used.
type WearKind int

const (
	// WearDemandWrite is a write issued on behalf of the program (an LLC
	// dirty writeback reaching memory).
	WearDemandWrite WearKind = iota
	// WearRRMRefresh is a selective fast refresh (3-SETs) issued by the
	// RRM structure for hot short-retention blocks.
	WearRRMRefresh
	// WearSlowRefresh is a slow (7-SETs) refresh issued when a hot RRM
	// entry decays to cold or is evicted and its short-retention blocks
	// must be rewritten with long-retention writes.
	WearSlowRefresh
	// WearGlobalRefresh is the device's built-in global refresh stream
	// (every block, once per retention period of the scheme's long
	// mode). Its performance impact is not simulated — matching the
	// paper — but its wear and energy are accounted analytically.
	WearGlobalRefresh

	numWearKinds
)

// String implements fmt.Stringer.
func (k WearKind) String() string {
	switch k {
	case WearDemandWrite:
		return "demand-write"
	case WearRRMRefresh:
		return "rrm-refresh"
	case WearSlowRefresh:
		return "slow-refresh"
	case WearGlobalRefresh:
		return "global-refresh"
	default:
		return fmt.Sprintf("WearKind(%d)", int(k))
	}
}

// WearKinds lists all wear causes in display order.
func WearKinds() []WearKind {
	return []WearKind{WearDemandWrite, WearRRMRefresh, WearSlowRefresh, WearGlobalRefresh}
}

// WearTracker accumulates block-write counts at 4 KB region granularity,
// split by cause and write mode, plus per-bank totals. Region granularity
// costs 4 B per 4 KB of simulated memory (8 MB for the default 8 GB
// device) while still exposing hotspot structure.
//
// The region counters live in chunks of chunkRegions, allocated on the
// first write into their range; a chunk no write reached stays nil and
// reads as all zero. A run writes a small share of the device, so a
// tracker holds a few hundred KB instead of the full 8 MB, and building
// one does not clear 8 MB of reused heap.
type WearTracker struct {
	amap *AddressMap

	regionShift uint
	regions     int          // number of 4 KB regions on the device
	chunks      []*wearChunk // regions [i*chunkRegions, (i+1)*chunkRegions)

	byKind   [numWearKinds]uint64
	byMode   [Slowest - Fastest + 1]uint64
	bankWear []uint64
}

// RegionBytes is the wear-tracking granularity; it matches the paper's
// 4 KB Retention Region / OS page size.
const RegionBytes = 4 << 10

// NewWearTracker allocates tracking state for the mapped device.
func NewWearTracker(amap *AddressMap) *WearTracker {
	cfg := amap.Config()
	t := &WearTracker{
		amap:        amap,
		regionShift: 12, // log2(RegionBytes)
		regions:     int(cfg.MemBytes / RegionBytes),
		bankWear:    make([]uint64, cfg.TotalBanks()),
	}
	t.chunks = make([]*wearChunk, (t.regions+chunkRegions-1)/chunkRegions)
	return t
}

// A chunk holds chunkRegions region counters: one 4 KB page of
// counters, covering 4 MB of simulated memory.
const (
	chunkShift   = 10
	chunkRegions = 1 << chunkShift
)

type wearChunk [chunkRegions]uint32

// counter returns region's wear counter, allocating its chunk on first
// use.
func (t *WearTracker) counter(region uint64) *uint32 {
	c := t.chunks[region>>chunkShift]
	if c == nil {
		c = new(wearChunk)
		t.chunks[region>>chunkShift] = c
	}
	return &c[region&(chunkRegions-1)]
}

// eachWorn calls f for every region with nonzero wear, in region order.
func (t *WearTracker) eachWorn(f func(region int, w uint32)) {
	for ci, c := range t.chunks {
		if c == nil {
			continue
		}
		for i, w := range c {
			if w != 0 {
				f(ci<<chunkShift+i, w)
			}
		}
	}
}

// RecordBlockWrite charges one wear unit for a block write at byte address
// addr, caused by kind, using write mode m.
func (t *WearTracker) RecordBlockWrite(addr uint64, m WriteMode, kind WearKind) {
	region := (addr & (t.amap.Config().MemBytes - 1)) >> t.regionShift
	if w := t.counter(region); *w != ^uint32(0) {
		*w++
	}
	t.byKind[kind]++
	t.byMode[m-Fastest]++
	t.bankWear[t.amap.Decode(addr).GlobalBank(t.amap.Config())]++
}

// AddAnalytic charges count block writes of the given kind and mode
// without attributing them to specific addresses (used for the built-in
// global refresh stream, which touches every block uniformly).
func (t *WearTracker) AddAnalytic(count uint64, m WriteMode, kind WearKind) {
	t.byKind[kind] += count
	t.byMode[m-Fastest] += count
}

// ByKind returns total block writes caused by kind.
func (t *WearTracker) ByKind(kind WearKind) uint64 { return t.byKind[kind] }

// ByMode returns total block writes performed with mode m.
func (t *WearTracker) ByMode(m WriteMode) uint64 { return t.byMode[m-Fastest] }

// Total returns all block writes from all causes.
func (t *WearTracker) Total() uint64 {
	var sum uint64
	for _, v := range t.byKind {
		sum += v
	}
	return sum
}

// BankWear returns per-global-bank address-attributed write counts.
func (t *WearTracker) BankWear() []uint64 {
	out := make([]uint64, len(t.bankWear))
	copy(out, t.bankWear)
	return out
}

// RegionWearHistogram buckets the per-region address-attributed wear
// counts: returns (number of regions with zero wear, and for each power of
// two ceiling the count of regions whose wear falls in (2^(k-1), 2^k]).
func (t *WearTracker) RegionWearHistogram() (zero uint64, buckets [33]uint64) {
	zero = uint64(t.regions)
	t.eachWorn(func(_ int, w uint32) {
		zero--
		k := 0
		for v := uint64(w); v > 1; v >>= 1 {
			k++
		}
		if uint64(1)<<k < uint64(w) {
			k++
		}
		buckets[k]++
	})
	return zero, buckets
}

// MaxRegionWear returns the largest per-region wear count and how many
// regions were written at all.
func (t *WearTracker) MaxRegionWear() (max uint32, touched uint64) {
	t.eachWorn(func(_ int, w uint32) {
		touched++
		if w > max {
			max = w
		}
	})
	return max, touched
}
