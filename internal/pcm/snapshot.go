package pcm

import "rrmpcm/internal/snapshot"

const (
	snapWearSection   = 0x5057 // "PW"
	snapEnergySection = 0x5045 // "PE"
)

// Snapshot writes the wear state. The per-region counters span the
// whole device (one u32 per 4 KB of simulated memory: 2 M regions for
// the default 8 GB device) but are overwhelmingly zero after a warmup
// window, so they are encoded sparsely as (index, value) pairs of the
// nonzero entries — deterministic because the scan is in index order.
func (t *WearTracker) Snapshot(w *snapshot.Writer) {
	w.Section(snapWearSection)
	for _, v := range t.byKind {
		w.U64(v)
	}
	for _, v := range t.byMode {
		w.U64(v)
	}
	w.U32(uint32(len(t.bankWear)))
	for _, v := range t.bankWear {
		w.U64(v)
	}
	nonzero := uint32(0)
	t.eachWorn(func(int, uint32) { nonzero++ })
	w.U32(uint32(t.regions))
	w.U32(nonzero)
	t.eachWorn(func(i int, v uint32) {
		w.U32(uint32(i))
		w.U32(v)
	})
}

// Restore loads wear state into a tracker for the same device geometry.
func (t *WearTracker) Restore(r *snapshot.Reader) {
	r.Section(snapWearSection)
	for i := range t.byKind {
		t.byKind[i] = r.U64()
	}
	for i := range t.byMode {
		t.byMode[i] = r.U64()
	}
	if n := r.U32(); r.Err() == nil && int(n) != len(t.bankWear) {
		r.Fail("wear: snapshot has %d banks, live tracker %d", n, len(t.bankWear))
		return
	}
	for i := range t.bankWear {
		t.bankWear[i] = r.U64()
	}
	if n := r.U32(); r.Err() == nil && int(n) != t.regions {
		r.Fail("wear: snapshot has %d regions, live tracker %d", n, t.regions)
		return
	}
	clear(t.chunks)
	nonzero := r.Count(t.regions)
	for i := 0; i < nonzero; i++ {
		idx := r.U32()
		val := r.U32()
		if r.Err() != nil {
			return
		}
		if int(idx) >= t.regions {
			r.Fail("wear: region index %d out of range %d", idx, t.regions)
			return
		}
		*t.counter(uint64(idx)) = val
	}
}

// Snapshot writes the energy accumulators (float64 bit patterns, so the
// restored sums are bit-exact).
func (e *EnergyMeter) Snapshot(w *snapshot.Writer) {
	w.Section(snapEnergySection)
	for _, v := range e.writeJ {
		w.F64(v)
	}
	w.F64(e.readJ)
	w.U64(e.readOps)
	for _, v := range e.writeOps {
		w.U64(v)
	}
}

// Restore loads state written by Snapshot.
func (e *EnergyMeter) Restore(r *snapshot.Reader) {
	r.Section(snapEnergySection)
	for i := range e.writeJ {
		e.writeJ[i] = r.F64()
	}
	e.readJ = r.F64()
	e.readOps = r.U64()
	for i := range e.writeOps {
		e.writeOps[i] = r.U64()
	}
}
