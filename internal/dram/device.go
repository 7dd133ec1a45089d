package dram

import (
	"fmt"

	"rrmpcm/internal/memctrl"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// Stats are the DRAM array's aggregate counters. Reads/Writes include
// migration fills; Fills counts the fill subset.
type Stats struct {
	Reads  uint64
	Writes uint64
	Fills  uint64

	RowHits       uint64
	RowMisses     uint64
	RefreshStalls uint64

	ReadLatencySum timing.Time
	ReadLatencyMax timing.Time

	EnergyReadJ  float64
	EnergyWriteJ float64
}

type dbank struct {
	freeAt  timing.Time
	openTag uint64
	hasOpen bool
}

type dchannel struct {
	busFreeAt timing.Time
	banks     []dbank
}

// readOp is one in-flight DRAM read: the completion callback plus the
// owner identity that lets a snapshot rebuild it. The event callback is
// bound once per pooled object.
type readOp struct {
	d          *Device
	addr       uint64
	done       func(timing.Time)
	ownerCore  int
	ownerStore bool
	ownerInst  uint64

	at  timing.Time
	seq int64
	idx int
	fn  func(timing.Time)
}

// Device is the DRAM staging array: immediate bank/bus scheduling (the
// staging tier is small and keeps no queues — contention shows up as
// start-time displacement), row-buffer hit/miss latencies and periodic
// refresh windows. Writes are posted (no completion callback); bank state
// carries their occupancy for Pending.
type Device struct {
	cfg   DeviceConfig
	amap  *pcm.AddressMap
	eq    *timing.EventQueue
	chans []dchannel
	stats Stats

	bankMask int

	opFree []*readOp
	live   []*readOp
}

// NewDevice builds the DRAM array over the PCM address map's
// channel/bank/row decomposition (bank indices fold modulo cfg.Banks).
func NewDevice(cfg DeviceConfig, amap *pcm.AddressMap, eq *timing.EventQueue) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:      cfg,
		amap:     amap,
		eq:       eq,
		chans:    make([]dchannel, amap.Config().Channels),
		bankMask: cfg.Banks - 1,
	}
	for i := range d.chans {
		d.chans[i].banks = make([]dbank, cfg.Banks)
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

// Stats returns a copy of the aggregate counters.
func (d *Device) Stats() Stats { return d.stats }

// Pending reports in-flight reads or busy banks (drain support).
func (d *Device) Pending() bool {
	if len(d.live) > 0 {
		return true
	}
	now := d.eq.Now()
	for i := range d.chans {
		ch := &d.chans[i]
		if ch.busFreeAt > now {
			return true
		}
		for j := range ch.banks {
			if ch.banks[j].freeAt > now {
				return true
			}
		}
	}
	return false
}

// access schedules one array access starting at now (or later, if the
// bank, bus or a refresh window defers it) and returns its finish time.
func (d *Device) access(now timing.Time, addr uint64, write bool) timing.Time {
	loc := d.amap.Decode(addr)
	ch := &d.chans[loc.Channel]
	b := &ch.banks[loc.Bank&d.bankMask]

	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	if ch.busFreeAt > start {
		start = ch.busFreeAt
	}
	if d.cfg.TRFC > 0 {
		// Push past an all-banks refresh window [k*tREFI, k*tREFI+tRFC).
		if into := start % d.cfg.TREFI; into < d.cfg.TRFC {
			start += d.cfg.TRFC - into
			d.stats.RefreshStalls++
		}
	}

	lat := d.cfg.TCAS
	tag := d.amap.RowBufferTag(addr)
	if b.hasOpen && b.openTag == tag {
		d.stats.RowHits++
	} else {
		d.stats.RowMisses++
		lat += d.cfg.TRCD
		b.openTag = tag
		b.hasOpen = true
	}
	fin := start + lat + d.cfg.BusXfer
	ch.busFreeAt = fin
	b.freeAt = fin
	if write {
		b.freeAt += d.cfg.TWR
	}
	return fin
}

// Read serves a demand read from the staging array and fires done (with
// the given snapshot owner identity) at its completion time.
func (d *Device) Read(now timing.Time, addr uint64, done func(timing.Time),
	ownerCore int, ownerStore bool, ownerInst uint64) {
	fin := d.access(now, addr, false)
	d.stats.Reads++
	d.stats.EnergyReadJ += d.cfg.ReadEnergyJ
	lat := fin - now
	d.stats.ReadLatencySum += lat
	if lat > d.stats.ReadLatencyMax {
		d.stats.ReadLatencyMax = lat
	}
	op := d.acquireOp()
	op.addr, op.done = addr, done
	op.ownerCore, op.ownerStore, op.ownerInst = ownerCore, ownerStore, ownerInst
	d.track(op, fin, d.eq.Schedule(fin, op.fn).Seq())
}

// Write posts a write (demand absorption or migration fill) to the
// array. Writes complete without a callback; bank occupancy carries them
// for Pending.
func (d *Device) Write(now timing.Time, addr uint64, fill bool) {
	d.access(now, addr, true)
	d.stats.Writes++
	if fill {
		d.stats.Fills++
	}
	d.stats.EnergyWriteJ += d.cfg.WriteEnergyJ
}

// FunctionalRead accounts a read served instantly in functional
// fast-forward mode (no timing, energy advances).
func (d *Device) FunctionalRead() {
	d.stats.Reads++
	d.stats.EnergyReadJ += d.cfg.ReadEnergyJ
}

// FunctionalWrite accounts an instant functional-mode write.
func (d *Device) FunctionalWrite() {
	d.stats.Writes++
	d.stats.EnergyWriteJ += d.cfg.WriteEnergyJ
}

func (d *Device) acquireOp() *readOp {
	var op *readOp
	if n := len(d.opFree); n > 0 {
		op = d.opFree[n-1]
		d.opFree[n-1] = nil
		d.opFree = d.opFree[:n-1]
	} else {
		op = &readOp{d: d}
		op.fn = func(t timing.Time) { op.complete(t) }
	}
	return op
}

func (d *Device) track(op *readOp, at timing.Time, seq int64) {
	op.at, op.seq = at, seq
	op.idx = len(d.live)
	d.live = append(d.live, op)
}

func (d *Device) untrack(op *readOp) {
	i := op.idx
	last := len(d.live) - 1
	d.live[i] = d.live[last]
	d.live[i].idx = i
	d.live[last] = nil
	d.live = d.live[:last]
}

func (op *readOp) complete(t timing.Time) {
	d := op.d
	d.untrack(op)
	done := op.done
	op.done = nil
	d.opFree = append(d.opFree, op)
	if done != nil {
		done(t)
	}
}

// --- snapshot ---

const devSection = 0x4452 // "DR"

// Snapshot writes the bank/bus timing state and the in-flight read list
// (as (time, seq) event descriptors plus owner identities).
func (d *Device) Snapshot(w *snapshotWriter) error {
	w.Section(devSection)
	w.U32(uint32(len(d.chans)))
	for i := range d.chans {
		ch := &d.chans[i]
		w.I64(int64(ch.busFreeAt))
		w.U32(uint32(len(ch.banks)))
		for j := range ch.banks {
			b := &ch.banks[j]
			w.I64(int64(b.freeAt))
			w.U64(b.openTag)
			w.Bool(b.hasOpen)
		}
	}
	w.U32(uint32(len(d.live)))
	for _, op := range d.live {
		if op.done != nil && op.ownerCore == memctrl.OwnerNone {
			return fmt.Errorf("dram: in-flight read %#x has a callback but no owner identity", op.addr)
		}
		w.U64(op.addr)
		w.I64(int64(op.ownerCore))
		w.Bool(op.ownerStore)
		w.U64(op.ownerInst)
		w.I64(int64(op.at))
		w.I64(op.seq)
	}
	return w.JSON(d.stats)
}

// Restore loads Snapshot state, rebuilding read callbacks through
// resolve and appending completion events to pend for global re-arming.
func (d *Device) Restore(r *snapshotReader, resolve memctrl.OwnerResolver, pend *[]timing.Pending) {
	r.Section(devSection)
	if n := r.U32(); r.Err() == nil && int(n) != len(d.chans) {
		r.Fail("dram: snapshot has %d channels, live device %d", n, len(d.chans))
		return
	}
	for i := range d.chans {
		ch := &d.chans[i]
		ch.busFreeAt = timing.Time(r.I64())
		if n := r.U32(); r.Err() == nil && int(n) != len(ch.banks) {
			r.Fail("dram: snapshot has %d banks, live device %d", n, len(ch.banks))
			return
		}
		for j := range ch.banks {
			b := &ch.banks[j]
			b.freeAt = timing.Time(r.I64())
			b.openTag = r.U64()
			b.hasOpen = r.Bool()
		}
	}
	d.live = d.live[:0]
	n := r.Count(1 << 20)
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return
		}
		op := d.acquireOp()
		op.addr = r.U64()
		op.ownerCore = int(r.I64())
		op.ownerStore = r.Bool()
		op.ownerInst = r.U64()
		at := timing.Time(r.I64())
		seq := r.I64()
		if op.ownerCore != memctrl.OwnerNone && resolve != nil {
			op.done = resolve(op.ownerCore, op.ownerStore, op.ownerInst)
		}
		o := op
		*pend = append(*pend, timing.Pending{At: at, Seq: seq, Arm: func() {
			d.track(o, at, d.eq.Schedule(at, o.fn).Seq())
		}})
	}
	d.stats = Stats{}
	r.JSON(&d.stats)
}
