package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
)

// refLine is one valid line of the reference cache.
type refLine struct {
	way   int
	tag   uint64
	dirty bool
	stamp uint64
}

// refCache is the naive reference for Cache: an exact LRU kept as one
// list per set, most recently used first. A miss fills the lowest empty
// way, so the list's length is also the index of the next way to fill.
type refCache struct {
	cfg   Config
	sets  [][]refLine
	clock uint64
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	return &refCache{cfg: cfg, sets: make([][]refLine, cfg.Sets())}
}

func (m *refCache) set(addr uint64) (int, uint64) {
	blk := addr / uint64(m.cfg.LineBytes)
	return int(blk % uint64(len(m.sets))), blk
}

// lookup returns the list position of tag in set s, or -1.
func (m *refCache) lookup(s int, tag uint64) int {
	for i, l := range m.sets[s] {
		if l.tag == tag {
			return i
		}
	}
	return -1
}

// touch moves position i of set s to the front with a fresh stamp.
func (m *refCache) touch(s, i int) {
	l := m.sets[s][i]
	l.stamp = m.clock
	copy(m.sets[s][1:i+1], m.sets[s][:i])
	m.sets[s][0] = l
}

// allocate installs tag in set s, evicting the list's tail if full.
func (m *refCache) allocate(s int, tag uint64, dirty bool) (victim Victim, evicted bool) {
	lines := m.sets[s]
	way := len(lines)
	if way == m.cfg.Ways {
		old := lines[way-1]
		m.stats.Evictions++
		if old.dirty {
			m.stats.Writebacks++
		}
		victim, evicted = Victim{Addr: old.tag * uint64(m.cfg.LineBytes), Dirty: old.dirty}, true
		way = old.way
		lines = lines[:len(lines)-1]
	}
	m.sets[s] = append([]refLine{{way: way, tag: tag, dirty: dirty, stamp: m.clock}}, lines...)
	return victim, evicted
}

func (m *refCache) access(addr uint64, kind AccessKind) (bool, Victim, bool) {
	m.stats.Accesses++
	m.clock++
	s, tag := m.set(addr)
	if i := m.lookup(s, tag); i >= 0 {
		m.stats.Hits++
		if kind == Store {
			m.sets[s][i].dirty = true
		}
		m.touch(s, i)
		return true, Victim{}, false
	}
	m.stats.Misses++
	v, ev := m.allocate(s, tag, kind == Store)
	return false, v, ev
}

func (m *refCache) fill(addr uint64) (Victim, bool) {
	m.clock++
	s, tag := m.set(addr)
	if i := m.lookup(s, tag); i >= 0 {
		m.touch(s, i)
		return Victim{}, false
	}
	return m.allocate(s, tag, false)
}

func (m *refCache) writebackInto(addr uint64) (present, wasDirty bool, v Victim, ev bool) {
	m.stats.Accesses++
	m.clock++
	s, tag := m.set(addr)
	if i := m.lookup(s, tag); i >= 0 {
		m.stats.Hits++
		wasDirty = m.sets[s][i].dirty
		m.sets[s][i].dirty = true
		m.touch(s, i)
		return true, wasDirty, Victim{}, false
	}
	m.stats.Misses++
	v, ev = m.allocate(s, tag, true)
	return false, false, v, ev
}

// flush returns the dirty lines in set-then-way order and empties every
// set.
func (m *refCache) flush() []Victim {
	var out []Victim
	for s, lines := range m.sets {
		byWay := make([]*refLine, m.cfg.Ways)
		for i := range lines {
			byWay[lines[i].way] = &lines[i]
		}
		for _, l := range byWay {
			if l != nil && l.dirty {
				out = append(out, Victim{Addr: l.tag * uint64(m.cfg.LineBytes), Dirty: true})
			}
		}
		m.sets[s] = nil
	}
	return out
}

// snapshot encodes the reference state in Cache.Snapshot's format.
func (m *refCache) snapshot(w *snapshot.Writer) {
	w.Section(snapLevelSection)
	w.U64(m.clock)
	w.U64(m.stats.Accesses)
	w.U64(m.stats.Hits)
	w.U64(m.stats.Misses)
	w.U64(m.stats.Evictions)
	w.U64(m.stats.Writebacks)
	w.U32(uint32(len(m.sets)))
	w.U32(uint32(m.cfg.Ways))
	for _, lines := range m.sets {
		byWay := make([]*refLine, m.cfg.Ways)
		for i := range lines {
			byWay[lines[i].way] = &lines[i]
		}
		for _, l := range byWay {
			if l == nil {
				w.U8(0)
				w.U64(0)
				w.U64(0)
				continue
			}
			flags := uint8(1)
			if l.dirty {
				flags |= 2
			}
			w.U8(flags)
			w.U64(l.tag)
			w.U64(l.stamp)
		}
	}
}

const oracleMagic = 0x4f524143 // "ORAC"

func snapshotBytes(enc func(*snapshot.Writer)) []byte {
	w := snapshot.NewWriter(1 << 10)
	w.Header(oracleMagic, 1)
	enc(w)
	return w.Finish()
}

// runCacheOracle decodes ops into Access/Fill/WritebackInto/Flush calls
// on a Cache and the reference, comparing every result, the stats and
// the snapshot bytes. At the op stream's midpoint the cache is replaced
// by a fresh one restored from its snapshot, so the rest of the stream
// runs on a recency order rebuilt from stamps.
func runCacheOracle(t testing.TB, cfg Config, lines int, ops []byte) {
	c, m := New(cfg), newRefCache(cfg)
	line := uint64(cfg.LineBytes)
	for n, half := 0, len(ops)/4; len(ops) >= 2; n++ {
		op, arg := ops[0], uint64(ops[1])
		ops = ops[2:]
		addr := (arg%uint64(lines))*line + uint64(op>>3)%line
		switch op % 8 {
		case 0, 1, 2:
			kind := Load
			if op%8 == 2 {
				kind = Store
			}
			hit, v, ev := c.Access(addr, kind)
			wh, wv, wev := m.access(addr, kind)
			if hit != wh || v != wv || ev != wev {
				t.Fatalf("op %d: Access(%#x, %v) = (%v, %+v, %v), want (%v, %+v, %v)", n, addr, kind, hit, v, ev, wh, wv, wev)
			}
		case 3, 4:
			v, ev := c.Fill(addr)
			wv, wev := m.fill(addr)
			if v != wv || ev != wev {
				t.Fatalf("op %d: Fill(%#x) = (%+v, %v), want (%+v, %v)", n, addr, v, ev, wv, wev)
			}
		case 5, 6:
			p, d, v, ev := c.WritebackInto(addr)
			wp, wd, wv, wev := m.writebackInto(addr)
			if p != wp || d != wd || v != wv || ev != wev {
				t.Fatalf("op %d: WritebackInto(%#x) = (%v, %v, %+v, %v), want (%v, %v, %+v, %v)", n, addr, p, d, v, ev, wp, wd, wv, wev)
			}
		case 7:
			if arg%16 != 0 {
				break
			}
			got, want := c.Flush(), m.flush()
			if len(got) != len(want) {
				t.Fatalf("op %d: Flush returned %d dirty lines, want %d", n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: Flush line %d = %+v, want %+v", n, i, got[i], want[i])
				}
			}
		}
		if c.Stats() != m.stats {
			t.Fatalf("op %d: Stats = %+v, want %+v", n, c.Stats(), m.stats)
		}
		if n == half || len(ops) < 2 {
			blob := snapshotBytes(c.Snapshot)
			if want := snapshotBytes(m.snapshot); !bytes.Equal(blob, want) {
				t.Fatalf("op %d: snapshot bytes differ from the reference", n)
			}
			if n == half {
				r, err := snapshot.NewReader(blob, oracleMagic, 1)
				if err == nil {
					c = New(cfg)
					c.Restore(r)
					err = r.Done()
				}
				if err != nil {
					t.Fatalf("op %d: restore: %v", n, err)
				}
			}
		}
	}
}

// oracleConfig is a 4-set cache: small enough that random addresses
// over a few dozen lines keep every set full and evicting.
func oracleConfig(ways int) Config {
	return Config{Name: "oracle", SizeBytes: 4 * ways * 64, Ways: ways, LineBytes: 64, HitLatency: timing.CPUCycle, MSHRs: 1}
}

func TestCacheOracle(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 24} {
		for seed := int64(1); seed <= 5; seed++ {
			ops := make([]byte, 40000)
			rand.New(rand.NewSource(seed)).Read(ops)
			runCacheOracle(t, oracleConfig(ways), 6*ways+int(seed), ops)
		}
	}
}

func FuzzCacheOracle(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 2, 9, 0, 17, 5, 3, 3, 1, 7, 0, 0, 1})
	f.Add(uint8(4), []byte{2, 0, 2, 4, 2, 8, 2, 12, 2, 16, 0, 0, 5, 20, 7, 16, 0, 4})
	ops := make([]byte, 1024)
	rand.New(rand.NewSource(3)).Read(ops)
	f.Add(uint8(24), ops)
	f.Fuzz(func(t *testing.T, ways uint8, ops []byte) {
		w := int(ways%24) + 1
		runCacheOracle(t, oracleConfig(w), 5*w, ops)
	})
}
