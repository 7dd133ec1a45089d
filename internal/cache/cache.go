// Package cache implements the processor-side cache hierarchy of Table IV:
// split L1 I/D caches per core, a private L2 per core, and a shared L3
// (the LLC), all set-associative with LRU replacement, write-back and
// write-allocate.
//
// The hierarchy matters to the paper in one specific way: the LLC filters
// program stores into a much smaller stream of dirty writebacks, and the
// RRM learns only from *LLC write operations* (L2 dirty victims arriving
// at the LLC), each tagged with whether the written LLC line was already
// dirty. That dirty-or-not bit is RRM's streaming-write filter, so the
// hierarchy models dirty bits and writeback propagation exactly.
//
// Accesses are synchronous: Access walks the levels and reports where the
// request hit, which registrations the LLC emitted, and which dirty lines
// fell out of the LLC toward memory. Latency composition and the
// asynchronous memory round trip belong to the simulator layer.
package cache

import (
	"fmt"

	"rrmpcm/internal/timing"
)

// AccessKind distinguishes demand loads from stores. Instruction fetches
// use Load against the I-cache.
type AccessKind int

const (
	Load AccessKind = iota
	Store
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	if k == Load {
		return "load"
	}
	return "store"
}

// Config sizes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency timing.Time
	MSHRs      int // outstanding-miss budget; enforced by the simulator
}

// Sets returns the number of sets the configuration implies.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate checks the level for consistency.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Ways <= 0 || c.Ways > maxWays {
		return fmt.Errorf("cache %s: ways %d not in 1..%d", c.Name, c.Ways, maxWays)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by way*line", c.Name, c.SizeBytes)
	}
	sets := c.Sets()
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts the activity of one cache level.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions passed to the next level
}

// HitRate returns hits/accesses, or 0 for an idle cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// invalidTag marks an empty way. A real tag is a block address (device
// capacities are far below 2^64 bytes), so the sentinel can never match
// a lookup and the valid bit folds into the tag array itself.
const invalidTag = ^uint64(0)

// maxWays is the largest associativity a recency order of one byte per
// way can rank.
const maxWays = 256

// Cache is one set-associative level. Way state is stored
// structure-of-arrays: the tag scan — the hot loop of every access —
// touches one densely packed uint64 per way instead of a padded struct,
// and the LRU stamps and dirty bits stay out of the scan's cache lines.
//
// Each set also keeps a recency order: its way indices, most recently
// used first, one byte each. Ways fill in index order and only Flush
// invalidates them, so the valid ways of a set are always a prefix of
// its ways, and a set is full exactly when its last way is valid. The
// order ranks the valid ways ahead of the empty ones, so the victim of a
// full set is its last entry, read in O(1). The lastUse stamps are still written on every touch: they are
// what Snapshot records, and Restore rebuilds the order from them.
type Cache struct {
	cfg      Config
	tags     []uint64 // nsets*ways, set-major; invalidTag = empty way
	lastUse  []uint64 // parallel to tags
	dirty    []bool   // parallel to tags
	order    []uint8  // nsets*ways, set-major: way indices, MRU first
	nsets    int
	setMask  uint64
	lineBits uint
	useClock uint64
	stats    Stats
}

// New builds a cache level. It panics on an invalid config: level
// configurations are fixed tables, not user input.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		tags:    make([]uint64, nsets*cfg.Ways),
		lastUse: make([]uint64, nsets*cfg.Ways),
		dirty:   make([]bool, nsets*cfg.Ways),
		order:   make([]uint8, nsets*cfg.Ways),
		nsets:   nsets,
		setMask: uint64(nsets - 1),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := 0; i < cfg.Ways; i++ {
		c.order[i] = uint8(i)
	}
	for n := cfg.Ways; n < len(c.order); n *= 2 {
		copy(c.order[n:], c.order[:n]) // every set starts in way order
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// lineAddr returns the block-aligned address of addr.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.lineBits
	return blk & c.setMask, blk >> 0
}

// ways returns the tag slice of one set (length = associativity).
func (c *Cache) ways(set uint64) (base int, tags []uint64) {
	base = int(set) * c.cfg.Ways
	return base, c.tags[base : base+c.cfg.Ways]
}

// Lookup probes for addr without changing replacement or dirty state.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	_, tags := c.ways(set)
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Victim describes a line pushed out of a level.
type Victim struct {
	Addr  uint64 // block-aligned address of the evicted line
	Dirty bool
}

// Access performs a demand access. On a hit it updates LRU (and the dirty
// bit for stores) and returns hit=true. On a miss it allocates the line
// (write-allocate), possibly evicting a victim, and returns hit=false.
// The victim, if any, is returned so the caller can propagate a dirty
// writeback to the next level.
func (c *Cache) Access(addr uint64, kind AccessKind) (hit bool, victim Victim, evicted bool) {
	c.stats.Accesses++
	c.useClock++
	set, tag := c.index(addr)
	base, tags := c.ways(set)
	for i, t := range tags {
		if t == tag {
			c.stats.Hits++
			c.touch(base, i)
			if kind == Store {
				c.dirty[base+i] = true
			}
			return true, Victim{}, false
		}
	}
	c.stats.Misses++
	victim, evicted = c.allocate(set, tag, kind == Store)
	return false, victim, evicted
}

// Fill installs addr as a clean line without counting a demand access
// (used when a lower level returns data for an already-counted miss in
// hierarchies that fill non-inclusively). Returns the victim, if any.
func (c *Cache) Fill(addr uint64) (victim Victim, evicted bool) {
	c.useClock++
	set, tag := c.index(addr)
	base, tags := c.ways(set)
	for i, t := range tags {
		if t == tag {
			c.touch(base, i)
			return Victim{}, false
		}
	}
	return c.allocate(set, tag, false)
}

// WritebackInto installs a dirty writeback arriving from the level above.
// It returns whether the line was already present and dirty (the LLC's
// "previously dirty" registration bit), plus any victim the allocation
// displaced.
func (c *Cache) WritebackInto(addr uint64) (wasPresent, wasDirty bool, victim Victim, evicted bool) {
	c.stats.Accesses++
	c.useClock++
	set, tag := c.index(addr)
	base, tags := c.ways(set)
	for i, t := range tags {
		if t == tag {
			c.stats.Hits++
			wasDirty = c.dirty[base+i]
			c.dirty[base+i] = true
			c.touch(base, i)
			return true, wasDirty, Victim{}, false
		}
	}
	// A full-line writeback allocates without fetching from below.
	c.stats.Misses++
	victim, evicted = c.allocate(set, tag, true)
	return false, false, victim, evicted
}

// touch stamps way i of the set at base as just used and moves it to
// the front of the set's recency order.
func (c *Cache) touch(base, i int) {
	c.lastUse[base+i] = c.useClock
	ord := c.order[base : base+c.cfg.Ways]
	// Walk from the front, shifting each entry back one place, until
	// the slot that held way i is overwritten. A hit on the most
	// recently used way stops at once.
	w, prev := uint8(i), uint8(i)
	for j, cur := range ord {
		ord[j] = prev
		if cur == w {
			return
		}
		prev = cur
	}
}

// allocate installs (set, tag), evicting the LRU way if the set is full.
func (c *Cache) allocate(set, tag uint64, dirty bool) (victim Victim, evicted bool) {
	base, tags := c.ways(set)
	last := len(tags) - 1
	var way int
	if tags[last] != invalidTag {
		way = int(c.order[base+last])
		vDirty := c.dirty[base+way]
		c.stats.Evictions++
		if vDirty {
			c.stats.Writebacks++
		}
		victim = Victim{Addr: c.reconstruct(set, tags[way]), Dirty: vDirty}
		evicted = true
	} else {
		for tags[way] != invalidTag {
			way++
		}
	}
	tags[way] = tag
	c.dirty[base+way] = dirty
	c.touch(base, way)
	return victim, evicted
}

// reconstruct rebuilds a block address from set+tag.
func (c *Cache) reconstruct(set, tag uint64) uint64 {
	// tag here is the full block address (index() keeps all block bits
	// in the tag), so reconstruction is just a shift.
	_ = set
	return tag << c.lineBits
}

// Flush invalidates every line, returning the dirty ones so the caller
// can drain them (used at simulation end to account in-flight dirt).
func (c *Cache) Flush() []Victim {
	var dirty []Victim
	for set := 0; set < c.nsets; set++ {
		base, tags := c.ways(uint64(set))
		for i, t := range tags {
			if t != invalidTag && c.dirty[base+i] {
				dirty = append(dirty, Victim{Addr: c.reconstruct(uint64(set), t), Dirty: true})
			}
			tags[i] = invalidTag
			c.dirty[base+i] = false
			c.lastUse[base+i] = 0
			c.order[base+i] = uint8(i)
		}
	}
	return dirty
}
