package cache

import "rrmpcm/internal/snapshot"

const (
	snapLevelSection = 0x4341 // "CA"
	snapHierSection  = 0x4348 // "CH"
)

// Snapshot writes one level's complete tag/dirty/LRU state. Line flags
// pack into one byte; tags and LRU stamps are fixed-width, so a given
// cache state always encodes to the same bytes.
func (c *Cache) Snapshot(w *snapshot.Writer) {
	w.Section(snapLevelSection)
	w.U64(c.useClock)
	w.U64(c.stats.Accesses)
	w.U64(c.stats.Hits)
	w.U64(c.stats.Misses)
	w.U64(c.stats.Evictions)
	w.U64(c.stats.Writebacks)
	w.U32(uint32(c.nsets))
	w.U32(uint32(c.cfg.Ways))
	// Invalid ways encode as all-zero (flags 0, tag 0, stamp 0), exactly
	// as the former padded-struct layout serialized them, so the blob
	// stays byte-identical across the storage-layout change.
	for i, t := range c.tags {
		var flags uint8
		if t != invalidTag {
			flags |= 1
		} else {
			t = 0
		}
		if c.dirty[i] {
			flags |= 2
		}
		w.U8(flags)
		w.U64(t)
		w.U64(c.lastUse[i])
	}
}

// Restore loads state written by Snapshot into a same-geometry level and
// rebuilds each set's recency order from the restored stamps.
func (c *Cache) Restore(r *snapshot.Reader) {
	r.Section(snapLevelSection)
	c.useClock = r.U64()
	c.stats.Accesses = r.U64()
	c.stats.Hits = r.U64()
	c.stats.Misses = r.U64()
	c.stats.Evictions = r.U64()
	c.stats.Writebacks = r.U64()
	if sets := r.U32(); r.Err() == nil && int(sets) != c.nsets {
		r.Fail("cache %s: snapshot has %d sets, live cache %d", c.cfg.Name, sets, c.nsets)
		return
	}
	if ways := r.U32(); r.Err() == nil && int(ways) != c.cfg.Ways {
		r.Fail("cache %s: snapshot has %d ways, live cache %d", c.cfg.Name, ways, c.cfg.Ways)
		return
	}
	for i := range c.tags {
		flags := r.U8()
		tag := r.U64()
		if flags&1 == 0 {
			tag = invalidTag
		}
		c.tags[i] = tag
		c.dirty[i] = flags&2 != 0
		c.lastUse[i] = r.U64()
		if r.Err() != nil {
			return
		}
	}
	for base := 0; base < len(c.tags); base += c.cfg.Ways {
		if !c.rebuildOrder(base) {
			r.Fail("cache %s: set %d has a valid way after an empty one", c.cfg.Name, base/c.cfg.Ways)
			return
		}
	}
}

// rebuildOrder ranks the set at base from its lastUse stamps: valid ways
// newest first, then the empty ways. Accesses never leave two valid
// ways with one stamp; should a blob hold a tie, the lower way ranks
// older. It reports false if the valid ways are not a prefix of the
// set, a state no sequence of accesses produces.
func (c *Cache) rebuildOrder(base int) bool {
	ways := c.cfg.Ways
	tags := c.tags[base : base+ways]
	lu := c.lastUse[base : base+ways]
	ord := c.order[base : base+ways]
	n := 0
	for n < ways && tags[n] != invalidTag {
		j := n
		for ; j > 0 && lu[ord[j-1]] <= lu[n]; j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = uint8(n)
		n++
	}
	for i := n; i < ways; i++ {
		if tags[i] != invalidTag {
			return false
		}
		ord[i] = uint8(i)
	}
	return true
}

// Snapshot writes the whole hierarchy: every level plus the retired
// instruction counter.
func (h *Hierarchy) Snapshot(w *snapshot.Writer) {
	w.Section(snapHierSection)
	w.U64(h.insts)
	for core := 0; core < h.cfg.Cores; core++ {
		h.l1d[core].Snapshot(w)
		h.l1i[core].Snapshot(w)
		h.l2[core].Snapshot(w)
	}
	h.llc.Snapshot(w)
}

// Restore loads hierarchy state into a same-configuration hierarchy.
func (h *Hierarchy) Restore(r *snapshot.Reader) {
	r.Section(snapHierSection)
	h.insts = r.U64()
	for core := 0; core < h.cfg.Cores; core++ {
		h.l1d[core].Restore(r)
		h.l1i[core].Restore(r)
		h.l2[core].Restore(r)
	}
	h.llc.Restore(r)
}
