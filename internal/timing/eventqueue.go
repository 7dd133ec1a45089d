package timing

// EventRef is a cancellation handle for a scheduled event. The zero
// EventRef refers to nothing; cancelling it is a no-op. A ref whose
// event already fired or was cancelled is detected by its sequence
// number (sequence numbers are never reused within a queue lifetime),
// and a ref taken before the queue's last Reset by its generation, so
// stale refs are always safe, even after the queue recycles the event's
// slot for a later Schedule.
type EventRef struct {
	seq  int64
	slot int32  // slot index + 1; 0 for the zero ref
	gen  uint32 // queue generation (Reset count) at Schedule
}

// Valid reports whether the ref was obtained from Schedule (it may
// still refer to an already-fired event).
func (r EventRef) Valid() bool { return r.slot != 0 }

// Seq returns the event's sequence number (-1 for the zero ref). Within
// one queue lifetime, sequence numbers totally order events scheduled
// for the same instant, which is what state snapshots record to rebuild
// the dispatch order on restore.
func (r EventRef) Seq() int64 {
	if r.slot == 0 {
		return -1
	}
	return r.seq
}

// entry is one pending event's dispatch key and the slot holding its
// callback. Entries carry no pointers, so shifting the ordered array is
// a plain memory move that the garbage collector never scans.
type entry struct {
	at   Time
	seq  int64
	slot int32
}

// slot holds a pending event's callback. seq is the sequence number of
// the event occupying the slot, or -1 while the slot is free; an entry
// whose seq no longer matches its slot's is a cancelled tombstone.
type slot struct {
	do  func(now Time)
	seq int64
}

// tailScan bounds the linear scan back from the tail when inserting; a
// new event due later than that many pending ones is placed by binary
// search instead. Most events are due soon and land within the scan;
// far-future timers (RRM refresh deadlines) go deep.
const tailScan = 8

// EventQueue is a deterministic priority queue of events. Events
// scheduled for the same instant fire in the order they were scheduled,
// which keeps simulations reproducible regardless of map iteration or
// goroutine scheduling.
//
// Pending events live in an array kept sorted by (At, seq) descending,
// so the next event is the last element and dispatch is a pop. Every
// Schedule draws a sequence number larger than any pending one, so a new
// event goes just behind the pending events due after it: Schedule walks
// back from the tail for at most tailScan entries, then binary-searches
// the rest. Cancel leaves the entry in place as a tombstone (its slot no
// longer matches); tombstones are dropped when they reach the tail, and
// Len does not count them.
//
// Callback slots of fired and cancelled events go on a free list and are
// reused by later Schedule calls, so a steady-state simulation schedules
// millions of events without allocating.
type EventQueue struct {
	ord   []entry // pending events, (at, seq) descending: next is last
	slots []slot
	free  []int32 // free slot indices
	tombs int     // cancelled entries still in ord
	gen   uint32  // incremented by Reset; invalidates every earlier ref
	now   Time    // At of the most recently dispatched event
	seq   int64   // next sequence number
}

// NewEventQueue returns an empty queue whose clock starts at 0.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Now returns the current simulation time: the At of the most recently
// dispatched event.
func (q *EventQueue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.ord) - q.tombs }

// Schedule enqueues fn to run at time at. Scheduling in the past (before
// Now) is a programming error and panics, since it would silently reorder
// causality.
func (q *EventQueue) Schedule(at Time, fn func(now Time)) EventRef {
	if at < q.now {
		panic("timing: event scheduled in the past")
	}
	var s int32
	if n := len(q.free); n > 0 {
		s = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		s = int32(len(q.slots))
		q.slots = append(q.slots, slot{})
	}
	seq := q.seq
	q.seq++
	q.slots[s] = slot{do: fn, seq: seq}
	q.insert(entry{at: at, seq: seq, slot: s})
	return EventRef{seq: seq, slot: s + 1, gen: q.gen}
}

// insert places e, whose seq exceeds every pending seq, behind the
// pending entries due strictly after it. Entries due at or before e.at
// dispatch first, so they shift one place toward the tail.
func (q *EventQueue) insert(e entry) {
	q.ord = append(q.ord, e)
	ord := q.ord
	i := len(ord) - 1
	for stop := i - tailScan; i > 0 && i > stop && ord[i-1].at <= e.at; i-- {
		ord[i] = ord[i-1]
	}
	if i > 0 && ord[i-1].at <= e.at {
		// Deep insert: find the first index in ord[:i] due at or before
		// e.at (at is non-increasing along ord).
		lo, hi := 0, i-1
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if ord[m].at <= e.at {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(ord[lo+1:i+1], ord[lo:i])
		i = lo
	}
	ord[i] = e
}

// Reset discards every pending event, restarts the sequence counter and
// sets the clock to now. It is the first step of restoring a state
// snapshot: the restored components re-schedule their pending events
// onto the emptied queue (see Pending). Refs taken before the Reset no
// longer cancel anything.
func (q *EventQueue) Reset(now Time) {
	for _, e := range q.ord {
		if q.slots[e.slot].seq == e.seq {
			q.release(e.slot)
		}
	}
	q.ord = q.ord[:0]
	q.tombs = 0
	q.gen++
	q.seq = 0
	q.now = now
}

// Cancel removes a pending event. Cancelling a zero ref, or a ref whose
// event already fired or was already cancelled, is a no-op.
func (q *EventQueue) Cancel(ref EventRef) {
	s := ref.slot - 1
	if s < 0 || ref.gen != q.gen || q.slots[s].seq != ref.seq {
		return
	}
	q.release(s)
	q.tombs++
}

// release frees a slot whose event fired or was cancelled.
func (q *EventQueue) release(s int32) {
	q.slots[s] = slot{seq: -1} // drops the closure for GC
	q.free = append(q.free, s)
}

// head drops tombstones from the tail and returns the next live entry.
func (q *EventQueue) head() (entry, bool) {
	for n := len(q.ord); n > 0; n-- {
		e := q.ord[n-1]
		if q.slots[e.slot].seq == e.seq {
			return e, true
		}
		q.ord = q.ord[:n-1]
		q.tombs--
	}
	return entry{}, false
}

// fire pops the head entry e and dispatches it, advancing the clock.
func (q *EventQueue) fire(e entry) {
	q.ord = q.ord[:len(q.ord)-1]
	do := q.slots[e.slot].do
	// Release before dispatch: the callback may Schedule, and reusing
	// this slot there is safe because the caller's EventRef sequence
	// number no longer matches.
	q.release(e.slot)
	q.now = e.at
	do(e.at)
}

// PeekTime returns the time of the earliest pending event, or Forever if
// the queue is idle.
func (q *EventQueue) PeekTime() Time {
	if e, ok := q.head(); ok {
		return e.at
	}
	return Forever
}

// Step dispatches the earliest pending event, advancing the clock to its
// time. It reports whether an event was dispatched.
func (q *EventQueue) Step() bool {
	e, ok := q.head()
	if ok {
		q.fire(e)
	}
	return ok
}

// RunUntil dispatches events in order until the next event would be after
// deadline or the queue drains, then advances the clock to deadline.
func (q *EventQueue) RunUntil(deadline Time) {
	for {
		e, ok := q.head()
		if !ok || e.at > deadline {
			break
		}
		q.fire(e)
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// Drain dispatches events until none remain. Intended for tests; a
// simulation with periodic timers never drains.
func (q *EventQueue) Drain(maxEvents int) int {
	n := 0
	for n < maxEvents && q.Step() {
		n++
	}
	return n
}
