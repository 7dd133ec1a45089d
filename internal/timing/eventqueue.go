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

// clock is the (time, sequence) source of one simulation. A standalone
// EventQueue owns its clock; the queues of a ShardSet share one, so a
// component scheduling onto any shard sees the same global Now and every
// event across all shards draws from one sequence space — which is what
// makes the merged dispatch order of a sharded run identical to the
// serial order (ties at the same instant still resolve by schedule
// order, regardless of which shard holds the event).
type clock struct {
	now Time
	seq int64
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
// goroutine scheduling (event dispatch is serialized even under a
// ShardSet).
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
	ck    *clock

	// timers are coarse one-shot deadline slots (see NewTimer), cheaper
	// than queued events for the re-arm-heavy wakeups of the sharded
	// engine. Only ShardSet-driven queues use them; a standalone queue's
	// timer slice stays nil and Step ignores the field entirely.
	timers []*Timer

	// set/shard back-reference when the queue belongs to a ShardSet;
	// Schedule uses it to tighten the executing batch's ordering bound
	// when work lands on another shard (see ShardSet.limAt).
	set   *ShardSet
	shard int

	// dirty is set by every mutation that can move the queue's earliest
	// work (Schedule, Cancel, dispatch, timer arm/disarm, Reset). The
	// ShardSet barrier uses it to recompute head keys only for queues
	// that actually changed since the previous epoch.
	dirty bool
}

// NewEventQueue returns an empty queue whose clock starts at 0.
func NewEventQueue() *EventQueue {
	return &EventQueue{ck: &clock{}}
}

// Now returns the current simulation time: the At of the most recently
// dispatched event.
func (q *EventQueue) Now() Time { return q.ck.now }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.ord) - q.tombs }

// Schedule enqueues fn to run at time at. Scheduling in the past (before
// Now) is a programming error and panics, since it would silently reorder
// causality.
func (q *EventQueue) Schedule(at Time, fn func(now Time)) EventRef {
	if at < q.ck.now {
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
	seq := q.ck.seq
	q.ck.seq++
	q.slots[s] = slot{do: fn, seq: seq}
	q.insert(entry{at: at, seq: seq, slot: s})
	q.dirty = true
	if st := q.set; st != nil && st.active >= 0 && q.shard != st.active &&
		(at < st.limAt || (at == st.limAt && seq < st.limSeq)) {
		// Cross-shard traffic now precedes the executing batch's
		// ordering bound: tighten the bound so the batch stops before
		// running past it. The batch keeps dispatching its earlier
		// work — nothing is aborted or redone.
		st.limAt, st.limSeq = at, seq
	}
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
	for _, t := range q.timers {
		t.At = Forever
	}
	q.dirty = true
	q.ck.seq = 0
	q.ck.now = now
}

// After enqueues fn to run d after the current time.
func (q *EventQueue) After(d Time, fn func(now Time)) EventRef {
	return q.Schedule(q.ck.now+d, fn)
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
	q.dirty = true
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
	q.dirty = true
	q.ck.now = e.at
	do(e.at)
}

// PeekTime returns the time of the earliest pending event or armed
// timer, or Forever if the queue is idle.
func (q *EventQueue) PeekTime() Time {
	at := Forever
	if e, ok := q.head(); ok {
		at = e.at
	}
	for _, t := range q.timers {
		if t.At < at {
			at = t.At
		}
	}
	return at
}

// headKey returns the (time, seq) dispatch key of the queue's earliest
// work. Armed timers carry real sequence numbers (assigned at Arm), so
// they interleave with queued events — here and across shards in a
// merge — exactly as the equivalent Scheduled event would.
func (q *EventQueue) headKey() (Time, int64) {
	at, seq := Forever, int64(1<<62)
	if e, ok := q.head(); ok {
		at, seq = e.at, e.seq
	}
	for _, t := range q.timers {
		if t.At < at || (t.At == at && t.seq < seq) {
			at, seq = t.At, t.seq
		}
	}
	return at, seq
}

// runWindow dispatches the queue's work in (time, seq) order while it
// stays before windowEnd (the deadline clip) and ahead of the batch's
// ordering bound — the earliest (time, seq) owned by any other shard,
// re-read every iteration because the batch's own cross-shard
// scheduling tightens it in place. It is the batch loop of ShardSet;
// living here lets each iteration peek the queue head and timer slots
// exactly once instead of once in headKey and again in dispatchKey.
func (q *EventQueue) runWindow(s *ShardSet, windowEnd Time) {
	for {
		e, ok := q.head()
		at, seq := Forever, int64(1<<62)
		if ok {
			at, seq = e.at, e.seq
		}
		var timer *Timer
		for _, t := range q.timers {
			if t.At < at || (t.At == at && t.seq < seq) {
				at, seq = t.At, t.seq
				timer = t
			}
		}
		if at >= windowEnd || at > s.limAt || (at == s.limAt && seq > s.limSeq) {
			return
		}
		if timer != nil {
			timer.At = Forever
			q.dirty = true
			q.ck.now = at
			timer.fn(at)
		} else {
			q.fire(e)
		}
	}
}

// Step dispatches the earliest pending event, advancing the clock to its
// time. It reports whether an event was dispatched. (Timer slots are
// dispatched by ShardSet via runWindow, never by Step.)
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
	if q.ck.now < deadline {
		q.ck.now = deadline
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

// Timer is a one-shot deadline slot on an EventQueue: a single mutable
// (At, seq, fn) triple that fires at most once per arming and re-arms
// with two stores instead of a Cancel+Schedule round-trip. It exists for
// the sharded engine's channel wakeups, which are re-aimed on nearly
// every kick; as queued events that churn would leave a tombstone each.
// Arming draws a sequence number from the queue's clock exactly like
// Schedule, so an armed timer interleaves with same-instant queued events
// precisely as the event it replaces would have — replacing an event
// with a timer changes no dispatch order. A disarmed timer holds
// At == Forever. Timers are not part of Len/Drain; they are dispatched
// only by a ShardSet (runWindow).
type Timer struct {
	At  Time
	seq int64
	fn  func(now Time)
	q   *EventQueue // owning queue, for barrier dirty-marking
}

// NewTimer registers a timer slot on the queue, initially disarmed. The
// number of slots per queue is expected to stay small (one per memory
// channel mapped to the shard); every PeekTime/headKey scans them.
func (q *EventQueue) NewTimer(fn func(now Time)) *Timer {
	t := &Timer{At: Forever, fn: fn, q: q}
	q.timers = append(q.timers, t)
	return t
}

// Arm sets the timer to fire at `at`, replacing any earlier deadline and
// assigning a fresh sequence number (the ordering position a Schedule
// call at this point would get). Arming in the past is a programming
// error, as with Schedule.
func (t *Timer) Arm(q *EventQueue, at Time) {
	if at < q.ck.now {
		panic("timing: timer armed in the past")
	}
	t.At = at
	t.seq = q.ck.seq
	q.ck.seq++
	q.dirty = true
	if s := q.set; s != nil && s.active >= 0 && q.shard != s.active &&
		(at < s.limAt || (at == s.limAt && t.seq < s.limSeq)) {
		s.limAt, s.limSeq = at, t.seq // cross-shard deadline tightens the batch bound
	}
}

// Seq returns the sequence number assigned at the last Arm (snapshots
// record it alongside At to rebuild dispatch order on restore).
func (t *Timer) Seq() int64 { return t.seq }

// Disarm clears the timer.
func (t *Timer) Disarm() {
	t.At = Forever
	t.q.dirty = true
}

// Armed reports whether the timer holds a live deadline.
func (t *Timer) Armed() bool { return t.At != Forever }
