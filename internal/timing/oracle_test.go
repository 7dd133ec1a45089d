package timing

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refEvent is one event of the reference queue.
type refEvent struct {
	at    Time
	seq   int64
	id    int
	child Time // delay of the follow-up event its dispatch schedules; -1 for none
	idx   int  // heap index, -1 once fired, cancelled or reset away
}

// refHeap is the naive reference for EventQueue: container/heap ordered
// by (at, seq).
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	e.idx = -1
	return e
}

// eqOracle drives an EventQueue and the reference side by side. Event
// ids are assigned in schedule order on each side independently, so the
// two dispatch logs agree only if both sides scheduled, cancelled and
// dispatched the same events in the same order.
type eqOracle struct {
	t testing.TB
	q *EventQueue

	refs []EventRef // by id
	got  []int      // ids in dispatch order

	m     refHeap
	mEvs  []*refEvent // by id
	mNow  Time
	mSeq  int64
	want  []int
	steps int
	same  int // dispatch-log prefix already compared
}

func newEQOracle(t testing.TB) *eqOracle {
	return &eqOracle{t: t, q: NewEventQueue()}
}

func (o *eqOracle) schedule(at, child Time) {
	o.realSchedule(at, child)
	o.modelSchedule(at, child)
	id := len(o.refs) - 1
	if got, want := o.refs[id].Seq(), o.mEvs[id].seq; got != want {
		o.t.Fatalf("event %d: Seq %d, want %d", id, got, want)
	}
}

func (o *eqOracle) realSchedule(at, child Time) {
	id := len(o.refs)
	o.refs = append(o.refs, EventRef{})
	o.refs[id] = o.q.Schedule(at, func(now Time) {
		if now != at {
			o.t.Fatalf("event %d due %v dispatched at %v", id, at, now)
		}
		o.got = append(o.got, id)
		if child >= 0 {
			o.realSchedule(now+child, -1)
		}
	})
}

func (o *eqOracle) modelSchedule(at, child Time) {
	e := &refEvent{at: at, seq: o.mSeq, id: len(o.mEvs), child: child}
	o.mSeq++
	o.mEvs = append(o.mEvs, e)
	heap.Push(&o.m, e)
}

func (o *eqOracle) modelStep() bool {
	if len(o.m) == 0 {
		return false
	}
	e := heap.Pop(&o.m).(*refEvent)
	o.mNow = e.at
	o.want = append(o.want, e.id)
	if e.child >= 0 {
		o.modelSchedule(e.at+e.child, -1)
	}
	return true
}

func (o *eqOracle) cancel(id int) {
	o.q.Cancel(o.refs[id])
	if e := o.mEvs[id]; e.idx >= 0 {
		heap.Remove(&o.m, e.idx)
	}
}

func (o *eqOracle) step() {
	got := o.q.Step()
	if want := o.modelStep(); got != want {
		o.t.Fatalf("Step = %v, want %v", got, want)
	}
}

func (o *eqOracle) runUntil(deadline Time) {
	o.q.RunUntil(deadline)
	for len(o.m) > 0 && o.m[0].at <= deadline {
		o.modelStep()
	}
	if o.mNow < deadline {
		o.mNow = deadline
	}
}

func (o *eqOracle) reset(now Time) {
	o.q.Reset(now)
	for _, e := range o.m {
		e.idx = -1
	}
	o.m = o.m[:0]
	o.mSeq = 0
	o.mNow = now
}

// check compares everything observable after one operation.
func (o *eqOracle) check(op string) {
	o.steps++
	if !slices.Equal(o.got[o.same:], o.want[o.same:]) {
		o.t.Fatalf("op %d (%s): dispatch order after %d matching events\n got %v\nwant %v", o.steps, op, o.same, o.got[o.same:], o.want[o.same:])
	}
	o.same = len(o.got)
	if len(o.refs) != len(o.mEvs) {
		o.t.Fatalf("op %d (%s): %d events scheduled, want %d", o.steps, op, len(o.refs), len(o.mEvs))
	}
	if got, want := o.q.Len(), len(o.m); got != want {
		o.t.Fatalf("op %d (%s): Len = %d, want %d", o.steps, op, got, want)
	}
	if got, want := o.q.Now(), o.mNow; got != want {
		o.t.Fatalf("op %d (%s): Now = %v, want %v", o.steps, op, got, want)
	}
	want := Forever
	if len(o.m) > 0 {
		want = o.m[0].at
	}
	if got := o.q.PeekTime(); got != want {
		o.t.Fatalf("op %d (%s): PeekTime = %v, want %v", o.steps, op, got, want)
	}
}

// run decodes ops into queue operations: schedules at Now, near and far
// in the future (optionally with a follow-up scheduled from inside the
// dispatch), cancels of any ref ever issued (live, fired, stale across
// slot reuse or Reset, already cancelled, or the zero ref), Step,
// RunUntil and Reset.
func (o *eqOracle) run(ops []byte) {
	next := func() Time {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return Time(b)
	}
	for len(ops) > 0 {
		op := ops[0]
		ops = ops[1:]
		now := o.q.Now()
		switch op % 10 {
		case 0:
			o.schedule(now, -1)
			o.check("schedule now")
		case 1:
			o.schedule(now+next(), -1)
			o.check("schedule near")
		case 2:
			o.schedule(now+(next()<<8|next()), -1)
			o.check("schedule mid")
		case 3:
			o.schedule(now+(next()+1)*Millisecond, -1)
			o.check("schedule far")
		case 4:
			o.schedule(now+next()%16, next()%64)
			o.check("schedule with follow-up")
		case 5, 6:
			if n := len(o.refs); n > 0 {
				id := int(next()<<8|next()) % n
				o.cancel(id)
				o.cancel(id) // a second cancel is always a no-op
			}
			o.q.Cancel(EventRef{})
			o.check("cancel")
		case 7:
			o.step()
			o.check("step")
		case 8:
			o.runUntil(now + next()*next())
			o.check("run until")
		case 9:
			if next()%8 == 0 {
				o.reset(now + next())
				o.check("reset")
			}
		}
	}
	for o.q.Len() > 0 {
		o.step()
		o.check("drain")
	}
	o.step()
	o.check("step on empty")
}

func TestEventQueueOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 20000)
		rng.Read(ops)
		// Bias some streams toward scheduling so thousands of events
		// are pending and deep (binary-searched) inserts are exercised.
		if seed%2 == 0 {
			for i := range ops {
				if ops[i]%10 >= 5 && rng.Intn(4) != 0 {
					ops[i] = byte(rng.Intn(5))
				}
			}
		}
		newEQOracle(t).run(ops)
	}
}

func FuzzEventQueueOracle(f *testing.F) {
	f.Add([]byte{0, 1, 5, 2, 3, 7, 7, 7})
	f.Add([]byte{3, 9, 3, 1, 0, 0, 0, 5, 0, 2, 7, 8, 200, 200, 9, 0, 4, 5, 3})
	f.Add([]byte{4, 1, 7, 4, 0, 0, 5, 0, 1, 7, 7, 9, 8, 10, 5, 0, 0, 7})
	seq := make([]byte, 512)
	rand.New(rand.NewSource(7)).Read(seq)
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		newEQOracle(t).run(ops)
	})
}
