package timing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scripted drives one pseudo-workload against either a single queue or a
// ShardSet: every dispatched event appends its (shard, time, tag) to the
// log and may schedule follow-ups onto any shard, mimicking the
// cross-shard seams of the simulator (submission, completion, wakeup).
type scripted struct {
	log  []string
	rng  *rand.Rand
	qs   []*EventQueue // len 1 for serial; shard count for sharded
	left int
}

func (s *scripted) queueFor(shard int) *EventQueue {
	return s.qs[shard%len(s.qs)]
}

func (s *scripted) event(shard int, tag int) func(Time) {
	return func(now Time) {
		s.log = append(s.log, fmt.Sprintf("%d@%d#%d", shard, now, tag))
		if s.left <= 0 {
			return
		}
		s.left--
		// Deterministic pseudo-random fan-out: same decisions whatever
		// the queue layout, since the rng is consumed in dispatch order
		// and dispatch order must match across layouts.
		n := s.rng.Intn(3)
		for i := 0; i < n; i++ {
			dst := s.rng.Intn(4)
			dt := Time(s.rng.Intn(50)) // 0 keeps same-instant ties common
			s.queueFor(dst).Schedule(now+dt, s.event(dst, s.rng.Intn(1000)))
		}
	}
}

func seedScript(s *scripted) {
	for i := 0; i < 20; i++ {
		dst := s.rng.Intn(4)
		s.queueFor(dst).Schedule(Time(s.rng.Intn(30)), s.event(dst, i))
	}
}

func runSerial(seed int64) []string {
	s := &scripted{rng: rand.New(rand.NewSource(seed)), left: 3000}
	q := NewEventQueue()
	s.qs = []*EventQueue{q, q, q, q}
	seedScript(s)
	q.RunUntil(1 << 40)
	return s.log
}

func runSharded(seed int64, shards int, lookahead Time, workers bool) []string {
	s := &scripted{rng: rand.New(rand.NewSource(seed)), left: 3000}
	set := NewShardSet(shards, lookahead)
	if workers {
		set.SetWorkers(true)
		defer set.Close()
	} else {
		set.SetWorkers(false)
	}
	for i := 0; i < shards; i++ {
		s.qs = append(s.qs, set.Queue(i))
	}
	for len(s.qs) < 4 {
		s.qs = append(s.qs, s.qs[len(s.qs)%shards])
	}
	seedScript(s)
	set.RunUntil(1 << 40)
	return s.log
}

// TestShardSetMatchesSerialOrder is the core determinism property: the
// merged dispatch order of a ShardSet equals the serial EventQueue's
// dispatch order exactly, for every shard count, lookahead and worker
// mode — including same-instant ties resolved by schedule order across
// shards.
func TestShardSetMatchesSerialOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want := runSerial(seed)
		for _, shards := range []int{1, 2, 4} {
			for _, la := range []Time{1, 7, 1000} {
				for _, workers := range []bool{false, true} {
					got := runSharded(seed, shards, la, workers)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d shards %d lookahead %d workers %v: dispatch order diverged\nserial : %v\nsharded: %v",
							seed, shards, la, workers, want[:min(len(want), 20)], got[:min(len(got), 20)])
					}
				}
			}
		}
	}
}

// TestShardSetTimers checks timer-slot semantics under the merge: a
// timer fires once per arming, interleaved with same-instant queued
// events by the sequence number drawn at Arm — exactly where a
// Scheduled event would have fired.
func TestShardSetTimers(t *testing.T) {
	set := NewShardSet(2, 10)
	set.SetWorkers(false)
	q0, q1 := set.Queue(0), set.Queue(1)
	var log []string
	tm := q1.NewTimer(func(now Time) { log = append(log, fmt.Sprintf("timer@%d", now)) })
	tm.Arm(q1, 5) // seq 0: fires before the later-scheduled same-instant events
	q0.Schedule(5, func(now Time) { log = append(log, fmt.Sprintf("ev0@%d", now)) })
	q1.Schedule(5, func(now Time) { log = append(log, fmt.Sprintf("ev1@%d", now)) })
	q1.Schedule(20, func(now Time) {
		log = append(log, fmt.Sprintf("ev1@%d", now))
		tm.Arm(q1, now+1)
	})
	set.RunUntil(100)
	want := []string{"timer@5", "ev0@5", "ev1@5", "ev1@20", "timer@21"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("timer dispatch order: got %v want %v", log, want)
	}
	if tm.Armed() {
		t.Fatalf("timer still armed after firing")
	}
	if set.Now() != 100 {
		t.Fatalf("clock = %d, want 100", set.Now())
	}
}

// TestShardSetSharedClock checks that every shard observes the shared
// Now and that sequence numbers are globally unique and increasing in
// dispatch order.
func TestShardSetSharedClock(t *testing.T) {
	set := NewShardSet(3, 25)
	set.SetWorkers(false)
	var seen []Time
	for i := 0; i < 3; i++ {
		i := i
		set.Queue(i).Schedule(Time(10*i+5), func(now Time) {
			for j := 0; j < 3; j++ {
				if got := set.Queue(j).Now(); got != now {
					t.Errorf("shard %d sees Now=%d during dispatch at %d", j, got, now)
				}
			}
			seen = append(seen, now)
		})
	}
	set.RunUntil(1000)
	if want := []Time{5, 15, 25}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("dispatch times %v, want %v", seen, want)
	}
	if set.Epochs() == 0 {
		t.Fatalf("no epochs recorded")
	}
}

// TestShardSetReset checks that Reset clears events and timers on every
// shard and restarts the shared sequence space (the restore path).
func TestShardSetReset(t *testing.T) {
	set := NewShardSet(2, 10)
	set.SetWorkers(false)
	fired := false
	set.Queue(0).Schedule(50, func(Time) { fired = true })
	tm := set.Queue(1).NewTimer(func(Time) { fired = true })
	tm.Arm(set.Queue(1), 60)
	set.Reset(40)
	if set.Now() != 40 || set.Len() != 0 || tm.Armed() {
		t.Fatalf("Reset left state: now=%d len=%d armed=%v", set.Now(), set.Len(), tm.Armed())
	}
	ref := set.Queue(1).Schedule(45, func(Time) {})
	if ref.Seq() != 0 {
		t.Fatalf("sequence space not restarted: first seq = %d", ref.Seq())
	}
	set.RunUntil(100)
	if fired {
		t.Fatalf("discarded event fired after Reset")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
