package timing

import "runtime"

// ShardSet partitions one simulation's events across per-shard
// EventQueues that share a single clock and sequence space, and executes
// them with conservative epoch batches:
//
//   - At each barrier the set picks the shard owning the globally
//     earliest (time, seq) work; that shard becomes the batch owner.
//   - The owner dispatches its events in order — inline on the
//     coordinator, or on the shard's worker goroutine when workers are
//     enabled — while they precede the batch's ordering bound: the
//     earliest (time, seq) owned by any other shard.
//   - Cross-shard traffic is the mailbox seam: a Schedule onto another
//     shard's queue is a message stamped with the shared (time, seq).
//     A message that precedes the current bound tightens it in place,
//     so the owner stops before running past the new work; everything
//     the owner already dispatched preceded the message by
//     construction. Every message is drained in (time, seq) order, so
//     the merged dispatch sequence is exactly the serial one.
//
// Because batches always execute one-at-a-time (the barrier is a
// rendezvous), dispatch is fully serialized and components need no
// locking; worker goroutines give each shard an execution context whose
// hand-off cost only pays for itself on multi-core hosts, so they
// default to on only when GOMAXPROCS > 1.
type ShardSet struct {
	ck        *clock
	qs        []*EventQueue
	lookahead Time // retained knob: batches are bound-limited, see RunUntil

	// Batch state. While a batch executes, (limAt, limSeq) is the
	// ordering bound: the earliest (time, seq) owned by any shard other
	// than the owner, tightened in place by EventQueue.Schedule /
	// Timer.Arm when the batch emits earlier cross-shard work.
	active int // shard whose batch is executing; -1 at barriers
	limAt  Time
	limSeq int64

	epochs uint64 // windows opened (barrier count), for tests and metrics

	// keys caches each queue's head key between barriers; only queues
	// whose dirty flag is set get re-peeked. Most epochs mutate one or
	// two queues, so the barrier argmin runs over cached values.
	keys []headCache

	workers     []*shardWorker // per shard; nil entries run inline
	workersOn   bool
	workersAuto bool
}

type headCache struct {
	at  Time
	seq int64
}

type shardWorker struct {
	req  chan batchReq
	done chan struct{}
}

type batchReq struct {
	windowEnd Time
}

// NewShardSet builds n queues sharing one clock. lookahead bounds each
// epoch window; it must be positive (derive it from the minimum
// cross-shard latency of the model).
func NewShardSet(n int, lookahead Time) *ShardSet {
	if n <= 0 {
		panic("timing: ShardSet needs at least one shard")
	}
	if lookahead <= 0 {
		panic("timing: ShardSet lookahead must be positive")
	}
	s := &ShardSet{
		ck:          &clock{},
		lookahead:   lookahead,
		active:      -1,
		workersAuto: true,
	}
	for i := 0; i < n; i++ {
		q := &EventQueue{ck: s.ck, set: s, shard: i, dirty: true}
		s.qs = append(s.qs, q)
	}
	s.keys = make([]headCache, n)
	return s
}

// Queue returns shard i's event queue.
func (s *ShardSet) Queue(i int) *EventQueue { return s.qs[i] }

// NumShards returns the number of shards.
func (s *ShardSet) NumShards() int { return len(s.qs) }

// Now returns the shared simulation clock.
func (s *ShardSet) Now() Time { return s.ck.now }

// Len returns the total number of pending events across shards.
func (s *ShardSet) Len() int {
	n := 0
	for _, q := range s.qs {
		n += q.Len()
	}
	return n
}

// Epochs returns the number of windows opened so far.
func (s *ShardSet) Epochs() uint64 { return s.epochs }

// Reset discards all pending events and timers on every shard, restarts
// the shared sequence counter and sets the shared clock (the sharded
// analogue of EventQueue.Reset for snapshot restore).
func (s *ShardSet) Reset(now Time) {
	for _, q := range s.qs {
		q.Reset(now) // clock writes are idempotent across shards
	}
}

// SetWorkers overrides the automatic worker policy: on=true always
// drives non-coordinator shards through worker goroutines (used by the
// race-mode tests), on=false always batches inline.
func (s *ShardSet) SetWorkers(on bool) {
	s.workersAuto = false
	s.workersOn = on
	s.applyWorkers()
}

// applyWorkers starts or stops worker goroutines to match policy.
func (s *ShardSet) applyWorkers() {
	on := s.workersOn
	if s.workersAuto {
		on = runtime.GOMAXPROCS(0) > 1
	}
	switch {
	case on && s.workers == nil:
		s.workers = make([]*shardWorker, len(s.qs))
		for i := 1; i < len(s.qs); i++ { // shard 0 runs on the coordinator
			w := &shardWorker{req: make(chan batchReq), done: make(chan struct{})}
			s.workers[i] = w
			go s.workerLoop(i, w)
		}
	case !on && s.workers != nil:
		s.Close()
	}
}

// Close stops any worker goroutines. The set remains usable (batches
// run inline afterwards).
func (s *ShardSet) Close() {
	for _, w := range s.workers {
		if w != nil {
			close(w.req)
		}
	}
	s.workers = nil
}

// workerLoop parks until the barrier hands the shard a window, then
// dispatches the batch. The unbuffered req/done rendezvous is the epoch
// barrier: exactly one goroutine (coordinator or one worker) executes
// simulation code at any instant, which is what lets the components
// stay lock-free.
func (s *ShardSet) workerLoop(shard int, w *shardWorker) {
	for req := range w.req {
		s.runBatch(shard, req)
		w.done <- struct{}{}
	}
}

// runBatch dispatches shard events while they stay ahead of the batch's
// ordering bound (tightened in place by the batch's own cross-shard
// scheduling) and before the deadline clip.
func (s *ShardSet) runBatch(shard int, req batchReq) {
	s.qs[shard].runWindow(s, req.windowEnd)
}

// RunUntil executes events in global (time, seq) order up to and
// including deadline, then advances the shared clock to deadline.
func (s *ShardSet) RunUntil(deadline Time) {
	if s.workers == nil && (s.workersOn || s.workersAuto) {
		s.applyWorkers()
	}
	for {
		// Barrier: find the shard owning the earliest work, and the
		// earliest work of every other shard. Head keys are cached
		// across epochs; only queues mutated since the last barrier
		// (dirty) are re-peeked.
		best, bestAt, bestSeq := -1, Forever, int64(1<<62)
		otherAt, otherSeq := Forever, int64(1<<62)
		for i, q := range s.qs {
			if q.dirty {
				s.keys[i].at, s.keys[i].seq = q.headKey()
				q.dirty = false
			}
			at, seq := s.keys[i].at, s.keys[i].seq
			if at < bestAt || (at == bestAt && seq < bestSeq) {
				if best >= 0 && (bestAt < otherAt || (bestAt == otherAt && bestSeq < otherSeq)) {
					otherAt, otherSeq = bestAt, bestSeq
				}
				best, bestAt, bestSeq = i, at, seq
			} else if at < otherAt || (at == otherAt && seq < otherSeq) {
				otherAt, otherSeq = at, seq
			}
		}
		if best < 0 || bestAt > deadline {
			break
		}
		// The batch is bound-limited, not lookahead-limited: the owner
		// runs until its next event would pass another shard's earliest
		// work (a bound its own cross-shard scheduling tightens live),
		// so the only window clip needed is the deadline itself.
		windowEnd := deadline + 1
		s.epochs++
		s.active, s.limAt, s.limSeq = best, otherAt, otherSeq
		req := batchReq{windowEnd: windowEnd}
		if w := s.workers; w != nil && w[best] != nil {
			w[best].req <- req
			<-w[best].done
		} else {
			s.runBatch(best, req)
		}
		s.active = -1
	}
	if s.ck.now < deadline {
		s.ck.now = deadline
	}
}
