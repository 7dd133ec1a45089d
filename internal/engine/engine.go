// Package engine is the parallel experiment engine: a worker-pool job
// scheduler that fans simulation runs out over GOMAXPROCS goroutines
// while keeping every observable output deterministic.
//
// The design invariants, in order of importance:
//
//   - Determinism. A Job is identified by a Key (normally the
//     ConfigHash of its sim.Config). Results are merged by job key and
//     returned in submission order, never in completion order, so any
//     parallelism level produces byte-identical downstream tables. The
//     simulations themselves are already deterministic: every run owns a
//     private sim.System whose PRNGs are seeded from its own config.
//
//   - Isolation. Jobs share nothing. A panicking simulation is
//     converted into that job's error (with the stack attached) instead
//     of killing the sweep; the other jobs finish normally.
//
//   - Resumability. With a RunCache attached, finished runs persist to
//     disk keyed by config hash, so repeated passes and interrupted
//     sweeps reload results instead of recomputing them.
//
//   - Cancellation. The context passed to Run stops the feed and
//     propagates into running simulations (sim.System.RunContext checks
//     it between event-queue slices); Options.Timeout bounds each job.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rrmpcm/internal/sampling"
	"rrmpcm/internal/sim"
)

// Job is one simulation to execute.
type Job struct {
	// Key is the job's deterministic identity: jobs with equal keys are
	// assumed interchangeable and execute once. Use ConfigHash.
	Key string
	// Name is the human-readable label used in progress output and
	// error messages ("main/RRM/GemsFDTD"). Purely cosmetic.
	Name string
	// Config is the full run configuration.
	Config sim.Config
	// Uncacheable excludes the job from the disk cache. Custom-policy
	// configs set it: their behaviour is not captured by the config
	// hash, so a disk entry could go stale across code changes.
	Uncacheable bool
}

func (j Job) label() string {
	if j.Name != "" {
		return j.Name
	}
	return j.Key
}

// Result is the outcome of one job.
type Result struct {
	Key  string
	Name string
	// Metrics is valid iff Err is nil.
	Metrics sim.Metrics
	Err     error
	// Cached reports a disk-cache hit (no simulation ran).
	Cached bool
	// CacheErr is a non-fatal failure writing the result to the disk
	// cache; the Metrics are still valid.
	CacheErr error
	// Wall is the job's wall-clock cost (near zero for cache hits).
	Wall time.Duration
}

// SimFunc runs one simulation; it must honor ctx. The default is RunSim;
// tests substitute instrumented fakes.
type SimFunc func(ctx context.Context, cfg sim.Config) (sim.Metrics, error)

// RunSim is the production SimFunc: build the system, run it, collect.
// Configs with a sampling spec dispatch to the interval-sampling
// executor instead of a contiguous detailed run.
func RunSim(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
	if cfg.Sampling != nil {
		return sampling.Run(ctx, cfg)
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return sim.Metrics{}, err
	}
	return sys.RunContext(ctx)
}

// Options configures an Engine.
type Options struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Timeout bounds each job's wall-clock time; 0 means none.
	Timeout time.Duration
	// Cache, if non-nil, persists results keyed by job key. RunCache is
	// the local-disk implementation; cluster workers plug in the shared
	// artifact store here instead.
	Cache ResultCache
	// Progress, if non-nil, is called once per finished job. Calls are
	// serialized by the engine; the callback may write to shared sinks
	// without further locking.
	Progress func(Result)
	// Observer, if non-nil, receives per-job lifecycle events
	// (queued -> running -> done/failed, with timestamps). Calls are
	// serialized with each other and with Progress; see Observer.
	Observer Observer
	// Sim overrides the simulation function: WarmRunSim for warm-start
	// sweeps, instrumented fakes in tests. Nil means RunSim.
	Sim SimFunc
}

// Engine schedules simulation jobs over a bounded worker pool.
type Engine struct {
	opt        Options
	progressMu sync.Mutex
	sims       atomic.Uint64
}

// New returns an engine with the given options.
func New(opt Options) *Engine {
	if opt.Parallel <= 0 {
		opt.Parallel = runtime.GOMAXPROCS(0)
	}
	if opt.Sim == nil {
		opt.Sim = RunSim
	}
	return &Engine{opt: opt}
}

// SimsExecuted reports how many simulations this engine actually
// launched — cache hits and jobs cancelled before dispatch excluded.
// The cluster's zero-duplicate-work guarantee is asserted against this
// counter: over a fleet of workers the per-key sum must never exceed
// one for any completed sweep.
func (e *Engine) SimsExecuted() uint64 { return e.sims.Load() }

// Run executes jobs over the worker pool and returns one Result per job,
// in submission order. Jobs sharing a key execute once and share the
// Result. Per-job failures (simulation error, panic, timeout) are
// reported in the job's Result; Run's own error is non-nil only when ctx
// was cancelled, in which case jobs that never started carry ctx's error.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	// Dedupe by key; the first occurrence runs, later ones share.
	uniqIdx := make(map[string]int, len(jobs)) // key -> index into uniq
	var uniqJobs []Job
	for _, j := range jobs {
		if _, ok := uniqIdx[j.Key]; !ok {
			uniqIdx[j.Key] = len(uniqJobs)
			uniqJobs = append(uniqJobs, j)
		}
	}

	for _, j := range uniqJobs {
		e.notify(JobEvent{Job: j, State: JobStateQueued, At: time.Now()})
	}

	uniq := make([]Result, len(uniqJobs))
	feed := make(chan int)
	var wg sync.WaitGroup
	workers := e.opt.Parallel
	if workers > len(uniqJobs) {
		workers = len(uniqJobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				uniq[i] = e.execute(ctx, uniqJobs[i])
				if e.opt.Progress != nil {
					e.progressMu.Lock()
					e.opt.Progress(uniq[i])
					e.progressMu.Unlock()
				}
			}
		}()
	}
feeding:
	for i := range uniqJobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			break feeding
		}
	}
	close(feed)
	wg.Wait()

	// Jobs the cancelled feed never dispatched report the context error
	// (and close their lifecycle with a Failed event).
	for i := range uniq {
		if uniq[i].Key == "" {
			j := uniqJobs[i]
			uniq[i] = Result{Key: j.Key, Name: j.Name,
				Err: fmt.Errorf("engine: %s: not run: %w", j.label(), ctx.Err())}
			e.notify(JobEvent{Job: j, State: JobStateFailed, At: time.Now(), Result: &uniq[i]})
		}
	}

	out := make([]Result, len(jobs))
	for i, j := range jobs {
		out[i] = uniq[uniqIdx[j.Key]]
	}
	return out, ctx.Err()
}

// runJob executes one job: disk-cache probe, simulate, store. A panic in
// the simulation becomes the job's error.
func (e *Engine) runJob(ctx context.Context, j Job) (res Result) {
	res.Key, res.Name = j.Key, j.Name
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("engine: %s: simulation panicked: %v\n%s",
				j.label(), p, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("engine: %s: not run: %w", j.label(), err)
		return res
	}

	cacheable := e.opt.Cache != nil && !j.Uncacheable
	if cacheable {
		// Load errors (corrupt or torn entries) degrade to misses.
		if m, ok, err := e.opt.Cache.Load(j.Key); err == nil && ok {
			res.Metrics, res.Cached = m, true
			return res
		}
	}

	runCtx := ctx
	if e.opt.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, e.opt.Timeout)
		defer cancel()
	}
	e.sims.Add(1)
	m, err := e.opt.Sim(runCtx, j.Config)
	if err != nil {
		res.Err = fmt.Errorf("engine: %s: %w", j.label(), err)
		return res
	}
	res.Metrics = m
	if cacheable {
		res.CacheErr = e.opt.Cache.Store(j.Key, m)
	}
	return res
}
