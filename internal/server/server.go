// Package server is the HTTP/JSON simulation service: it accepts RRM
// simulation jobs (full sim.Config documents or named scheme/workload
// shorthand), runs them on the internal/engine worker substrate, and
// serves status, results, streaming progress and Prometheus metrics.
//
// Design points, in the order they matter:
//
//   - Idempotency. A job's identity is the engine's config hash.
//     Resubmitting an identical config returns the existing job (or its
//     finished result) instead of running a second simulation, and a
//     submission whose result already sits in the disk run cache
//     completes instantly without touching the queue. The CLI tools,
//     the disk cache and the service therefore all agree on what "the
//     same run" means.
//
//   - Backpressure. The job queue is a bounded channel. When it is
//     full, submissions are rejected with HTTP 429 and a Retry-After
//     hint rather than queued without limit; the queue depth and the
//     rejection count are exported at /metrics.
//
//   - Observability. Engine lifecycle hooks (queued -> running ->
//     done/failed) feed both the Prometheus counters and the per-job
//     progress streams (SSE or NDJSON), so a client can follow a run
//     live with nothing but curl.
//
//   - Graceful shutdown. Shutdown stops intake (503), lets in-flight
//     and queued jobs drain, and — if its context expires first —
//     aborts the running simulations through the engine's context,
//     which sim.System.RunContext honors between event-queue slices.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rrmpcm/internal/buildinfo"
	"rrmpcm/internal/engine"
	"rrmpcm/internal/experiments"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/trace"
)

// Options configures a Server.
type Options struct {
	// QueueSize bounds the job queue; <= 0 means 64. Submissions
	// arriving on a full queue get 429.
	QueueSize int
	// Workers is the number of concurrent simulations; <= 0 means
	// GOMAXPROCS.
	Workers int
	// CacheDir, if non-empty, enables the disk run cache: results
	// persist there keyed by config hash and identical submissions
	// (even across restarts) are served from it.
	CacheDir string
	// JobTimeout bounds each simulation's wall clock (0 = none).
	JobTimeout time.Duration
	// RequestTimeout bounds non-streaming request handling; <= 0 means
	// 30 s. Progress streams are exempt (they are long-lived by
	// design and end with the job or the client).
	RequestTimeout time.Duration
	// WarmStart shares simulation warmup across jobs whose configs have
	// the same warmup-relevant prefix (engine.WarmRunSim). With CacheDir
	// set, snapshots also persist to disk under CacheDir/snapshots.
	WarmStart bool
	// Cache, if non-nil, overrides CacheDir as the finished-run store.
	// Cluster workers inject the shared artifact store here so any
	// worker serves any result computed anywhere.
	Cache engine.ResultCache
	// Snapshots, if non-nil, overrides the warm-start snapshot store the
	// same way (shared warm prefixes across workers). Only consulted
	// when WarmStart is set.
	Snapshots engine.SnapshotStore
	// Sim overrides the simulation function (tests only).
	Sim engine.SimFunc
	// TraceDir, if non-empty, enables tenant trace replay: tenant
	// submissions may reference recorded trace files by paths relative
	// to (and confined under) this directory. Empty disables trace
	// tenants; profile tenants work regardless.
	TraceDir string
}

// Server is the simulation service. Create with New, serve via
// Handler, stop with Shutdown.
type Server struct {
	opt   Options
	eng   *engine.Engine
	cache engine.ResultCache
	met   *serverMetrics
	mux   http.Handler
	start time.Time

	// notReady is the readiness latch (see SetReady): while set,
	// /healthz answers 503 so load balancers and the cluster coordinator
	// stop routing here, without affecting liveness (/livez) or the jobs
	// already in flight.
	notReady atomic.Bool

	lifeCtx    context.Context // cancelled to abort in-flight sims
	lifeCancel context.CancelFunc
	workerWG   sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*jobRecord
	order  []string // submission order, for listing
	queue  chan *jobRecord
	closed bool
}

// New builds the service and starts its worker pool.
func New(opt Options) (*Server, error) {
	if opt.QueueSize <= 0 {
		opt.QueueSize = 64
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 30 * time.Second
	}
	s := &Server{
		opt:   opt,
		met:   newServerMetrics(),
		start: time.Now(),
		jobs:  map[string]*jobRecord{},
		queue: make(chan *jobRecord, opt.QueueSize),
	}
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())

	eopt := engine.Options{
		Timeout:  opt.JobTimeout,
		Observer: s.met,
		Sim:      opt.Sim,
	}
	switch {
	case opt.Cache != nil:
		s.cache = opt.Cache
		eopt.Cache = opt.Cache
	case opt.CacheDir != "":
		c, err := engine.OpenRunCache(opt.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.cache = c
		eopt.Cache = c
	}
	if opt.WarmStart && eopt.Sim == nil {
		store := opt.Snapshots
		if store == nil {
			store = engine.NewMemSnapshotStore()
			if opt.CacheDir != "" {
				c, err := engine.OpenSnapshotCache(filepath.Join(opt.CacheDir, "snapshots"))
				if err != nil {
					return nil, fmt.Errorf("server: %w", err)
				}
				store = c
			}
		}
		eopt.Sim = engine.WarmRunSim(store)
	}
	s.eng = engine.New(eopt)
	s.mux = s.routes()

	for i := 0; i < opt.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops intake, drains queued and in-flight jobs, and returns
// when the workers have exited. If ctx expires first, the running
// simulations are cancelled (through sim.System.RunContext) and
// Shutdown returns ctx's error after they unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.lifeCancel()
		<-done
		return ctx.Err()
	}
}

// worker executes queued jobs until the queue closes. Cancellation of
// a drain-deadline overrun arrives through lifeCtx inside Execute.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for rec := range s.queue {
		rec.transition(engine.JobStateRunning, nil, time.Now())
		res := s.eng.Execute(s.lifeCtx, rec.ejob)
		state := engine.JobStateDone
		if res.Err != nil {
			state = engine.JobStateFailed
		}
		rec.transition(state, &res, time.Now())
	}
}

// routes assembles the Go 1.22 pattern mux. Non-streaming handlers are
// wrapped in the request timeout.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	timed := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, s.opt.RequestTimeout, `{"error":"request timed out"}`)
	}
	mux.Handle("POST /api/v1/jobs", timed(s.handleSubmit))
	mux.Handle("GET /api/v1/jobs", timed(s.handleList))
	mux.Handle("GET /api/v1/jobs/{id}", timed(s.handleStatus))
	mux.Handle("GET /api/v1/jobs/{id}/result", timed(s.handleResult))
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleStream) // long-lived: no timeout
	mux.Handle("GET /api/v1/workloads", timed(s.handleWorkloads))
	mux.Handle("GET /api/v1/schemes", timed(s.handleSchemes))
	mux.Handle("GET /metrics", timed(s.handleMetrics))
	mux.Handle("GET /healthz", timed(s.handleHealthz))
	mux.Handle("GET /livez", timed(s.handleLivez))
	return mux
}

// SetReady flips the readiness latch. A worker that has deregistered
// from its coordinator (or is otherwise draining) calls SetReady(false)
// so /healthz starts answering 503 while /livez keeps reporting the
// process alive; in-flight and queued jobs are unaffected.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports the readiness latch (true) unless the server is also
// draining, which is unready by definition.
func (s *Server) Ready() bool {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	return !draining && !s.notReady.Load()
}

// QueueDepth reports how many jobs are waiting in the bounded queue.
func (s *Server) QueueDepth() int { return len(s.queue) }

// SimsExecuted reports how many simulations this server's engine
// actually launched (cache hits excluded) — the counter the cluster's
// zero-duplicate-work assertions sum across workers.
func (s *Server) SimsExecuted() uint64 { return s.eng.SimsExecuted() }

// SubmitRequest is the POST /api/v1/jobs body. Either Config carries a
// full sim.Config document, or Scheme+Workload name a run built with
// the experiment suite's defaults (Quick selects the reduced windows,
// Seed overrides the pass seed).
type SubmitRequest struct {
	Scheme   string `json:"scheme,omitempty"`
	Workload string `json:"workload,omitempty"`
	Quick    bool   `json:"quick,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// Label is cosmetic: it prefixes the job's display name.
	Label  string      `json:"label,omitempty"`
	Config *sim.Config `json:"config,omitempty"`
	// Tenants, with Scheme, submits a multi-tenant run: one stream per
	// entry (trace replay or synthetic profile), with per-tenant
	// attribution in the result's metrics. Mutually exclusive with
	// Workload and Config.
	Tenants []TenantStream `json:"tenants,omitempty"`
	// Sampling, when set, runs the submission as a SMARTS-style sampled
	// simulation (see sim.SamplingSpec); the result's metrics carry
	// confidence intervals. A sampled submission hashes to a different
	// job key than the full run of the same config, so the two never
	// collide in the run cache or the cluster's dedup index.
	Sampling *sim.SamplingSpec `json:"sampling,omitempty"`
}

// JobStatus is the wire representation of one job.
type JobStatus struct {
	ID          string     `json:"id"`
	Name        string     `json:"name"`
	Scheme      string     `json:"scheme"`
	Workload    string     `json:"workload"`
	State       string     `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Cached      bool       `json:"cached,omitempty"`
	WallSeconds float64    `json:"wall_seconds,omitempty"`
	Error       string     `json:"error,omitempty"`
}

// SubmitResponse is JobStatus plus whether this submission created the
// job (false: idempotency hit on a live job or the disk cache).
type SubmitResponse struct {
	JobStatus
	Created bool `json:"created"`
}

// JobResult is the GET .../result envelope.
type JobResult struct {
	ID          string      `json:"id"`
	Name        string      `json:"name,omitempty"`
	Cached      bool        `json:"cached"`
	WallSeconds float64     `json:"wall_seconds"`
	Metrics     sim.Metrics `json:"metrics"`
}

// BuildJob resolves a submission into the engine job it denotes —
// validated config, config-hash key, display name. The cluster
// coordinator calls this to learn a submission's identity (and thereby
// its owning worker) without running anything; the worker it routes to
// resolves the same bytes to the same job, so the two tiers can never
// disagree about what a submission means.
func BuildJob(req SubmitRequest) (engine.Job, error) {
	return BuildJobIn("", req)
}

// BuildJobIn is BuildJob with a trace directory: tenant submissions
// that reference trace files resolve them relative to traceDir (empty
// rejects trace tenants, which is how a coordinator without local
// trace files behaves — profile tenants still work).
func BuildJobIn(traceDir string, req SubmitRequest) (engine.Job, error) {
	cfg, err := buildConfig(traceDir, req)
	if err != nil {
		return engine.Job{}, err
	}
	if req.Sampling != nil {
		if cfg.Sampling != nil {
			return engine.Job{}, fmt.Errorf("sampling is specified both at the top level and inside config")
		}
		cfg.Sampling = req.Sampling
		if err := cfg.Validate(); err != nil {
			return engine.Job{}, err
		}
	}
	return experiments.NewJob(cfg, req.Label)
}

// buildConfig resolves a submission into a validated run config.
func buildConfig(traceDir string, req SubmitRequest) (sim.Config, error) {
	if req.Config != nil {
		if req.Scheme != "" || req.Workload != "" || len(req.Tenants) > 0 {
			return sim.Config{}, fmt.Errorf("config and scheme/workload/tenants shorthand are mutually exclusive")
		}
		cfg := *req.Config
		if err := cfg.Validate(); err != nil {
			return sim.Config{}, err
		}
		return cfg, nil
	}
	if len(req.Tenants) > 0 {
		if req.Workload != "" {
			return sim.Config{}, fmt.Errorf("tenants and workload are mutually exclusive")
		}
		if req.Scheme == "" {
			return sim.Config{}, fmt.Errorf("tenant submissions need a scheme")
		}
		scheme, err := experiments.ParseScheme(req.Scheme)
		if err != nil {
			return sim.Config{}, err
		}
		w, err := tenantWorkload(traceDir, req.Tenants)
		if err != nil {
			return sim.Config{}, err
		}
		opt := experiments.Options{Quick: req.Quick, Seed: req.Seed}
		cfg := opt.SimConfig(scheme, w)
		if err := cfg.Validate(); err != nil {
			return sim.Config{}, err
		}
		return cfg, nil
	}
	if req.Scheme == "" || req.Workload == "" {
		return sim.Config{}, fmt.Errorf("need either config, scheme+workload, or scheme+tenants")
	}
	scheme, err := experiments.ParseScheme(req.Scheme)
	if err != nil {
		return sim.Config{}, err
	}
	w, err := trace.WorkloadByName(req.Workload)
	if err != nil {
		return sim.Config{}, err
	}
	opt := experiments.Options{Quick: req.Quick, Seed: req.Seed}
	return opt.SimConfig(scheme, w), nil
}

// handleSubmit implements idempotent submission with backpressure.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	ejob, err := BuildJobIn(s.opt.TraceDir, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if ejob.Uncacheable {
		// Custom policies cannot cross the wire; Validate rejects them
		// earlier, so this is pure defense in depth.
		writeError(w, http.StatusBadRequest, "custom-policy configs cannot be submitted over HTTP")
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.met.submitted.Add(1)

	if rec, ok := s.jobs[ejob.Key]; ok {
		s.mu.Unlock()
		s.met.deduped.Add(1)
		writeJSON(w, http.StatusOK, SubmitResponse{JobStatus: rec.status()})
		return
	}

	// Not live: a previous process may have finished it — serve
	// straight from the disk run cache without consuming a queue slot.
	if s.cache != nil {
		if m, ok, cerr := s.cache.Load(ejob.Key); cerr == nil && ok {
			res := engine.Result{Key: ejob.Key, Name: ejob.Name, Metrics: m, Cached: true}
			rec := completedRecord(ejob.Key, ejob, res, time.Now())
			s.jobs[ejob.Key] = rec
			s.order = append(s.order, ejob.Key)
			s.mu.Unlock()
			s.met.cacheHits.Add(1)
			s.met.done.Add(1)
			writeJSON(w, http.StatusOK, SubmitResponse{JobStatus: rec.status()})
			return
		}
	}

	rec := newJobRecord(ejob.Key, ejob, time.Now())
	select {
	case s.queue <- rec:
		s.jobs[ejob.Key] = rec
		s.order = append(s.order, ejob.Key)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, SubmitResponse{JobStatus: rec.status(), Created: true})
	default:
		s.mu.Unlock()
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d pending); retry later", s.opt.QueueSize))
	}
}

// retryAfterSeconds estimates when a queue slot should free up: the
// per-job timeout if one is set, else a small constant.
func (s *Server) retryAfterSeconds() int {
	if s.opt.JobTimeout > 0 {
		if sec := int(s.opt.JobTimeout / time.Second); sec > 0 {
			return sec
		}
	}
	return 5
}

// lookup finds a live job record.
func (s *Server) lookup(id string) (*jobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	return rec, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := make([]*jobRecord, 0, len(s.order))
	for _, id := range s.order {
		recs = append(recs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(recs))
	for i, rec := range recs {
		out[i] = rec.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rec, ok := s.lookup(id); ok {
		writeJSON(w, http.StatusOK, rec.status())
		return
	}
	// Not live, but maybe finished in an earlier process: the status
	// endpoint is backed by the disk run cache too.
	if m, ok := s.cachedMetrics(id); ok {
		writeJSON(w, http.StatusOK, JobStatus{
			ID: id, Scheme: m.Scheme, Workload: m.Workload,
			State: engine.JobStateDone.String(), Cached: true,
		})
		return
	}
	writeError(w, http.StatusNotFound, "unknown job "+id)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rec, ok := s.lookup(id); ok {
		res, terminal := rec.snapshotResult()
		switch {
		case !terminal:
			writeJSON(w, http.StatusAccepted, rec.status())
		case res.Err != nil:
			writeError(w, http.StatusInternalServerError, res.Err.Error())
		default:
			writeJSON(w, http.StatusOK, JobResult{
				ID: id, Name: res.Name, Cached: res.Cached,
				WallSeconds: res.Wall.Seconds(), Metrics: res.Metrics,
			})
		}
		return
	}
	if m, ok := s.cachedMetrics(id); ok {
		writeJSON(w, http.StatusOK, JobResult{ID: id, Cached: true, Metrics: m})
		return
	}
	writeError(w, http.StatusNotFound, "unknown job "+id)
}

// cachedMetrics probes the disk run cache for a config-hash id.
func (s *Server) cachedMetrics(id string) (sim.Metrics, bool) {
	if s.cache == nil {
		return sim.Metrics{}, false
	}
	m, ok, err := s.cache.Load(id)
	return m, err == nil && ok
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type wl struct {
		Name  string   `json:"name"`
		Cores []string `json:"cores"`
	}
	var out []wl
	for _, wk := range trace.Workloads() {
		cores := make([]string, len(wk.Cores))
		for i, p := range wk.Cores {
			cores[i] = p.Name
		}
		out = append(out, wl{Name: wk.Name, Cores: cores})
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"schemes": experiments.SchemeNames()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, len(s.queue), s.opt.QueueSize, time.Since(s.start).Seconds(), s.eng.SimsExecuted())
}

// handleHealthz is the readiness probe: 503 while draining or after
// SetReady(false) — a deregistered cluster worker — so load balancers
// and the coordinator stop routing new work here. Liveness is /livez.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.closed
	live := len(s.jobs)
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	switch {
	case draining:
		status, code = "draining", http.StatusServiceUnavailable
	case s.notReady.Load():
		status, code = "not-ready", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"version":        buildinfo.Version(),
		"build":          buildinfo.String(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"queue_depth":    len(s.queue),
		"queue_capacity": s.opt.QueueSize,
		"workers":        s.opt.Workers,
		"jobs_tracked":   live,
		"jobs_running":   s.met.running.Load(),
		"jobs_done":      s.met.done.Load(),
		"jobs_failed":    s.met.failed.Load(),
		"sims_executed":  s.eng.SimsExecuted(),
	})
}

// handleLivez is the liveness probe: 200 for as long as the process can
// answer HTTP at all, even while draining or unready. Restart-deciders
// watch this; routing-deciders watch /healthz.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "alive",
		"version":        buildinfo.Version(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
