// Command perfbench is the repository benchmark. It runs one simulator
// workload again and again for a fixed host time, each operation in a
// fresh child process, checks every simulated result, and prints the
// metrics BENCHMARK.json names as the last line of its output:
//
//	bash perfbench/run.sh --workload detailed-static7-mcf --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it alternates untraced and CPU-profiled operations and
// reports the per-layer metrics instead. README.md describes the
// workloads, metrics and checks.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rrmpcm/internal/buildinfo"
)

// defaultSeed is the seed whose result digests are recorded in
// digests.go; other seeds are checked for repeatability only.
const defaultSeed = 1

// hardLimit bounds one benchmark run: no operation starts, or keeps
// running, past it.
const hardLimit = 170 * time.Second

// metric is one reported metric.
type metric struct {
	name, unit string
}

// endToEnd are the untraced run's metrics.
var endToEnd = []metric{
	{"sim_minsts_per_s", "Minst/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// spanNames are the spans the benchmark records around its own calls.
var spanNames = []string{
	"sim.setup_s", "sim.warmup_s", "sim.measure_s", "sampling.run_s",
	"experiments.setup_s", "experiments.run_s", "experiments.assemble_s",
}

// countMetrics are the per-operation counts: engine and runtime
// counters, then the deterministic simulated results.
var countMetrics = []metric{
	{"engine.jobs", "count"},
	{"engine.parallel_eff", "ratio"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cpu_pct", "%"},
	{"cpu.ipc", "inst/cycle"},
	{"cpu.insts", "count"},
	{"cache.llc_mpki", "miss/kinst"},
	{"cache.llc_mpki_err_pct", "%"},
	{"core.registrations", "count"},
	{"core.reg_hit_ratio", "ratio"},
	{"core.short_write_frac", "ratio"},
	{"core.fast_refreshes", "count"},
	{"core.slow_refreshes", "count"},
	{"core.hot_entries", "count"},
	{"core.refresh_backlog_max", "count"},
	{"memctrl.reads", "count"},
	{"memctrl.writes", "count"},
	{"memctrl.refreshes", "count"},
	{"memctrl.avg_read_latency_ns", "ns"},
	{"memctrl.row_hit_rate", "ratio"},
	{"memctrl.write_pauses", "count"},
	{"pcm.wear_total_rate", "writes/s"},
	{"pcm.lifetime_years", "years"},
	{"pcm.retention_violations", "count"},
	{"sampling.coverage", "ratio"},
	{"sampling.ipc_ci_halfwidth_pct", "%"},
	{"experiments.rrm_vs_static7_pct", "%"},
	{"experiments.gap_bridged_pct", "%"},
}

// perLayer lists the traced run's metrics in report order.
func perLayer() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{l + ".self_pct", "%"})
	}
	for _, s := range spanNames {
		out = append(out, metric{s, "s"})
	}
	out = append(out, countMetrics...)
	return append(out, metric{"bench.trace_overhead_pct", "%"})
}

func main() {
	workloadFlag := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to keep starting operations")
	traceFlag := flag.Int("trace", 0, "1 = traced run: report per-layer metrics")
	op := flag.Bool("op", false, "run one operation in this process and print its result (used by the benchmark itself)")
	cpuProfile := flag.String("cpuprofile", "", "with -op, profile the operation into this file")
	flag.Parse()

	w, ok := workloadByName(*workloadFlag)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *op {
		if err := runChild(w, *seed, *cpuProfile); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runBench(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// opProcs is the number of cores an operation uses: its GOMAXPROCS and
// the artifact runner's workers. On a small shared host a second busy
// core makes an operation's time depend on how the host schedules both,
// which varies from minute to minute; one core keeps runs comparable.
const opProcs = 1

// runChild runs one operation and prints its result as JSON.
func runChild(w workload, seed uint64, profile string) error {
	runtime.GOMAXPROCS(opProcs)
	var sp *spans
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		sp = &spans{d: map[string]float64{}}
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, used0 := cpuSeconds()

	r := w.run(context.Background(), seed, sp)

	gc1, used1 := cpuSeconds()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	if profile != "" {
		pprof.StopCPUProfile()
		r.Spans = sp.d
	}
	r.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	r.AllocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if used1 > used0 {
		r.GCCPUPct = 100 * (gc1 - gc0) / (used1 - used0)
	}
	if r.Err == "" && r.again != nil {
		spent := 0.0
		for _, s := range r.Setups {
			spent += s
		}
		for len(r.Setups) < setupMin || spent < setupBudget {
			start := time.Now()
			if err := r.again(); err != nil {
				r.failf("repeated set-up: %v", err)
				break
			}
			d := time.Since(start).Seconds()
			r.Setups = append(r.Setups, d)
			spent += d
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// Each operation times its own set-up and then repeats it, after its
// result is in hand, until it has at least setupMin samples and has
// spent setupBudget seconds on them: setup_s is a median over many
// millisecond-scale samples, taken over long enough that a short stall
// of the host does not decide it.
const (
	setupMin    = 5
	setupBudget = 0.5
)

// cpuSeconds returns the CPU time the Go runtime spent on GC and the
// CPU time the process used, in seconds. Mark work done by otherwise
// idle Ps is in neither: it takes no time from the program.
func cpuSeconds() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	markIdle := s[1].Value.Float64()
	return s[0].Value.Float64() - markIdle, s[2].Value.Float64() - s[3].Value.Float64() - markIdle
}

// spans records the host time of named calls; a nil *spans records
// nothing.
type spans struct{ d map[string]float64 }

func (s *spans) start(name string) (end func()) {
	if s == nil {
		return func() {}
	}
	t := time.Now()
	return func() { s.d[name] += time.Since(t).Seconds() }
}

// op is one operation as the parent saw it.
type op struct {
	opResult
	traced  bool
	profile string
}

// runBench runs operations for the given host time and prints the
// result line.
func runBench(w workload, seed uint64, seconds time.Duration, traced bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	outDir := filepath.Join(filepath.Dir(exe), "trace")
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	host := fingerprint()
	fmt.Printf("host: %s\n", host)

	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(hardLimit))
	defer cancel()
	var ops []op
	// Another round starts only if it would end no more than half a
	// round past the deadline, so a run lasts about `seconds` on
	// average whatever the operation length.
	var round time.Duration
	for i := 0; i == 0 || time.Since(start)+round/2 < seconds; i++ {
		roundStart := time.Now()
		ops = append(ops, runOp(ctx, exe, w, seed, ""))
		if traced {
			prof := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-op%d.pprof", w.name, seed, i))
			ops = append(ops, runOp(ctx, exe, w, seed, prof))
		}
		if ctx.Err() != nil {
			break
		}
		round = time.Since(roundStart)
	}
	checkDigests(ops, w.name, seed)

	failed := 0
	for i, o := range ops {
		status := "ok"
		if o.Err != "" {
			failed++
			status = "FAILED: " + o.Err
		}
		fmt.Printf("op %d traced=%v wall=%.4fs rate=%.3fMinst/s rss=%.1fMiB digest=%s %s\n",
			i, o.traced, o.WallSecs, o.minstsPerSec(), o.PeakRSSMiB, o.Digest, status)
	}

	var values map[string]float64
	var list []metric
	if traced {
		list = perLayer()
		values, err = layerValues(ops, w)
		if err != nil {
			return err
		}
		if err := writeTrace(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), host, ops, values); err != nil {
			return err
		}
	} else {
		list = endToEnd
		values = endToEndValues(ops)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, len(ops), failed, map[string]value{}}
	for _, m := range list {
		v := values[m.name]
		out.Metrics[m.name] = value{v, m.unit}
		fmt.Printf("%-32s %14.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOp runs one operation in a child process; a profile path makes it
// a traced operation.
func runOp(ctx context.Context, exe string, w workload, seed uint64, profile string) op {
	o := op{traced: profile != "", profile: profile}
	args := []string{"-op", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		o.Err = fmt.Sprintf("operation process: %v", err)
		return o
	}
	if err := json.Unmarshal(lastLine(stdout), &o.opResult); err != nil {
		o.Err = fmt.Sprintf("operation result: %v", err)
	}
	return o
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// checkDigests fails every operation whose result differs from the
// reference: the recorded digest for the default seed, otherwise the
// first successful operation's (so repeated and traced runs must agree).
func checkDigests(ops []op, workload string, seed uint64) {
	want := ""
	if seed == defaultSeed {
		want = recordedDigests[workload]
	}
	for i := range ops {
		o := &ops[i]
		if o.Err != "" {
			continue
		}
		if want == "" {
			want = o.Digest
		}
		if o.Digest != want {
			o.failf("result digest %.16s differs from the reference %.16s", o.Digest, want)
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// collect returns f over the successful operations of one kind.
func collect(ops []op, traced bool, f func(op) []float64) []float64 {
	var out []float64
	for _, o := range ops {
		if o.Err == "" && o.traced == traced {
			out = append(out, f(o)...)
		}
	}
	return out
}

func one(f func(op) float64) func(op) []float64 {
	return func(o op) []float64 { return []float64{f(o)} }
}

// endToEndValues takes the median of each end-to-end metric over the
// untraced operations, each computed from that operation alone.
func endToEndValues(ops []op) map[string]float64 {
	return map[string]float64{
		"sim_minsts_per_s": median(collect(ops, false, one(func(o op) float64 { return o.minstsPerSec() }))),
		"wall_s":           median(collect(ops, false, one(func(o op) float64 { return o.WallSecs }))),
		"setup_s":          median(collect(ops, false, func(o op) []float64 { return o.Setups })),
		"peak_rss_mib":     median(collect(ops, false, one(func(o op) float64 { return o.PeakRSSMiB }))),
	}
}

// layerValues folds the traced operations' CPU profiles and takes the
// median of every other per-layer metric over them.
func layerValues(ops []op, w workload) (map[string]float64, error) {
	var samples []stack
	for _, o := range ops {
		if o.Err != "" || !o.traced {
			continue
		}
		s, err := readProfile(o.profile)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
	}
	out := map[string]float64{}
	for l, share := range foldShares(samples) {
		out[l+".self_pct"] = share
	}
	for _, name := range spanNames {
		out[name] = median(collect(ops, true, one(func(o op) float64 { return o.Spans[name] })))
	}
	out[w.setupSpan] = median(collect(ops, true, func(o op) []float64 { return o.Setups }))
	for _, m := range countMetrics {
		out[m.name] = median(collect(ops, true, one(func(o op) float64 { return o.Counts[m.name] })))
	}
	out["runtime.alloc_mib"] = median(collect(ops, true, one(func(o op) float64 { return o.AllocMiB })))
	out["runtime.gc_cpu_pct"] = median(collect(ops, true, one(func(o op) float64 { return o.GCCPUPct })))
	plain := median(collect(ops, false, one(func(o op) float64 { return o.WallSecs })))
	if tr := median(collect(ops, true, one(func(o op) float64 { return o.WallSecs }))); plain > 0 && tr > 0 {
		out["bench.trace_overhead_pct"] = 100 * (tr/plain - 1)
	}
	return out, nil
}

// writeTrace keeps a traced run's detail beside the benchmark binary:
// the host, every operation with its spans, and the per-layer values.
func writeTrace(path, host string, ops []op, values map[string]float64) error {
	type opDoc struct {
		Traced bool `json:"traced"`
		opResult
	}
	doc := struct {
		Host   string             `json:"host"`
		Ops    []opDoc            `json:"ops"`
		Values map[string]float64 `json:"values"`
	}{Host: host, Values: values}
	for _, o := range ops {
		doc.Ops = append(doc.Ops, opDoc{o.traced, o.opResult})
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// fingerprint names the host and build a result came from, so results
// from different machines are never compared silently.
func fingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		model, runtime.NumCPU(), opProcs, runtime.Version(), buildinfo.Version())
}
