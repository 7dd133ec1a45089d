# Tier-1 flow: `make ci` is what a reviewer runs before merging.
#
#   build  compile every package and command
#   vet    static checks
#   test   full unit suite
#   race   race-detector pass over the packages the parallel engine
#          drives (engine, experiments, the HTTP service, and the
#          sim/trace/tracefile paths its workers execute concurrently)
#   bench  paper-artifact benchmarks (quick windows)
#   bench-json
#          hot-path component benchmarks -> BENCH_10.json (ns/op, B/op,
#          allocs/op per benchmark, diffed against the recorded
#          pre-optimization baseline; includes the cold/warm sweep pair,
#          the trace generator/replay trio, the full-vs-sampled run
#          pair whose ns/op ratio is the sampling speedup, and the
#          hybrid DRAM hit/migration pair)
#   bench-check
#          CI perf gate: re-run the tracked benchmarks and fail on a
#          >10% ns/op or any allocs/op regression vs BENCH_10.json
#   profile
#          CPU+heap profile of a representative experiment pass
#          (cpu.prof / mem.prof; inspect with `go tool pprof`)
#   ci     build + vet + test + race
#
# serve-smoke boots rrmserve on a scratch port, pushes one quick job
# through the full HTTP path (submit -> stream -> result -> metrics)
# and fails unless the result comes back 200.
#
# replay-smoke exports a synthetic workload as trace files and fails
# unless replaying them yields byte-identical metrics to the generator.
#
# sample-smoke runs one steady-state configuration in full and sampled
# (8 windows, stride-16 fast-forward) and fails unless the sampled 95%
# interval contains the full-run IPC and the sampled run is faster.
#
# cluster-smoke boots a coordinator and two workers as real processes,
# SIGKILLs one worker mid-flight and fails unless every job completes
# with zero duplicate simulations. cluster-load runs the acceptance
# load harness (100k submissions through a 4-worker cluster, p99 gate).

GO ?= go

.PHONY: build vet test race bench bench-json bench-check profile ci serve-smoke replay-smoke sample-smoke cluster-smoke cluster-load

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/cluster/... ./internal/dram/... ./internal/engine/... ./internal/experiments/... ./internal/reliability/... ./internal/sampling/... ./internal/server/... ./internal/sim/... ./internal/stats/... ./internal/trace/... ./internal/tracefile/...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

bench-json:
	GO="$(GO)" ./scripts/bench_json.sh BENCH_10.json

bench-check:
	GO="$(GO)" ./scripts/bench_check.sh

profile:
	$(GO) run ./cmd/experiments -quick -run table7 -warm-start \
		-cpuprofile cpu.prof -memprofile mem.prof -o /dev/null
	@echo "wrote cpu.prof / mem.prof; inspect with: $(GO) tool pprof cpu.prof"

serve-smoke:
	./scripts/serve_smoke.sh

replay-smoke:
	GO="$(GO)" ./scripts/replay_smoke.sh

sample-smoke:
	GO="$(GO)" ./scripts/sample_smoke.sh

cluster-smoke:
	GO="$(GO)" ./scripts/cluster_smoke.sh

cluster-load:
	GO="$(GO)" ./scripts/cluster_load.sh

ci: build vet test race
