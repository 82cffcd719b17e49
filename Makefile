# CI and local development invoke the same targets; keep ci.yml and
# this file in sync.

GO ?= go

.PHONY: all build test race bench bench-compare fuzz-script lint fmt-check vet serve serve-http serve-cluster reload-smoke soak slo-smoke profile clean

all: build lint test

# perfbench/ is a separate module (replace repro => ../), so ./...
# never reaches it; build and vet it explicitly so an API change that
# breaks the benchmark fails here, not only in `bash perfbench/run.sh`.
build:
	$(GO) build ./...
	$(GO) -C perfbench build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: a smoke pass that catches compile and
# runtime breakage in benchmark code without CI-length runs.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Differential fuzz: the compiled VM must agree with the tree-walking
# interpreter (the semantic spec) on every input — result values,
# error classes, and step counts alike. CI runs this as a short smoke;
# raise FUZZTIME locally when touching the compiler or VM.
FUZZTIME ?= 10s
fuzz-script:
	$(GO) test ./internal/script -run '^FuzzCompileMatchesEval$$' \
		-fuzz '^FuzzCompileMatchesEval$$' -fuzztime $(FUZZTIME)

lint: fmt-check vet

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

# Regenerate BENCH_engine.json with the default load (8 sessions).
serve:
	$(GO) run ./cmd/escudo-serve

# Same load plus the client/server split: origins mounted on a real
# HTTP gateway over loopback (TLS + ALPN, so the wire speaks h2),
# workloads and the §6.4 attack corpus replayed over sockets, http
# section added to BENCH_engine.json. -procs-bench re-runs figure4 at
# GOMAXPROCS=4 so the report carries serial and parallel numbers.
serve-http:
	$(GO) run ./cmd/escudo-serve -http 127.0.0.1:0 -tls -procs-bench 4

# Multi-process deployment: fork/exec one serve-only gateway process
# (TLS-terminating, ephemeral in-memory CA) plus CLUSTER_WORKERS
# loadgen worker processes, replay figure-4 and the §6.4 corpus over
# https across the process boundary, and merge the shards into the
# cluster section of BENCH_engine.json (other sections preserved).
CLUSTER_WORKERS ?= 2
serve-cluster:
	$(GO) run ./cmd/escudo-serve -cluster $(CLUSTER_WORKERS) -tls

# Policy hot-reload smoke: mount TENANTS stamped tenant origins plus a
# hot origin on a dedicated gateway, push a live policy flip mid-load
# (the invalidation storm), and measure push ack, watcher propagation,
# cache refill, and the throughput dip — then the noisy-neighbor
# isolation probe. CI gates on the control section: no page load may
# mix policy generations, the refill must be recorded, and the §6.4
# corpus must stay 18/18 on both sides of the flip.
TENANTS ?= 1024
reload-smoke:
	$(GO) run ./cmd/escudo-serve -sessions 4 -iters 2 -phpbb-iters 2 -mixed-iters 2 \
		-script-iters 0 -control -tenants $(TENANTS) -out BENCH_engine.control.json

# Leak-hunting soak: SOAK seconds of mixed load through the loopback
# gateway under the race detector, with the runtime sampler recording
# goroutine/heap shape every 200ms into the report's obs section. CI
# gates on the sampler's verdicts: goroutines must return to a fixed
# band of the post-warmup count, and the soak window's least-squares
# leak watch (obs.leak) must not suspect a leak.
SOAK ?= 30s
soak:
	$(GO) run -race ./cmd/escudo-serve -sessions 4 -iters 1 -phpbb-iters 2 -mixed-iters 2 \
		-attacks=false -http 127.0.0.1:0 -soak $(SOAK) -out BENCH_engine.soak.json

# Open-loop SLO smoke: SLO_DURATION of seeded Poisson arrivals with
# login/logout churn against the loopback gateway, no coordinated
# omission. Deliberately NOT under -race — the race detector inflates
# latency ~10x, which would make the p99 budget and the leak window
# meaningless. CI jq-gates the slo section of the report (leak verdict
# clean, p99 within budget) and runs the escudo-compare SLO gate.
SLO_RATE ?= 200
SLO_DURATION ?= 30s
SLO_CHURN ?= 20
SLO_P99_MS ?= 250
slo-smoke:
	$(GO) run ./cmd/escudo-serve -sessions 4 -iters 1 -phpbb-iters 1 -mixed-iters 1 \
		-script-iters 0 -attacks=false -http 127.0.0.1:0 \
		-openloop rate=$(SLO_RATE),duration=$(SLO_DURATION),churn=$(SLO_CHURN),p99=$(SLO_P99_MS) \
		-out BENCH_engine.slo.json

# Run the driver fresh and print phase-by-phase p50/p99 deltas against
# the committed BENCH_engine.json. Override NEW_BENCH/OLD_BENCH to
# compare arbitrary reports.
OLD_BENCH ?= BENCH_engine.json
NEW_BENCH ?= BENCH_engine.new.json
bench-compare:
	$(GO) run ./cmd/escudo-serve -procs 4 -out $(NEW_BENCH)
	$(GO) run ./cmd/escudo-compare $(OLD_BENCH) $(NEW_BENCH)

# Profile the full run: CPU and heap profiles of the serve-http
# workload land in profiles/ for `go tool pprof`. The gateway also
# exposes live /debug/pprof on its admin host via -pprof.
PROFILE_DIR ?= profiles
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/escudo-serve -http 127.0.0.1:0 -tls -pprof \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof -memprofile $(PROFILE_DIR)/heap.pprof \
		-out $(PROFILE_DIR)/BENCH_profile.json
	@echo "profiles written: $(PROFILE_DIR)/cpu.pprof $(PROFILE_DIR)/heap.pprof"
	@echo "inspect with: $(GO) tool pprof $(PROFILE_DIR)/cpu.pprof"

clean:
	$(GO) clean ./...
	rm -f BENCH_engine.new.json BENCH_engine.soak.json BENCH_engine.control.json BENCH_engine.slo.json
	rm -rf profiles
