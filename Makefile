# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench bench-json bench-relaxed bench-serve figures repro repro-quick chaos-quick examples vet fmt lint pqd pqload loadtest-quick loadtest-durable admin-smoke cluster-smoke

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# vet plus staticcheck when the host has it (CI installs it; locally
# it is optional).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, ran go vet only"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper at full scale.
repro:
	$(GO) run ./cmd/pqbench -experiment all

# Same, at a quarter of the per-processor operation count (~seconds).
repro-quick:
	$(GO) run ./cmd/pqbench -experiment all -scale 0.25

# Machine-readable benchmark suite: the standard workload for every
# algorithm with latency quantiles, internals metrics and sim totals.
bench-json:
	$(GO) run ./cmd/pqbench -json BENCH_$$(date +%Y-%m-%d).json -metrics

# Serving hot-path gate: BenchmarkServeLoopback must report zero
# allocs/op on the steady-state path and hold throughput within 10% of
# scripts/bench_serve_baseline.json.
bench-serve:
	GO="$(GO)" sh ./scripts/bench_serve.sh

# Relaxed frontier: MultiQueue throughput vs measured rank error over
# c and processor count, with FunnelTree as the exact baseline. The
# full-scale table lands in EXPERIMENTS.md; SCALE=0.25 for a quick run.
bench-relaxed:
	GO="$(GO)" sh ./scripts/bench_relaxed.sh

# Every figure plus the internals metrics report and latency histograms.
figures:
	$(GO) run ./cmd/pqbench -experiment all -scale 0.25 -plot
	$(GO) run ./cmd/pqbench -metrics -plot -scale 0.25

# Fault-injection matrix: every algorithm under stalls, module
# degradation and crash-stop, with history checking (~seconds).
chaos-quick:
	$(GO) run ./cmd/pqbench -chaos -scale 0.25

# The serving subsystem: the pqd daemon and its load generator.
pqd:
	$(GO) build -o bin/pqd ./cmd/pqd

pqload:
	$(GO) build -o bin/pqload ./cmd/pqload

# Loopback service smoke: pqd serving a sharded FunnelTree under
# pqload for 2s — clean drain, valid pq-bench/v1 JSON, observable
# admission-control shedding, graceful SIGTERM exit (~seconds).
loadtest-quick:
	GO="$(GO)" sh ./scripts/loadtest_quick.sh

# Durable vs in-memory comparison: the same pqload workload against an
# in-memory pqd and a WAL-backed one (-fsync interval), merged into one
# bench file; fails if durable throughput falls below half of memory.
loadtest-durable:
	GO="$(GO)" sh ./scripts/loadtest_durable.sh

# Admin endpoint smoke: boot pqd with -admin-addr, probe the health
# endpoints, and assert every required /metrics family is present.
admin-smoke:
	GO="$(GO)" sh ./scripts/admin_smoke.sh

# Cluster smoke: three pqd nodes sharing one cluster map under
# cluster-routed pqload — zero lost/duplicated items cluster-wide,
# valid per-node + aggregate pq-bench/v1 JSON, clean SIGTERM exits.
cluster-smoke:
	GO="$(GO)" sh ./scripts/cluster_smoke.sh

# Cluster scaling curve: the same insert burst against 1-, 2- and
# 3-node clusters of capacity-bounded nodes; fails unless the
# aggregate burst goodput increases monotonically with node count.
cluster-scaling:
	GO="$(GO)" sh ./scripts/cluster_scaling.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/scheduler
	$(GO) run ./examples/router
	$(GO) run ./examples/paperfig
	$(GO) run ./examples/hotspots
