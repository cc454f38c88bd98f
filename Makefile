# Tier-1 gate: everything a change must pass before it lands. `make check`
# fails on any file `gofmt -l .` lists, then vets, builds and runs the full
# test suite under the race detector — the concurrent device front end and
# the parallel experiment sweep (`go run ./cmd/sbsim -all -quick -parallel 4`)
# are only trustworthy race-clean. The second -race leg re-runs the
# parallel-core tests (the conservative-horizon device and the parallel
# experiment identity check) with -count=1, so they execute fresh even when
# the full-suite run above was served from the test cache; the third does so
# for the latency kernel, whose per-block tables the first goroutine to touch
# a block builds for all; the fourth, three times over, for the tests that pin
# who may write a payload buffer on the proxy's path (lent page buffers,
# queued legs, completion hooks), where a wrong answer is a race that needs the
# right interleaving to show. bench/ is a module of its own that `./...` does
# not reach; vetting and testing it here (3 s) is what notices when an API of
# client or volume that the benchmark harness compiles against has moved.

GO ?= go

# Statement-coverage floor for `make cover`, over ./internal/... (the mains
# in cmd/ and examples/ are driven by the verify recipe, not unit tests).
COVER_MIN ?= 90

SMOKE_DIR := $(shell mktemp -d 2>/dev/null || echo /tmp/superfast-smoke)

.PHONY: check build test race bench bench-compare cover smoke storm profile

check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'TestConcurrent|TestSimThroughputParallelIdentical' \
		./internal/ssd ./internal/experiments
	$(GO) test -race -count=1 ./internal/pv
	$(GO) test -race -count=3 -run 'Proxy|Queue|Hook|Lent' ./internal/volume ./internal/server/client
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
	$(MAKE) smoke
	$(MAKE) storm

# Observability smoke: the in-process HTTP exposition test (serve on an
# ephemeral port, scrape /metrics and /healthz), then a short ftlsim run
# exporting the attribution report, flight-recorder CSV and metrics dump
# through the real CLI surface. The server smoke replays the block-service
# acceptance pair: loopback trace replay matching the direct device run
# bit-for-bit, and graceful drain under load with zero dropped in-flight.
# The preemptive-GC smoke then drives a short ftlload open-loop overwrite
# burst against `ftlserve -gc-step` and checks every op succeeded and the
# server drained clean — CI exercises the stepped-GC path end to end.
# The volume smoke runs the sharded acceptance pair at the test level (a
# 3-backend sequenced replay byte-identical to the single-device run, and
# proxy drain under load), then stands up the real processes — three
# `ftlserve -seq`, one `ftlvol -seq` striping them — and replays a sequenced
# ftlload burst through the frontend, checking every op succeeded and the
# frontend drained clean on SIGINT.
smoke:
	$(GO) test -count=1 -run TestHTTPMetricsSmoke .
	$(GO) test -count=1 -run 'TestLoopbackTraceReplayMatchesDirect|TestDrainUnderLoad' ./internal/server
	$(GO) test -count=1 -run 'TestShardedReplayMatchesDirect|TestVolumeDrainUnderLoad' ./internal/volume
	$(GO) run ./cmd/ftlsim -blocks 16 -layers 16 -ops 2000 -workers 8 \
		-attr $(SMOKE_DIR)/attr.json -rec $(SMOKE_DIR)/rec.csv \
		-metrics-out $(SMOKE_DIR)/metrics.txt >/dev/null
	@for f in attr.json rec.csv metrics.txt; do \
		test -s $(SMOKE_DIR)/$$f || { echo "smoke: $$f empty or missing"; exit 1; }; \
	done
	$(GO) build -o $(SMOKE_DIR)/ftlserve ./cmd/ftlserve
	$(GO) build -o $(SMOKE_DIR)/ftlload ./cmd/ftlload
	@$(SMOKE_DIR)/ftlserve -listen 127.0.0.1:8997 -blocks 16 -layers 16 \
		-fill -gc-step 8 >$(SMOKE_DIR)/gcserve.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 100); do \
		grep -q 'block service on' $(SMOKE_DIR)/gcserve.log && break; sleep 0.1; \
	done; \
	$(SMOKE_DIR)/ftlload -addr 127.0.0.1:8997 -workload uniform \
		-ops 3000 -rate 300 >$(SMOKE_DIR)/gcload.txt 2>&1; \
	rc=$$?; \
	kill -INT $$pid; wait $$pid; \
	test $$rc -eq 0 || { echo "smoke: preemptive-GC ftlload failed"; \
		cat $(SMOKE_DIR)/gcload.txt; exit 1; }; \
	grep -q 'OK *3000' $(SMOKE_DIR)/gcload.txt || \
		{ echo "smoke: preemptive-GC load not all OK"; cat $(SMOKE_DIR)/gcload.txt; exit 1; }; \
	grep -q 'drained:' $(SMOKE_DIR)/gcserve.log || \
		{ echo "smoke: ftlserve -gc-step did not drain clean"; cat $(SMOKE_DIR)/gcserve.log; exit 1; }; \
	echo "preemptive-GC smoke ok"
	$(GO) build -o $(SMOKE_DIR)/ftlvol ./cmd/ftlvol
	@pids=""; \
	for p in 8990 8991 8992; do \
		$(SMOKE_DIR)/ftlserve -listen 127.0.0.1:$$p -blocks 16 -layers 16 -seq \
			>$(SMOKE_DIR)/volsrv$$p.log 2>&1 & \
		pids="$$pids $$!"; \
	done; \
	for i in $$(seq 100); do \
		ok=1; \
		for p in 8990 8991 8992; do \
			grep -q 'block service on' $(SMOKE_DIR)/volsrv$$p.log || ok=0; \
		done; \
		test $$ok -eq 1 && break; sleep 0.1; \
	done; \
	$(SMOKE_DIR)/ftlvol -listen 127.0.0.1:8998 \
		-backends 127.0.0.1:8990,127.0.0.1:8991,127.0.0.1:8992 \
		-stripe 32 -seq >$(SMOKE_DIR)/ftlvol.log 2>&1 & \
	vpid=$$!; \
	for i in $$(seq 100); do \
		grep -q 'volume on' $(SMOKE_DIR)/ftlvol.log && break; sleep 0.1; \
	done; \
	$(SMOKE_DIR)/ftlload -addr 127.0.0.1:8998 -seq -workload uniform \
		-ops 3000 -conns 4 >$(SMOKE_DIR)/volload.txt 2>&1; \
	rc=$$?; \
	kill -INT $$vpid; wait $$vpid; vrc=$$?; \
	kill -INT $$pids; wait $$pids; \
	test $$rc -eq 0 || { echo "smoke: ftlvol load failed"; \
		cat $(SMOKE_DIR)/volload.txt $(SMOKE_DIR)/ftlvol.log; exit 1; }; \
	grep -q 'OK *3000' $(SMOKE_DIR)/volload.txt || \
		{ echo "smoke: ftlvol load not all OK"; cat $(SMOKE_DIR)/volload.txt; exit 1; }; \
	test $$vrc -eq 0 || { echo "smoke: ftlvol exited $$vrc"; cat $(SMOKE_DIR)/ftlvol.log; exit 1; }; \
	grep -q 'drained:' $(SMOKE_DIR)/ftlvol.log || \
		{ echo "smoke: ftlvol did not drain clean"; cat $(SMOKE_DIR)/ftlvol.log; exit 1; }; \
	echo "volume smoke ok"
	$(GO) build -o $(SMOKE_DIR)/ftltrace ./cmd/ftltrace
	@pids=""; shards=""; \
	for p in 8984 8985 8986; do \
		$(SMOKE_DIR)/ftlserve -listen 127.0.0.1:$$p -blocks 16 -layers 16 -seq \
			-trace $(SMOKE_DIR)/trace-srv$$p.jsonl \
			>$(SMOKE_DIR)/trcsrv$$p.log 2>&1 & \
		pids="$$pids $$!"; shards="$$shards $(SMOKE_DIR)/trace-srv$$p.jsonl"; \
	done; \
	for i in $$(seq 100); do \
		ok=1; \
		for p in 8984 8985 8986; do \
			grep -q 'block service on' $(SMOKE_DIR)/trcsrv$$p.log || ok=0; \
		done; \
		test $$ok -eq 1 && break; sleep 0.1; \
	done; \
	$(SMOKE_DIR)/ftlvol -listen 127.0.0.1:8987 \
		-backends 127.0.0.1:8984,127.0.0.1:8985,127.0.0.1:8986 \
		-stripe 32 -seq -trace $(SMOKE_DIR)/trace-vol.jsonl \
		>$(SMOKE_DIR)/trcvol.log 2>&1 & \
	vpid=$$!; \
	for i in $$(seq 100); do \
		grep -q 'volume on' $(SMOKE_DIR)/trcvol.log && break; sleep 0.1; \
	done; \
	$(SMOKE_DIR)/ftlload -addr 127.0.0.1:8987 -seq -workload uniform \
		-ops 2000 -conns 4 -trace $(SMOKE_DIR)/trace-load.jsonl \
		>$(SMOKE_DIR)/trcload.txt 2>&1; \
	rc=$$?; \
	kill -INT $$vpid; wait $$vpid; \
	kill -INT $$pids; wait $$pids; \
	test $$rc -eq 0 || { echo "smoke: traced ftlload failed"; \
		cat $(SMOKE_DIR)/trcload.txt $(SMOKE_DIR)/trcvol.log; exit 1; }; \
	$(SMOKE_DIR)/ftltrace -o $(SMOKE_DIR)/cluster.trace.json \
		$(SMOKE_DIR)/trace-load.jsonl $(SMOKE_DIR)/trace-vol.jsonl $$shards \
		>$(SMOKE_DIR)/breakdown.txt 2>$(SMOKE_DIR)/ftltrace.log || \
		{ echo "smoke: ftltrace merge failed"; cat $(SMOKE_DIR)/ftltrace.log; exit 1; }; \
	test -s $(SMOKE_DIR)/cluster.trace.json || \
		{ echo "smoke: merged Chrome trace empty"; exit 1; }; \
	for h in client proxy admission queue gc service; do \
		grep -qE "^$$h\*? +" $(SMOKE_DIR)/breakdown.txt || \
			{ echo "smoke: breakdown missing hop $$h"; cat $(SMOKE_DIR)/breakdown.txt; exit 1; }; \
	done; \
	echo "cluster-trace smoke ok"
	@rm -rf $(SMOKE_DIR)

# Fault-campaign smoke: the external "break it on purpose" drill against
# real processes. Three `ftlserve -faults` backends, one ftlvol striping
# them with two replicas, then ftlstorm drives the kill-one-backend +
# power-cut campaign through the frontend: fill a working set, power-cut
# backend 1 and verify the restore from checkpoint, rewrite part of the set,
# crash backend 0 with the die fault (the process exits 3 by design) and
# verify the survivors still serve every page. The verdict's last line must
# read integrity=OK. The in-process campaigns (byte-identical verdicts
# across runs and worker counts, tenant isolation) run under `go test` in
# ./internal/scenario, so this leg only exercises the live-cluster path.
storm:
	@mkdir -p $(SMOKE_DIR)
	$(GO) build -o $(SMOKE_DIR)/ftlserve ./cmd/ftlserve
	$(GO) build -o $(SMOKE_DIR)/ftlvol ./cmd/ftlvol
	$(GO) build -o $(SMOKE_DIR)/ftlstorm ./cmd/ftlstorm
	@pids=""; \
	for p in 8974 8975 8976; do \
		$(SMOKE_DIR)/ftlserve -listen 127.0.0.1:$$p -blocks 8 -layers 6 -faults \
			>$(SMOKE_DIR)/stormsrv$$p.log 2>&1 & \
		pids="$$pids $$!"; \
	done; \
	for i in $$(seq 100); do \
		ok=1; \
		for p in 8974 8975 8976; do \
			grep -q 'block service on' $(SMOKE_DIR)/stormsrv$$p.log || ok=0; \
		done; \
		test $$ok -eq 1 && break; sleep 0.1; \
	done; \
	$(SMOKE_DIR)/ftlvol -listen 127.0.0.1:8977 \
		-backends 127.0.0.1:8974,127.0.0.1:8975,127.0.0.1:8976 \
		-stripe 32 -replicas 2 >$(SMOKE_DIR)/stormvol.log 2>&1 & \
	vpid=$$!; \
	for i in $$(seq 100); do \
		grep -q 'volume on' $(SMOKE_DIR)/stormvol.log && break; sleep 0.1; \
	done; \
	$(SMOKE_DIR)/ftlstorm -vol 127.0.0.1:8977 \
		-backends 127.0.0.1:8974,127.0.0.1:8975,127.0.0.1:8976 \
		-kill 0 -powercut 1 -seed 42 >$(SMOKE_DIR)/storm.txt 2>&1; \
	rc=$$?; \
	kill -INT $$vpid 2>/dev/null; wait $$vpid; \
	kill -INT $$pids 2>/dev/null; wait $$pids; \
	test $$rc -eq 0 || { echo "storm: drill failed"; \
		cat $(SMOKE_DIR)/storm.txt $(SMOKE_DIR)/stormvol.log; exit 1; }; \
	grep -q 'integrity=OK' $(SMOKE_DIR)/storm.txt || \
		{ echo "storm: verdict not OK"; cat $(SMOKE_DIR)/storm.txt; exit 1; }; \
	cat $(SMOKE_DIR)/storm.txt; \
	echo "storm drill ok"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Runs every root benchmark — including BenchmarkTelemetryOverhead, the
# disabled/enabled/full flavors showing the nil-sink fast path's cost — plus
# the telemetry package's attribution hot-path benchmark.
#
# With BENCH_OUT=FILE.json set (e.g. `make bench BENCH_OUT=BENCH_4.json`),
# the root run adds -benchmem and pipes through cmd/benchjson, which keeps
# the benchstat-compatible text on stdout and records ns/op, B/op, allocs/op
# and custom metrics per benchmark as JSON — the machine-readable perf
# trajectory across PRs. BENCH_TIME raises -benchtime for steadier numbers.
# Snapshots are recorded at -cpu 1 like BENCH_4–9 were (a one-core box), so
# benchmark names carry no -N suffix and bench-compare can pair them.
BENCH_TIME ?= 1x
bench:
ifeq ($(strip $(BENCH_OUT)),)
	$(GO) test -bench . -benchtime $(BENCH_TIME) -run XXX .
	$(GO) test -bench BenchmarkAttributionRecord -benchtime $(BENCH_TIME) -run XXX ./internal/telemetry
else
	$(GO) test -bench . -benchtime $(BENCH_TIME) -benchmem -cpu 1 -run XXX . | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)
	$(GO) test -bench BenchmarkAttributionRecord -benchtime $(BENCH_TIME) -run XXX ./internal/telemetry
endif

# Perf trend gate: diff two benchjson reports and print a per-benchmark
# delta table, failing (exit 1) when anything regressed past its tolerance.
# The three metrics gate independently: ns/op under BENCH_TOL stays advisory
# in CI (continue-on-error — shared-runner timing is too noisy to block
# merges on), but allocs/op under BENCH_ALLOC_TOL is BLOCKING — steady-state
# allocation counts in the FTL and flash benchmarks are deterministic, so
# alloc growth in a shared benchmark is a real regression, not noise. The 1%
# slack only absorbs one-time setup allocations (process-wide caches land on
# whichever benchmark runs first at -benchtime 1x); it cannot hide a hot-
# path alloc, which scales with op count. A benchmark that was allocation-
# free must stay allocation-free: zero has no slack at any tolerance.
# BenchmarkServerLoopback warms its connection before the timer starts, so
# its recorded allocs/op is the wire path's per-request count (1 since
# BENCH_40.json) and one more object per request fails this gate;
# BenchmarkProxyLoopback (since BENCH_15.json) does the same for the proxy with
# one 2048-op burst per iteration: 10,966 objects in BENCH_40.json, so the 1%
# slack is a nineteenth of an object per op. B/op gates under BENCH_BYTES_TOL with
# timing-style slack, since pooled-buffer accounting can shift bytes between
# runs. Defaults to the two newest BENCH_*.json checked into the repo root;
# override with BENCH_OLD/BENCH_NEW.
BENCH_TOL ?= 0.25
BENCH_ALLOC_TOL ?= 0.01
BENCH_BYTES_TOL ?= 0.25
bench-compare:
	@old="$(BENCH_OLD)"; new="$(BENCH_NEW)"; \
	if [ -z "$$old" ] || [ -z "$$new" ]; then \
		set -- $$(ls BENCH_*.json 2>/dev/null | sort -V); \
		while [ $$# -gt 2 ]; do shift; done; \
		old=$${old:-$$1}; new=$${new:-$$2}; \
	fi; \
	if [ -z "$$old" ] || [ -z "$$new" ]; then \
		echo "bench-compare: need two BENCH_*.json reports (or BENCH_OLD/BENCH_NEW)"; exit 2; \
	fi; \
	echo "bench-compare: $$old -> $$new (tol $(BENCH_TOL), alloc-tol $(BENCH_ALLOC_TOL), bytes-tol $(BENCH_BYTES_TOL))"; \
	$(GO) run ./cmd/benchjson -compare $$old $$new \
		-tol $(BENCH_TOL) -alloc-tol $(BENCH_ALLOC_TOL) -bytes-tol $(BENCH_BYTES_TOL)

# CPU + heap profiles of a representative device run, via the CLIs'
# -cpuprofile/-memprofile flags (the offline complement of the live
# /debug/pprof endpoint behind -http). Inspect with `go tool pprof`.
PROFILE_DIR ?= .
profile:
	$(GO) run ./cmd/ftlsim -blocks 32 -layers 24 -ops 20000 \
		-cpuprofile $(PROFILE_DIR)/ftlsim.cpu.pprof \
		-memprofile $(PROFILE_DIR)/ftlsim.mem.pprof >/dev/null
	@echo "profiles: $(PROFILE_DIR)/ftlsim.cpu.pprof $(PROFILE_DIR)/ftlsim.mem.pprof"
	@echo "inspect:  go tool pprof $(PROFILE_DIR)/ftlsim.cpu.pprof"

cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/...
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) '\
		/^total:/ { sub(/%/, "", $$3); total = $$3 } \
		END { \
			printf "total statement coverage: %.1f%% (floor %d%%)\n", total, min; \
			if (total + 0 < min) { print "coverage below floor"; exit 1 } \
		}'
