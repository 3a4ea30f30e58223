# Convenience targets for the DRA reproduction. Everything is plain
# `go` — the Makefile only names the common invocations.

GO ?= go

.PHONY: all check build test lint race race-all vet bench bench-smoke cover fuzz-smoke poolcheck chaos report examples serve-e2e fleet-e2e fleet-bench mgmt-e2e clean

all: build test

# The default verification gate: build, vet, full tests, the race
# detector over the concurrency-sensitive packages, and the pool-safety
# wall (use-after-Release / double-Release detection).
check: build lint test race poolcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet, plus gofmt: any file gofmt would rewrite fails the lint.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Race-detect the packages that share state across goroutines: the
# metrics registry (hammered by concurrent Monte-Carlo workers), the
# router/montecarlo pipeline that shares it, and the packet pool fed to
# the sweep worker pool. Short mode: the point is data-race coverage
# (the montecarlo race soak, the pool soak), not statistical power —
# the long cross-validation runs stay in plain `make test`.
race:
	$(GO) test -race -short ./internal/metrics/... ./internal/router/... ./internal/montecarlo/... ./internal/packet/... ./internal/sim/...

# Pool-safety semantics: under the poolcheck build tag released packets
# are poisoned, so use-after-Release and double-Release panic instead of
# corrupting a recycled packet. The -race combination also reruns the
# concurrent pool soak with poisoning armed.
poolcheck:
	$(GO) test -tags poolcheck ./internal/packet/... ./internal/router/... ./internal/eib/...
	$(GO) test -tags poolcheck -race -short ./internal/packet/...

race-all:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Regenerate every paper figure + ablations, with timings.
bench:
	$(GO) test -bench . -benchmem ./...

# Coverage gate for the solver core and the robustness wall: every
# package on the numeric hot path (markov, sweep, linalg) plus the
# chaos/invariant machinery and the DES core (sim scheduler/kernel,
# packet pool) must stay at or above COVER_MIN percent statement
# coverage.
COVER_MIN ?= 80
COVER_PKGS = ./internal/markov ./internal/sweep ./internal/linalg ./internal/chaos ./internal/invariant ./internal/jobs ./internal/store ./internal/server ./internal/telemetry ./internal/sim ./internal/packet ./internal/topology ./internal/fleet ./internal/mgmt
cover:
	@for pkg in $(COVER_PKGS); do \
		line=$$($(GO) test -cover $$pkg | tail -1); echo "$$line"; \
		pct=$$(echo "$$line" | grep -o '[0-9.]*%' | head -1 | tr -d '%'); \
		if [ -z "$$pct" ]; then echo "coverage gate: no coverage for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p=$$pct -v min=$(COVER_MIN) 'BEGIN { print (p+0 >= min+0) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "coverage gate: $$pkg at $$pct% < $(COVER_MIN)%"; exit 1; fi; \
	done

# One-iteration benchmark smoke: regenerates BENCH_solver.json and
# catches benchmark-path regressions without full -bench timings.
bench-smoke:
	$(GO) test -short -run xxx -bench BenchmarkSolverComparison -benchtime 1x .

# Bounded fuzzing of the wire-format decoders, the three-tier control
# protocol, the kernel's event heap (vs a linear-scan oracle), and the
# topology graph generators + spare-policy application:
# enough to catch decode panics, encoder/decoder asymmetries,
# LP-bookkeeping drift, event-ordering divergence, and reachability
# order-dependence in CI without open-ended runs.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -fuzz=FuzzUnmarshalControl -fuzztime $(FUZZTIME) ./internal/eib/
	$(GO) test -fuzz=FuzzControlProtocol -fuzztime $(FUZZTIME) ./internal/eib/
	$(GO) test -fuzz=FuzzUnmarshalCell -fuzztime $(FUZZTIME) ./internal/packet/
	$(GO) test -fuzz=FuzzScheduler -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -fuzz=FuzzTopology -fuzztime $(FUZZTIME) ./internal/topology/

# Run every example chaos campaign through drasim with the invariant
# wall armed; any assertion failure or invariant violation is fatal.
chaos:
	@for spec in examples/campaigns/*.json; do \
		echo "== $$spec"; \
		$(GO) run ./cmd/drasim -mode chaos -config $$spec || exit 1; \
	done

# Write the Figure 4/6/7/8 artifacts under ./artifacts/.
report:
	$(GO) run ./cmd/drareport -o artifacts

# End-to-end test of the serving stack: builds the real drad/dractl
# binaries, boots drad on a loopback port, SIGTERMs it mid-Monte-Carlo,
# and proves the restarted server resumes the job bit-identically.
# The observatory soak does the same for the telemetry pipeline:
# submit, tail, query while running, drain, resume, re-query, and
# byte-compare the merged series against an uninterrupted control.
# drad's performance is measured by bench/ (see bench/README.md).
serve-e2e:
	$(GO) test -v -run 'TestServeE2E|TestObservatoryE2E' ./cmd/drad

# The kill-a-worker soak, under the race detector: boots a real
# coordinator and two real workers, SIGKILLs one mid-rare-event-job,
# and byte-compares the failover-merged result against an uninterrupted
# standalone control. Also race-tests the lease table itself.
fleet-e2e:
	$(GO) test -race -v -run 'TestFleetKillWorkerE2E|TestFleetBenchSmoke' ./cmd/drad
	$(GO) test -race ./internal/fleet/

# Management-plane walls under the race detector: the config
# commit/rollback cycle against real drad/dractl binaries (including
# drain/restart booting the committed version), the audit log's
# no-loss/no-duplication guarantee across SIGTERM, and the mgmt unit
# wall (keys, quotas, audit rotation, config datastore) plus the
# server-level auth/quota/fairness tests.
mgmt-e2e:
	$(GO) test -race -v -run 'TestMgmtConfigCommitE2E|TestAuditDrainRestartE2E' ./cmd/drad
	$(GO) test -race ./internal/mgmt/
	$(GO) test -race -run 'TestAuthRequiredAndRoleGates|TestTenantQuota429Distinct|TestConfigCommitLiveApply|TestAuditEndpointRecordsActions|TestListPagingAndTenantScope|TestMgmtHandlerSurface' ./internal/server/

# Regenerate BENCH_fleet.json: jobs/sec scaling over 1/2/4-worker
# fleets (the bench boots coordinator + workers itself).
FLEET_BENCH_JOBS ?= 6
FLEET_BENCH_REPS ?= 3072
fleet-bench:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/drad ./cmd/drad && $(GO) build -o $$tmp/dractl ./cmd/dractl || exit 1; \
	$$tmp/dractl bench -drad $$tmp/drad -jobs $(FLEET_BENCH_JOBS) -reps $(FLEET_BENCH_REPS) -out BENCH_fleet.json; rc=$$?; \
	rm -rf $$tmp; exit $$rc

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/failover
	$(GO) run ./examples/reliability-planning
	$(GO) run ./examples/capacity-planning
	$(GO) run ./examples/eib-trace
	$(GO) run ./examples/switch-fabrics

clean:
	rm -rf artifacts test_output.txt bench_output.txt
