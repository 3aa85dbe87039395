# Tier-1 verification and benchmark targets (see ROADMAP.md).

GO ?= go
GOFMT ?= gofmt

.PHONY: build vet fmt-check test race ci prof bench bench-go bench-json bench-smoke bench3 bench4 bench5 bench6 bench7 bench8 bench9 fuzz-smoke verify soak soak-smoke gateway-smoke noc-smoke library-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke compiles and runs every benchmark exactly once — a cheap
# guard that the benchmark suite itself never rots. The bench7, bench8
# and bench9 smoke slices ride along: the small-geometry
# partition-scaling run, the short NoC churn run, and the template
# library warm-start run, all with no timing acceptance gate.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/jbench -bench7-smoke
	$(GO) run ./cmd/jbench -bench8-smoke
	$(GO) run ./cmd/jbench -bench9-smoke

# fuzz-smoke runs each native fuzz target briefly against its checked-in
# seed corpus — a guard that the targets keep building and the corpus
# keeps passing, not a bug-hunting campaign (run longer -fuzztime for that).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDeviceState -fuzztime=30s ./internal/device
	$(GO) test -run='^$$' -fuzz=FuzzReplay -fuzztime=30s ./internal/maze
	$(GO) test -run='^$$' -fuzz=FuzzTemplateRelocate -fuzztime=30s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzDecodeV3 -fuzztime=30s ./internal/server/protocol/v3
	$(GO) test -run='^$$' -fuzz=FuzzLibraryDecode -fuzztime=30s ./internal/core/library

# verify audits the paper's worked examples across the config grid and
# runs a short seeded differential fuzz campaign, all through the
# bitstream-level oracle (cmd/jverify). Non-zero exit on any divergence.
verify:
	$(GO) run ./cmd/jverify -scenario all -steps 150 -seed 1 -q

# ci is the full tier-1 gate: formatting + vet + build + tests + race
# detector + one-shot benchmark smoke + bitstream-oracle verification +
# fuzz-target smoke + a short fault-injection soak + the gateway
# live-drain smoke + the NoC obstacle-churn smoke + the template-library
# restart smoke.
ci: fmt-check vet build test race bench-smoke verify fuzz-smoke soak-smoke gateway-smoke noc-smoke library-smoke

# prof profiles jbench's route/unroute churn experiment (B5) on the 64x96
# array and prints the 25 hottest functions — a where-does-the-router-spend
# look, not a measurement (timing claims go through `go run ./benchmark
# --workload <w>`; see BENCHMARK.json). The binary and the profile land in
# PROF_DIR, outside the repository.
PROF_DIR ?= /tmp/jroute-prof
prof:
	mkdir -p $(PROF_DIR)
	$(GO) build -o $(PROF_DIR)/jbench ./cmd/jbench
	$(PROF_DIR)/jbench -exp B5 -rows 64 -cols 96 -cpuprofile $(PROF_DIR)/cpu.prof -memprofile $(PROF_DIR)/mem.prof
	$(GO) tool pprof -top -nodecount=25 $(PROF_DIR)/jbench $(PROF_DIR)/cpu.prof

# bench runs the service load generator against an in-process jrouted and
# regenerates the BENCH_2.json snapshot (throughput, p50/p99, frames shipped).
bench:
	$(GO) run ./cmd/jload -inproc -json BENCH_2.json

bench-go:
	$(GO) test -bench . -benchmem -benchtime 200x ./...

# bench-json regenerates the machine-readable benchmark snapshot.
bench-json:
	$(GO) run ./cmd/jbench -json BENCH_1.json

# bench3 regenerates the route-cache churn snapshot: the rtr_churn_cached
# workload against two in-process daemons (cache off vs on).
bench3:
	$(GO) run ./cmd/jload -json3 BENCH_3.json

# bench4 regenerates the fleet snapshot: throughput scaling across 1/2/4/8
# board shards, then the kill-a-board failover run. Any lost acknowledged
# op or failed post-run oracle probe is a hard failure.
bench4:
	$(GO) run ./cmd/jload -json4 BENCH_4.json

# bench5 regenerates the wire-protocol snapshot: the same churn workload
# over the v2 JSON and binary v3 protocols (wire bytes/op, allocs/op,
# server codec allocation audit, v2-vs-v3 byte-identical differential),
# gated on the >=10x speedup over the BENCH_4 modeled-port baseline.
bench5:
	$(GO) run ./cmd/jload -json5 BENCH_5.json

# bench6 regenerates the gateway-tier snapshot: aggregate ops/s with 1/2/4
# backend fleets behind one gateway, the noisy-tenant isolation run (a
# quota-capped tenant hammering co-located boards must move the
# well-behaved p50 by <=10%), and a live backend drain with journal
# handoff. Any lost acknowledged op or dirty board is a hard failure.
bench6:
	$(GO) run ./cmd/jload -json6 BENCH_6.json

# bench7 regenerates the partition-parallel scaling snapshot: the
# clustered knot workload batch-routed on 64x96 and 256x384, partitioned
# vs global negotiation across 1/2/4/8 workers, sustained means over 15
# route-all/unroute-all cycles. Fails unless partitioned sustains >=2.5x
# over global at 8 workers on 256x384.
bench7:
	$(GO) run ./cmd/jbench -json7 BENCH_7.json

# bench8 regenerates the dynamic-NoC churn snapshot: a 3x3 packet-switched
# mesh over the routed fabric, four corner flows, 40 seeded
# connectivity-preserving obstacle place/clear events with per-event
# rip-up/re-route latency, sim-proven packet delivery after every event
# (>=95% delivery gate), and byte-exact restoration once cleared.
bench8:
	$(GO) run ./cmd/jbench -json8 BENCH_8.json

# bench9 regenerates the template-library warm-start snapshot: a learn
# campaign (stdlib wiring manifest + fan-net warm-up) is harvested to a
# library file; cold-start-to-first-route is measured search vs replay
# (warm must be >=3x), then the kill-a-board failover is replayed on a
# spare with and without the library attached (warm must not be slower,
# and the spare's library-hit counter must move).
bench9:
	$(GO) run ./cmd/jbench -json9 BENCH_9.json

# library-smoke is the ci-sized template-library restart check: learn a
# tiny library in-process, write it to disk, boot a fresh router from
# the file, and require seeded replays plus a bitstream byte-identical
# to the in-session warmed baseline.
library-smoke:
	$(GO) run ./cmd/jbench -library-smoke

# noc-smoke is the ci-sized slice of bench8: short churn script, every
# packet sim-verified at exact hop latency, oracle audit per event, bytes
# restored at the end.
noc-smoke:
	$(GO) run ./cmd/jload -noc-smoke

# gateway-smoke is the ci-sized slice of the bench6 drain scenario: two
# in-process fleets behind a gateway, one drained mid-churn, zero lost
# acked ops and oracle-clean boards required.
gateway-smoke:
	$(GO) run ./cmd/jload -gateway-smoke

# soak runs minutes of fault-injected traffic (dropped/truncated/
# duplicated/delayed frames plus a garbage blaster) on both protocols
# against an in-process daemon. Hard-fails unless every board ends
# oracle-clean, the malformed filter fired, and a bounded graceful
# drain leaves zero stuck sessions.
soak:
	$(GO) run ./cmd/jload -inproc -sessions 4 -soak 2m

# soak-smoke is the short ci-sized slice of the same harness.
soak-smoke:
	$(GO) run ./cmd/jload -inproc -sessions 4 -soak 15s
