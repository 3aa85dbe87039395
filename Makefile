# Tier-1 verification targets (see ROADMAP.md). Timing is not measured
# here: `go run ./benchmark --workload <w>` is the one benchmark (see
# BENCHMARK.json and benchmark/README.md).

GO ?= go
GOFMT ?= gofmt

.PHONY: build vet fmt-check test race ci prof prof-negotiate prof-replace prof-batch prof-search bench-go bench-smoke fuzz-smoke verify soak size mutants

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

# bench-smoke compiles and runs every `go test` benchmark exactly once — a
# cheap guard that bench_test.go never rots. It measures nothing.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# fuzz-smoke runs each native fuzz target briefly against its checked-in
# seed corpus — a guard that the targets keep building and the corpus
# keeps passing, not a bug-hunting campaign (run longer -fuzztime for that).
# Nine targets: the v3 byte decoder runs thousands of inputs a second and
# gets 5 s, as does FuzzSessionImport, which imports each input onto a
# fresh worker and audits what it places, and FuzzParseWire, which holds
# every name the wire parser accepts to a WireName round trip. Each line
# bounds minimization at 100 runs an input: by default Go minimizes every
# new input for up to 60 s, which the exec count does not show, and a
# 10 s smoke of FuzzReplay or FuzzSearch then spends most of it there.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDeviceState -fuzztime=10s -fuzzminimizetime=100x ./internal/device
	$(GO) test -run='^$$' -fuzz=FuzzApplyConfig -fuzztime=10s -fuzzminimizetime=100x ./internal/bitstream
	$(GO) test -run='^$$' -fuzz=FuzzReplay -fuzztime=10s -fuzzminimizetime=100x ./internal/maze
	$(GO) test -run='^$$' -fuzz=FuzzSearch -fuzztime=10s -fuzzminimizetime=100x ./internal/maze
	$(GO) test -run='^$$' -fuzz=FuzzTemplateRelocate -fuzztime=10s -fuzzminimizetime=100x ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzRipUpRegion -fuzztime=10s -fuzzminimizetime=100x ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzDecodeV3 -fuzztime=5s -fuzzminimizetime=100x ./internal/server/protocol/v3
	$(GO) test -run='^$$' -fuzz=FuzzSessionImport -fuzztime=5s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzParseWire -fuzztime=5s -fuzzminimizetime=100x ./internal/arch

# verify audits the paper's worked examples across the config grid and
# runs a short seeded differential fuzz campaign, all through the
# bitstream-level oracle (cmd/jverify). Non-zero exit on any divergence.
# Not part of ci: TestGoldenBitstreams audits the same scenarios over the
# same grid, and TestDifferentialSmoke runs the same campaign.
verify:
	$(GO) run ./cmd/jverify -scenario all -steps 150 -seed 1 -q

# ci is the full tier-1 gate: formatting + vet + build + tests + race
# detector + one-shot benchmark smoke + fuzz-target smoke. Every other
# check (the worked examples, the oracle and differential campaigns, the
# fault-injection soak, the NoC obstacle churn, the gateway live drain) is
# a `go test` beside its package, so `test` and `race` run it.
ci: fmt-check vet build test race bench-smoke fuzz-smoke

# prof profiles BenchmarkChurn (B5's route/unroute churn, root package) and
# prints the 25 hottest functions — a where-does-the-router-spend look, not
# a measurement (timing claims go through `go run ./benchmark --workload
# <w>`; see BENCHMARK.json). It then prints the 10 largest holders of live
# heap (`-sample_index=inuse_space`), the split a memory change starts from,
# and the 10 sites that allocate the most objects
# (`-sample_index=alloc_objects`), the split an allocation change starts
# from. The test binary and the CPU and heap profiles land in PROF_DIR,
# outside the repository; `go tool pprof -sample_index alloc_space
# $(PROF_DIR)/repro.test $(PROF_DIR)/mem.prof` reads the heap one by bytes
# allocated instead.
PROF_DIR ?= /tmp/jroute-prof
prof:
	mkdir -p $(PROF_DIR)
	$(GO) test -run '^$$' -bench BenchmarkChurn -benchtime 3s -o $(PROF_DIR)/repro.test \
		-cpuprofile $(PROF_DIR)/cpu.prof -memprofile $(PROF_DIR)/mem.prof .
	$(GO) tool pprof -top -nodecount=25 $(PROF_DIR)/repro.test $(PROF_DIR)/cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=inuse_space $(PROF_DIR)/repro.test $(PROF_DIR)/mem.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects $(PROF_DIR)/repro.test $(PROF_DIR)/mem.prof

# prof-negotiate does the same for BenchmarkNegotiate (internal/maze: eight
# Clustered(6, 32, 5) designs and eight knots+crossbar designs negotiated on
# a 64×96 array, at 1 and 2 workers; knots+crossbar is the shape
# batch_reload negotiates, where one scope holds most of the work),
# live-heap and allocated-object top 10s included. Its
# files in PROF_DIR are maze.test, negotiate-cpu.prof and negotiate-mem.prof.
prof-negotiate:
	mkdir -p $(PROF_DIR)
	$(GO) test -run '^$$' -bench BenchmarkNegotiate -benchtime 3s -o $(PROF_DIR)/maze.test \
		-cpuprofile $(PROF_DIR)/negotiate-cpu.prof -memprofile $(PROF_DIR)/negotiate-mem.prof ./internal/maze
	$(GO) tool pprof -top -nodecount=25 $(PROF_DIR)/maze.test $(PROF_DIR)/negotiate-cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=inuse_space $(PROF_DIR)/maze.test $(PROF_DIR)/negotiate-mem.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects $(PROF_DIR)/maze.test $(PROF_DIR)/negotiate-mem.prof

# prof-replace does the same for BenchmarkReplace (root package: cores.Replace
# bouncing a constant multiplier between two sites, the op under core_swap),
# live-heap and allocated-object top 10s included, so the core-swap
# allocation split reads off a `go test` benchmark. Its files in PROF_DIR
# are repro.test, replace-cpu.prof and replace-mem.prof.
prof-replace:
	mkdir -p $(PROF_DIR)
	$(GO) test -run '^$$' -bench BenchmarkReplace -benchtime 3s -o $(PROF_DIR)/repro.test \
		-cpuprofile $(PROF_DIR)/replace-cpu.prof -memprofile $(PROF_DIR)/replace-mem.prof .
	$(GO) tool pprof -top -nodecount=25 $(PROF_DIR)/repro.test $(PROF_DIR)/replace-cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=inuse_space $(PROF_DIR)/repro.test $(PROF_DIR)/replace-mem.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects $(PROF_DIR)/repro.test $(PROF_DIR)/replace-mem.prof

# prof-batch does the same for BenchmarkBatchCrossbar (root package: a
# crossbar routed by negotiation and taken down by UnrouteAll on one router,
# the op under batch_reload), live-heap and allocated-object top 10s
# included, so the batch allocation split reads off a `go test` benchmark.
# Its files in PROF_DIR are repro.test, batch-cpu.prof and batch-mem.prof.
prof-batch:
	mkdir -p $(PROF_DIR)
	$(GO) test -run '^$$' -bench '^BenchmarkBatchCrossbar$$' -benchtime 3s -o $(PROF_DIR)/repro.test \
		-cpuprofile $(PROF_DIR)/batch-cpu.prof -memprofile $(PROF_DIR)/batch-mem.prof .
	$(GO) tool pprof -top -nodecount=25 $(PROF_DIR)/repro.test $(PROF_DIR)/batch-cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=inuse_space $(PROF_DIR)/repro.test $(PROF_DIR)/batch-mem.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects $(PROF_DIR)/repro.test $(PROF_DIR)/batch-mem.prof

# prof-search does the same for BenchmarkAStar's loaded row (internal/maze:
# 256 seeded pairs searched on a 64×96 array that 400 live nets occupy, the
# p2p_cold shape, so the profile carries the tail of long, obstructed
# searches the workload pays for), live-heap and allocated-object top 10s
# included. The root package's B2 rows (BenchmarkAutoMazeOnly and its
# siblings) route one pair on a fresh router each iteration: they time one
# search of one shape, not this mix. Its files in PROF_DIR are maze.test,
# search-cpu.prof and search-mem.prof.
prof-search:
	mkdir -p $(PROF_DIR)
	$(GO) test -run '^$$' -bench '^BenchmarkAStar$$/^loaded$$' -benchtime 3s -o $(PROF_DIR)/maze.test \
		-cpuprofile $(PROF_DIR)/search-cpu.prof -memprofile $(PROF_DIR)/search-mem.prof ./internal/maze
	$(GO) tool pprof -top -nodecount=25 $(PROF_DIR)/maze.test $(PROF_DIR)/search-cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=inuse_space $(PROF_DIR)/maze.test $(PROF_DIR)/search-mem.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects $(PROF_DIR)/maze.test $(PROF_DIR)/search-mem.prof

# bench-go prints the `go test -bench` rows. They are not comparable
# across commits; speed claims go through `go run ./benchmark`.
bench-go:
	$(GO) test -bench . -benchmem -benchtime 200x ./...

# soak runs TestSoak for two minutes instead of its fixed counts:
# fault-injected traffic (dropped/truncated/duplicated/delayed frames plus
# a garbage blaster) against an in-process daemon. It fails unless every
# board ends oracle-clean, the malformed filter fired, and a bounded
# graceful drain leaves zero stuck sessions; -v prints its summary.
soak:
	$(GO) test ./internal/server -run TestSoak -soak=2m -v

# mutants runs the mutant table, testdata/mutants.txt: each row lays a
# mutated copy of one file over the tree with `go test -overlay` (the tree
# is never written) and requires the row's named test to fail. Not part of
# ci: a row costs a package build and a test run, about 1.5 s each here.
mutants:
	$(GO) test -run TestMutants -mutants -v -timeout 30m .

# size prints, per directory (internal/*, cmd, benchmark), in total and
# for ROADMAP item 5's set (core, maze, server, gateway), non-test Go lines
# and code-only lines (neither blank nor comment-only) — the count a
# simplicity PR reports, parent beside change. Its last two lines split
# internal/ into the product (the packages cmd/jrouted and cmd/jgateway
# link, by `go list -deps`) and the evaluation layer (the rest: debug, noc,
# sim, timing, workload, scenario, oracle/fuzz), so that no size target
# counts the evaluation layer by accident.
# `make size FILES='internal/core/*.go cmd/jverify/main.go'` counts just
# those files, one row each (test files dropped).
size:
ifdef FILES
	@awk -v perfile=1 -f size.awk $(filter-out %_test.go,$(wildcard $(FILES)))
else
	@find internal cmd benchmark -name '*.go' ! -name '*_test.go' | sort | xargs awk -f size.awk \
		-v product="$$($(GO) list -deps ./cmd/jrouted ./cmd/jgateway | tr '\n' ' ')"
endif
