GO ?= go

.PHONY: all build test race vet fmt metriclint apicheck benchcheck crossbuild chaos orderly serving migrate fuzz cover check bench gobench benchdiff layouts

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The determinism contract requires race-detector cleanliness: parallel
# experiment cells must share no mutable state. The raised timeout covers
# the full-scale E14 smoke run, which the race detector slows past go
# test's 600s default.
race:
	$(GO) test -race -timeout 1800s ./...

vet:
	$(GO) vet ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# bench regenerates the paper's evaluation tables as a machine-readable
# report, stamped with today's date (see README, "Benchmark reports").
bench: build
	$(GO) run ./cmd/autarky-bench -format json -wall > BENCH_$$(date +%Y-%m-%d).json
	@echo "wrote BENCH_$$(date +%Y-%m-%d).json"

# benchdiff regenerates the report and compares every experiment's
# simulated output against the newest committed BENCH_*.json baseline,
# exactly: its note, header and rows, and each cell's cycles, attribution
# and counters. Any difference fails, even one that leaves the total cycles
# unchanged, and is printed beside the experiment's cycle delta as the first
# row or cell value that differs; an experiment missing from the new report
# fails too. It also prints the host wall-clock delta when both reports
# carry a wall_nanos stamp — informational only, never a failure (wall time
# measures the simulator, not the model).
#
# Baseline refresh workflow: after an INTENTIONAL model change (new costs,
# new experiment, changed workload), run `make bench`, delete the old
# baseline and commit the new date-stamped BENCH_*.json alongside the
# change; benchdiff always picks the lexicographically newest file. Never
# refresh to paper over an unexplained change — deterministic output only
# moves when the model does.
benchdiff: build
	$(GO) run ./cmd/autarky-bench -format json -wall > /tmp/bench_current.json
	$(GO) run ./tools/benchdiff /tmp/bench_current.json

# gobench runs the Go micro-benchmarks (the old `make bench`): the
# simulator hot-path micro-benchmarks (facade touch and fault paths,
# sealing, the slot store, ORAM accesses, cluster closures, TLB-hit and
# TLB-miss translation, cycle charging, latency recording, open-loop
# arrivals). The
# hot paths must report 0 allocs/op; the matching *ZeroAlloc tests gate
# that in `make test`, so a regression fails CI rather than a bench diff.
gobench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/cluster ./internal/libos ./internal/metrics ./internal/oram ./internal/pagestore ./internal/sched ./internal/service ./internal/sgx ./internal/sim

# layouts builds this tree's benchmark binary once per code layout, with
# `go build -ldflags=-randlayout=k` for each k in LAYOUT_SEEDS, into
# LAYOUT_DIR (bench-k), outside the repository. It builds in
# benchmark/run.sh's offline environment. Code layout alone moves the host
# metrics by several percent, so a host-performance claim compares K
# layouts per side: build the parent's checkout and the change's, then hand
# each side's binaries to tools/benchpairs as repeated -a and -b (see
# README, "Measuring host performance").
LAYOUT_SEEDS ?= 1 2 3 4
LAYOUT_DIR ?= /tmp/autarky-layouts
layouts:
	@mkdir -p $(LAYOUT_DIR) .bench_build/tmp
	@out=$(CURDIR)/.bench_build; \
	export GOCACHE=$$out/gocache GOMODCACHE=$$out/gomod GOPATH=$$out/gopath GOTMPDIR=$$out/tmp \
		XDG_CONFIG_HOME=$$out/config XDG_CACHE_HOME=$$out/cache \
		GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly; \
	for k in $(LAYOUT_SEEDS); do \
		(cd benchmark && go build -ldflags=-randlayout=$$k -o $(abspath $(LAYOUT_DIR))/bench-$$k .) || exit 1; \
		echo "built $(LAYOUT_DIR)/bench-$$k"; \
	done

# metriclint rejects wall-clock and process-PRNG imports in the
# deterministic packages (fault, orderly, fleet), whose decisions
# must be pure functions of (seed, clock, operation).
metriclint:
	$(GO) run ./tools/metriclint

# apicheck verifies the committed public-API snapshot (testdata/
# api_surface.txt) still matches the code; regenerate with
#   go test -run TestPublicAPISurfaceGolden -update .
apicheck:
	$(GO) test -run TestPublicAPISurfaceGolden .

# benchcheck vets and tests the benchmark module (benchmark/, its own
# go.mod, so the root ./... never compiles it) against the current tree.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# crossbuild builds the tree for arm64 and vets the packages with
# architecture-specific files, so the portable stand-in for the amd64 page
# kernel (internal/pagestore/kernel_other.go) keeps compiling.
crossbuild:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/pagestore ./internal/sgx

# chaos runs the E12 fault-injection sweep and the E16 fleet-chaos sweep at
# two worker counts each and diffs all four against the committed golden
# tables (testdata/e12_chaos.golden, testdata/e16_chaosfleet.golden) — the
# repository-level proof that fault injection, machine failures, supervised
# recovery and restore are byte-identical at any concurrency. Regenerate a
# golden after an intentional change with:
#   go run ./cmd/autarky-bench -exp chaos -jobs 1 > testdata/e12_chaos.golden
#   go run ./cmd/autarky-bench -exp chaosfleet -jobs 1 > testdata/e16_chaosfleet.golden
chaos: build
	$(GO) run ./cmd/autarky-bench -exp chaos -jobs 1 > /tmp/e12_chaos.jobs1
	$(GO) run ./cmd/autarky-bench -exp chaos -jobs 8 > /tmp/e12_chaos.jobs8
	diff -u testdata/e12_chaos.golden /tmp/e12_chaos.jobs1
	diff -u testdata/e12_chaos.golden /tmp/e12_chaos.jobs8
	$(GO) run ./cmd/autarky-bench -exp chaosfleet -jobs 1 > /tmp/e16_chaosfleet.jobs1
	$(GO) run ./cmd/autarky-bench -exp chaosfleet -jobs 8 > /tmp/e16_chaosfleet.jobs8
	diff -u testdata/e16_chaosfleet.golden /tmp/e16_chaosfleet.jobs1
	diff -u testdata/e16_chaosfleet.golden /tmp/e16_chaosfleet.jobs8
	@echo "chaos tables match goldens at jobs=1 and jobs=8"

# orderly runs the E13 model-checking exploration at two worker counts and
# diffs both against the committed golden table — the repository-level proof
# that the exhaustive interleaving enumeration (and its per-scenario trace
# digests) is byte-identical at any concurrency. Regenerate after an
# intentional spec or lifecycle change with:
#   go run ./cmd/autarky-bench -exp orderliness -jobs 1 > testdata/e13_orderliness.golden
orderly: build
	$(GO) run ./cmd/autarky-bench -exp orderliness -jobs 1 > /tmp/e13_orderliness.jobs1
	$(GO) run ./cmd/autarky-bench -exp orderliness -jobs 8 > /tmp/e13_orderliness.jobs8
	diff -u testdata/e13_orderliness.golden /tmp/e13_orderliness.jobs1
	diff -u testdata/e13_orderliness.golden /tmp/e13_orderliness.jobs8
	@echo "orderliness table matches golden at jobs=1 and jobs=8"

# serving runs the E14 open-loop serving sweep at two worker counts and
# diffs both against the committed golden table — the repository-level proof
# that the service frontend (arrival schedules, dispatch, per-request
# histograms) is byte-identical at any concurrency. Regenerate after an
# intentional protocol or cost-model change with:
#   go run ./cmd/autarky-bench -exp serving -jobs 1 > testdata/e14_serving.golden
serving: build
	$(GO) run ./cmd/autarky-bench -exp serving -jobs 1 > /tmp/e14_serving.jobs1
	$(GO) run ./cmd/autarky-bench -exp serving -jobs 8 > /tmp/e14_serving.jobs8
	diff -u testdata/e14_serving.golden /tmp/e14_serving.jobs1
	diff -u testdata/e14_serving.golden /tmp/e14_serving.jobs8
	@echo "serving table matches golden at jobs=1 and jobs=8"

# migrate runs the E15 live-migration sweep at two worker counts and diffs
# both against the committed golden table — the repository-level proof that
# the fleet (admission waves, migration handshakes, rebalancing and the
# cross-machine cycle accounting) is byte-identical at any concurrency.
# Regenerate after an intentional policy or cost-model change with:
#   go run ./cmd/autarky-bench -exp migration -jobs 1 > testdata/e15_migration.golden
migrate: build
	$(GO) run ./cmd/autarky-bench -exp migration -jobs 1 > /tmp/e15_migration.jobs1
	$(GO) run ./cmd/autarky-bench -exp migration -jobs 8 > /tmp/e15_migration.jobs8
	diff -u testdata/e15_migration.golden /tmp/e15_migration.jobs1
	diff -u testdata/e15_migration.golden /tmp/e15_migration.jobs8
	@echo "migration table matches golden at jobs=1 and jobs=8"

# fuzz gives the adversarial decode paths a quick shake: sealed-blob
# authentication and the page kernel against crypto/cipher (pagestore),
# checkpoint restore and migration adoption (libos), and the service
# channel's wire-frame decoder (service). Run with a longer -fuzztime
# locally when touching any of them.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUnseal -fuzztime=10s ./internal/pagestore
	$(GO) test -run='^$$' -fuzz=FuzzSealKernel -fuzztime=10s ./internal/pagestore
	$(GO) test -run='^$$' -fuzz=FuzzRestore -fuzztime=10s ./internal/libos
	$(GO) test -run='^$$' -fuzz=FuzzMigrate -fuzztime=10s ./internal/libos
	$(GO) test -run='^$$' -fuzz=FuzzFrame -fuzztime=10s ./internal/service

# cover enforces the committed per-package statement-coverage floors
# (testdata/coverage_floors.txt). Raise a floor when tests improve; never
# lower one to get a change in.
cover:
	@fail=0; while read -r pkg floor; do \
		[ -z "$$pkg" ] && continue; \
		pct=$$($(GO) test -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for $$pkg"; fail=1; continue; fi; \
		if awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p>=f)}'; then \
			echo "cover: $$pkg $$pct% >= $$floor%"; \
		else \
			echo "cover: $$pkg at $$pct%, below the committed floor $$floor%"; fail=1; \
		fi; \
	done < testdata/coverage_floors.txt; exit $$fail

# check is the CI gate: formatting, static analysis, determinism lint,
# API-surface freshness, build, the arm64 build, the benchmark module, the
# full test suite under the race detector, the chaos, orderliness, serving
# and migration determinism goldens, benchdiff's exact gate on every simulated output
# against the newest committed baseline, the coverage floors, and a short
# fuzz pass.
check: fmt vet metriclint apicheck build crossbuild benchcheck race chaos orderly serving migrate benchdiff cover fuzz
	@echo "all checks passed"
