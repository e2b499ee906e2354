# Make targets mirror the CI gates in .github/workflows/ci.yml one-to-one:
# every CI step after setup runs one target, in the order `ci` lists them,
# so a green `make ci` locally means a green pipeline.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test test-checked race vet test-lifecycle test-spill fuzz-smoke bench-smoke bench-test serve-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Sanitizer build: mempool poisons recycled storage and tracks chunk
# provenance, Sealed/Shard validate generation stamps on every access, and
# internal/lockcheck checks every ranked Lock against the lock hierarchy
# (a re-entrant acquisition of the shard-cache lock included), so lifetime
# and lock-order bugs become deterministic panics at runtime (see
# DESIGN.md).
test-checked:
	$(GO) test -tags fastcc_checked ./...

# The supported race gate is -short: full -race on the experiment
# packages replays paper workloads and is too slow for a gate.
race:
	$(GO) test -race -short ./...

# gofmt over the whole tree, go vet, and the project's own analyzer suite:
# six per-package passes (atomicmix, errdiscard, hotalloc, linovf,
# poolescape, spanarith) — see tools/analysis/ and README.md. ./... covers
# the analyzers' own packages too, and a mis-registered pass aborts with
# exit 2. Lock order is gated at runtime by internal/lockcheck in the
# fastcc_checked legs; sealed-table writes and WaitGroup misuse by the race
# and test legs. CI reuses the compiled analyzer packages via the Go build
# cache.
vet:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) build -o bin/fastcc-vet ./cmd/fastcc-vet
	./bin/fastcc-vet ./...

# Shard-cache lifecycle gate: the concurrent Drop/eviction soak and the
# core lifecycle suite under the race detector, then again under the
# sanitizer build so pin-protocol violations become generation-stamp
# panics instead of silent corruption (see DESIGN.md, "Shard lifecycle
# & eviction").
test-lifecycle:
	$(GO) test -race -short -run 'TestLifecycleStress|TestPreparedDrop|TestShardBudgetIsProcessState' .
	$(GO) test -race -short ./internal/core -run 'TestShard|TestEviction|TestClose|TestWarm|TestCache'
	$(GO) test -tags fastcc_checked -short -run 'TestLifecycleStress|TestPreparedDrop|TestShardBudgetIsProcessState' .
	$(GO) test -tags fastcc_checked -short ./internal/core -run 'TestShard|TestEviction|TestClose|TestWarm|TestCache|TestUnpinned'

# Disk-tier gate: the spill round-trip, fault-injection and adoption suites
# under the race detector, then again under the sanitizer build so a reader
# that keeps a shard reference across a spill hits the mid-spill generation
# panic instead of silently reading reclaimed tables (see DESIGN.md,
# "Tiered storage: spill files & residency").
test-spill:
	$(GO) test -race -short ./internal/spill
	$(GO) test -race -short ./internal/core -run 'TestSpill'
	$(GO) test -race -short ./internal/server -run 'TestServerSoakSpillChurn'
	$(GO) test -tags fastcc_checked -short ./internal/spill
	$(GO) test -tags fastcc_checked -short ./internal/core -run 'TestSpill|TestSpilledShardGenerationCheck'

# Short fuzz of every existing Fuzz* target; go test -fuzz takes one
# target per package per invocation. The contraction fuzzer runs a second
# time under fastcc_checked so random tilings also exercise the poison and
# generation asserts. The spill-body fuzzer caps the minimization of each
# new input at 200 runs: unbounded, minimizing one kilobyte-sized image
# takes the whole smoke budget.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParseEinsum -fuzztime=$(FUZZTIME) .
	$(GO) test -run=^$$ -fuzz=FuzzReadTNS -fuzztime=$(FUZZTIME) ./internal/coo
	$(GO) test -run=^$$ -fuzz=FuzzDivisor -fuzztime=$(FUZZTIME) ./internal/coo
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/tnsbin
	$(GO) test -run=^$$ -fuzz=FuzzEncodeKeys -fuzztime=$(FUZZTIME) ./internal/tnsbin
	$(GO) test -run=^$$ -fuzz=FuzzContractTiling -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSpillBody -fuzztime=$(FUZZTIME) -fuzzminimizetime=200x ./internal/core
	$(GO) test -tags fastcc_checked -run=^$$ -fuzz=FuzzContractTiling -fuzztime=$(FUZZTIME) ./internal/core

# One-iteration run of the prepared-operand reuse benchmark: exercises the
# Preshard/ContractPrepared path end to end (the warm iterations assert
# Stats.BuildTime == 0 and ShardReused) without paying full benchmark time.
# The BTNS codec benchmarks, the dense-tile scatter and tile drain
# benchmarks, the cold self-contraction benchmark and the output
# delinearization and key-step benchmarks run once too, so they keep
# compiling (the self-contraction one also asserts the grids it stands
# for, the key-step one that each path is the one it names).
bench-smoke:
	$(GO) test -bench=Reuse -benchtime=1x -run=^$$ .
	$(GO) test -bench=BTNS -benchtime=1x -benchmem -run=^$$ ./internal/tnsbin
	$(GO) test -bench='DenseScatter|TileDrain' -benchtime=1x -run=^$$ ./internal/accum
	$(GO) test -bench='SelfContractCold|DelinearizeOutput|OutputKeys' -benchtime=1x -run=^$$ ./internal/core

# The benchmark module's own tests (tiny preset, a few seconds). The root
# `go test ./...` does not reach the separate bench module, and its
# TestOutputsMatchReference is the bit-identity gate across every timed
# path, the daemon included.
bench-test:
	cd bench && $(GO) test ./...

# End-to-end daemon gate: build fastcc-serve and fastcc-client, start the
# daemon on a free port with a deliberately small cache budget and tenant
# quota, run the scripted upload -> contract -> fetch round-trip (results
# compared bit-for-bit against a local contraction), then SIGTERM and
# require exit 0 — the daemon gates that on zero leak-gauge deltas.
serve-smoke:
	$(GO) build -o bin/fastcc-serve ./cmd/fastcc-serve
	$(GO) build -o bin/fastcc-client ./cmd/fastcc-client
	sh tools/serve_smoke.sh bin

ci: build vet test test-checked race test-lifecycle test-spill fuzz-smoke bench-smoke bench-test serve-smoke
