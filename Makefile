# Tier-1 check for this repo: `make ci` (lint + build + race tests + examples + the
# fleetsim -> ingestd smoke run). The plain seed check `go build ./... &&
# go test ./...` remains a subset of this.

GO ?= go

.PHONY: ci vet lint repolint build test race cover equiv study examples smoke fuzz fuzz-smoke loc clean

ci: lint build race equiv study examples cover fuzz-smoke smoke loc

vet:
	$(GO) vet ./...

# Static-analysis gate: `gofmt -l` names nothing, plain `go vet` (copylocks
# is what keeps obs metric handles from being copied), and the four repolint
# analyzers (determinism, severerr, wiresize, lockhold — see DESIGN.md
# "Statically enforced invariants") in one whole-module pass.
lint: vet repolint
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
	  echo "gofmt -l names:" >&2; echo "$$unformatted" >&2; exit 1; fi
	bin/repolint ./...

repolint:
	@mkdir -p bin
	$(GO) build -o bin/repolint ./cmd/repolint

build:
	$(GO) build ./...
	@mkdir -p bin
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Statement-coverage gate: the total must not fall below the floor in
# scripts/coverage_floor.txt (set ~3 points under the measured total, so
# normal churn passes but a PR that deletes tests or lands an untested
# subsystem fails).
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat scripts/coverage_floor.txt); \
	echo "coverage: $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t + 0 >= f + 0 ? 0 : 1) }' || \
	  { echo "coverage $$total% is below the $$floor% floor" >&2; exit 1; }

# Equivalence harness: 120 randomized fixed-seed traces through the
# per-record, FeedBatch and METR-3 StreamBatches paths must produce
# bit-identical accumulator state and results, energy.Process must produce
# the same ledger bytes as they do, and one trace's state and result bytes
# are SHA-pinned (see internal/analysis/equiv_test.go). Run with -count=1 so
# a cached pass never masks a codec change.
equiv:
	$(GO) test -run 'TestColumnarEquivalence|TestBatchEqualsStream|TestStatePinned' -count=1 ./internal/analysis/

# The paper path as a benchmark, run twice: open + load + full report of a
# 16-device METR-3 fleet. `go test ./...` compiles root BenchmarkStudy but
# never runs it; this runs it, and with it its check that the report's CRC
# is the same on every iteration.
study:
	$(GO) test -run '^$$' -bench '^BenchmarkStudy$$' -benchtime 2x .

# Every program under examples/ run once: tier-1 only compiles them, and
# EXPERIMENTS.md quotes their output. The output is discarded; a non-zero
# exit fails the target.
examples:
	@for e in examples/*/; do \
	  echo "go run ./$$e"; $(GO) run ./$$e > /dev/null || exit 1; \
	done

# End-to-end load smoke: 200 synthetic devices stream one trace-day each
# into a local ingestd — once clean, once through the fault injector;
# fleetsim exits non-zero on any dropped or rejected record, and ingestd
# must drain gracefully on SIGTERM both times.
smoke: build
	./scripts/smoke.sh

# Short runs of every fuzz target (trace reader over METR-3 and flat, with
# the refused METZ1 and METR-2 magics as seeds that must stay refused —
# METR-3 columnar decoder, indexed file reader at 1 and 4 workers, pushdown
# scan incl. torn tails and against a full decode, LZ codec incl. staged
# decode, pcap
# reader, packet parser, ingest frame decoder, checkpoint decoder, checkpoint delta
# log, tsq query parser, tsq result encoder against encoding/json).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzMETR3Decoder -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzReadFileParallel -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzScanFile -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/lz/
	$(GO) test -run=NONE -fuzz=FuzzDecompress -fuzztime=$(FUZZTIME) ./internal/lz/
	$(GO) test -run=NONE -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/pcapio/
	$(GO) test -run=NONE -fuzz=FuzzDecodePacket -fuzztime=$(FUZZTIME) ./internal/netparse/
	$(GO) test -run=NONE -fuzz=FuzzFrameDecoder -fuzztime=$(FUZZTIME) ./internal/ingest/
	$(GO) test -run=NONE -fuzz=FuzzCheckpointDecoder -fuzztime=$(FUZZTIME) ./internal/ingest/checkpoint/
	$(GO) test -run=NONE -fuzz=FuzzCheckpointLog -fuzztime=$(FUZZTIME) ./internal/ingest/checkpoint/
	$(GO) test -run=NONE -fuzz=FuzzQueryParse -fuzztime=$(FUZZTIME) ./internal/tsq/
	$(GO) test -run=NONE -fuzz=FuzzResultJSON -fuzztime=$(FUZZTIME) ./internal/tsq/

# The ci gate fuzzes the most network-exposed decoder, the indexed file
# reader every trace.ReadFile now goes through (at one worker and at four),
# the pushdown scan against a full decode of the blocks it reads (the one
# reader that decompresses part of a block), the LZ encoder's round trip
# and the /query result encoder against encoding/json's bytes, briefly;
# run `make fuzz` for the full set. -fuzzminimizetime=1x keeps the engine
# executing for its 10 s instead of minimising each new multi-block input;
# `make fuzz` keeps the default, so a crasher is still minimised there.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzFrameDecoder -fuzztime=10s -fuzzminimizetime=1x ./internal/ingest/
	$(GO) test -run=NONE -fuzz=FuzzReadFileParallel -fuzztime=10s -fuzzminimizetime=1x ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzScanFile -fuzztime=10s -fuzzminimizetime=1x ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip -fuzztime=10s -fuzzminimizetime=1x ./internal/lz/
	$(GO) test -run=NONE -fuzz=FuzzResultJSON -fuzztime=10s -fuzzminimizetime=1x ./internal/tsq/

# Non-test, non-generated Go lines per package against a base commit
# (LOC_BASE, default: the merge-base with main) — the figure ROADMAP's
# "least code" aim is read from.
loc:
	@./scripts/loc.sh $(LOC_BASE)

clean:
	rm -rf bin
