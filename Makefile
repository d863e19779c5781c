# Ah-Q reproduction build targets.
#
#   all        - tier-1 gate: build + vet + lint + test + race
#   build      - compile every package
#   vet        - go vet
#   lint       - project static analysis (cmd/ahqlint): determinism,
#                unitcheck, floatcmp, seedplumb, errwrap (docs/lint.md)
#   test       - full test suite
#   test-short - skip the long-horizon tests
#   race       - test suite under the race detector
#   bench      - run the benchmark suite and emit BENCH_<n>.json
#                (benchmark name -> ns/op, B/op, allocs/op via cmd/benchjson)
#   results    - regenerate every paper artifact into results/
#   fuzz       - fuzz the percentile estimators, the fault-plan DSLs,
#                the load-trace CSV reader and the ahqd load handler
#   clean      - remove generated results

GO ?= go

.PHONY: all build vet lint test test-short race bench results fuzz clean

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants; see docs/lint.md for the analyzer list.
lint:
	$(GO) run ./cmd/ahqlint ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass; exercises the parallel experiment harness.
race:
	$(GO) test -race ./...

# One testing.B entry per paper table/figure plus the engine
# microbenchmarks; the run is summarised into the next free BENCH_<n>.json
# so successive runs accumulate a history instead of overwriting it.
bench:
	@n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	$(GO) test -run '^$$' -bench . -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_$$n.json && \
	echo "wrote BENCH_$$n.json"

# Regenerate every paper artifact at full horizons into results/.
results:
	mkdir -p results
	$(GO) run ./cmd/ahqbench -all -csv results/csv | tee results/full_run.txt

fuzz:
	$(GO) test -fuzz FuzzP2VsExact -fuzztime 20s ./internal/metrics/
	$(GO) test -fuzz FuzzPercentile -fuzztime 20s ./internal/metrics/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 20s ./internal/faults/
	$(GO) test -fuzz '^FuzzParseFleet$$' -fuzztime 20s ./internal/faults/
	$(GO) test -fuzz '^FuzzReadCSV$$' -fuzztime 20s ./internal/trace/
	$(GO) test -fuzz '^FuzzHandleLoad$$' -fuzztime 20s ./cmd/ahqd/

clean:
	rm -rf results
