GO ?= go
STATICCHECK ?= staticcheck
FUZZTIME ?= 10s

.PHONY: build vet test race fault obs lint fuzz bench bench-json bench-smoke scenario serve-smoke

# Serving-layer smoke: boot feam-server on the 120-site mixed-ISA fleet,
# drive it with feam-load for a short burst, then SIGTERM it and require
# a clean drain. feam-load exits non-zero if any request was not 2xx, and
# the report lands in BENCH_PR8.json.
SERVE_ADDR ?= 127.0.0.1:8091
SERVE_DURATION ?= 5s

serve-smoke:
	$(GO) build -o bin/feam-server ./cmd/feam-server
	$(GO) build -o bin/feam-load ./cmd/feam-load
	./bin/feam-server -addr $(SERVE_ADDR) -fleet testdata/scenarios/isa-mix.yaml & \
	SERVER_PID=$$!; \
	trap 'kill $$SERVER_PID 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		if ./bin/feam-load -addr http://$(SERVE_ADDR) -clients 1 -duration 100ms -out /dev/null 2>/dev/null; then break; fi; \
		sleep 0.2; \
	done; \
	./bin/feam-load -addr http://$(SERVE_ADDR) -clients 32 -duration $(SERVE_DURATION) -out BENCH_PR8.json || exit 1; \
	kill -TERM $$SERVER_PID; \
	wait $$SERVER_PID

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

race:
	$(GO) test -race -timeout 40m ./...

# Fault-tolerance suite: injection, retries, transactional staging, and
# degraded ranking, under the race detector; then the feam-testbed fault
# demo twice, whose two reports must be identical (one fault policy per
# site keeps the ranking independent of worker scheduling).
fault:
	$(GO) test -race -run 'Fault|Staging|Probe|Retry|Poisoning|Concurrent' ./internal/fault/ ./internal/feam/ ./cmd/feam-testbed/
	$(GO) build -o bin/feam-testbed ./cmd/feam-testbed
	./bin/feam-testbed -faults -fault-rate 0.25 -fault-seed 7 >bin/fault-demo.1
	./bin/feam-testbed -faults -fault-rate 0.25 -fault-seed 7 >bin/fault-demo.2
	cmp bin/fault-demo.1 bin/fault-demo.2

# Observability suite: tracer/histogram/registry unit tests plus the
# engine-level tracing and no-lost-samples tests, under the race detector.
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'Tracing|Histograms|Sentinel|PredictEvaluate|FunctionalOptions|RetryWithHook' ./internal/feam/ ./internal/fault/

# Static analysis: vet, then the repo's own analyzer suite (feamcheck),
# which enforces the engine invariants — span lifecycle, fault-taxonomy
# wrapping, vfs-only file access, context plumbing, and lock ordering.
# staticcheck runs when installed (the tree has no module dependencies,
# so staticcheck is not fetched automatically).
lint: vet
	$(GO) run ./cmd/feam-lint -novet ./...
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Scenario suite: validate the committed corpus with the CLI, then replay
# every scenario as a race-detected subtest (failed scenarios print their
# human-readable assertion diffs).
scenario:
	$(GO) run ./cmd/feam-sim validate testdata/scenarios/*.yaml
	$(GO) test -race -count=1 ./internal/scenario/

# Bounded fuzzing smoke run over the attacker-facing parsers: the ELF
# reader, the soname/symbol-version parsers, the scenario YAML loader,
# the ABI symbol-index builder, and the /v1/predict body decoder (checked
# against encoding/json plus encoding/base64); plus the eight-lane .text
# payload kernel and its memo, checked against the per-byte generator;
# the loader's directory handle, checked against the path walk; and the
# compiler-banner version parser, checked against its per-character
# predecessor. The go tool accepts one -fuzz pattern per invocation,
# hence the separate runs.
fuzz:
	$(GO) test -run xxx -fuzz FuzzParseSoname -fuzztime $(FUZZTIME) ./internal/libver/
	$(GO) test -run xxx -fuzz FuzzSymverRequirements -fuzztime $(FUZZTIME) ./internal/libver/
	$(GO) test -run xxx -fuzz FuzzParseELF -fuzztime $(FUZZTIME) ./internal/elfimg/
	$(GO) test -run xxx -fuzz FuzzTextFill -fuzztime $(FUZZTIME) ./internal/elfimg/
	$(GO) test -run xxx -fuzz FuzzScenarioYAML -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run xxx -fuzz FuzzSymbolIndex -fuzztime $(FUZZTIME) ./internal/abicheck/
	$(GO) test -run xxx -fuzz FuzzPredictBody -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run xxx -fuzz FuzzDirLookup -fuzztime $(FUZZTIME) ./internal/vfs/
	$(GO) test -run xxx -fuzz FuzzBannerVersion -fuzztime $(FUZZTIME) ./internal/toolchain/

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Benchmark packages: the paper-table suite at the root (including the
# survey-throughput and zero-copy View benchmarks), the layering
# benchmarks (registry hit rate, store commit latency) and the in-process
# /v1/predict upload benchmark.
BENCH_PKGS = . ./internal/registry ./internal/store ./internal/server

# Full benchmark run rendered to committed JSON. BENCH_PR10.json carries
# the ABI-resolve (cold vs registry-cached, 0-alloc streaming resolve)
# numbers for this PR alongside the survey-throughput suite.
bench-json:
	$(GO) test -run xxx -bench . -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -out BENCH_PR10.json

# Fold every committed BENCH_*.json into one trajectory array, oldest PR
# first, so numbers are diffable across PRs.
bench-trajectory:
	$(GO) run ./cmd/benchjson -merge -out BENCH_trajectory.json

# Quick CI variant: a fixed tiny iteration count proves the benchmarks
# and the JSON renderer still work without paying for stable numbers,
# and the AllocsPerRun gates fail the job if the zero-copy View accessor
# path, the cached ABI resolve path or the parsed-ELF memo hit path ever
# allocates again, or if a loader search directory that misses costs an
# allocation (TestResolveMissAllocs: a warm closure allocates as much with
# 12 missed directories ahead of each hit as with 2). The upload gate fails it if decoding a /v1/predict
# body carrying a 1 MiB binary allocates 16 KiB or more (the binary is
# decoded in place in the body). The image gate fails it if building a
# library image with a 4 MiB .text payload allocates 1.25 times the image
# or more (the payload is written straight into the image). The heap
# budget then fails it if the 120-site isa-mix fleet stops sharing its
# library images (it must add under 64 MB of live heap; one copy per site
# is about 0.9 GB).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 10x -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -out BENCH_smoke.json
	$(GO) test -run 'TestViewParseAllocs|TestBuildAllocatesImageOnce' -count=1 -v ./internal/elfimg/
	$(GO) test -run 'TestABIResolveAllocs' -count=1 -v ./internal/abicheck/
	$(GO) test -run 'TestReadELFHitAllocs' -count=1 -v ./internal/vfs/
	$(GO) test -run 'TestResolveMissAllocs' -count=1 -v ./internal/ldso/
	$(GO) test -run 'TestDecodeBodyAllocs' -count=1 -v ./internal/server/
	$(GO) test -run 'TestFleetHeapBudget' -count=1 -v ./internal/scenario/
