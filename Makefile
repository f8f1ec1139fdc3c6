GO ?= go

# Go benchmark sets `make bench` compares with cmd/abrun. BENCH is one
# in-process detection (hot path, batch features, and
# BenchmarkDetectBudget attributing a detection to front end + engines;
# README, Performance); SERVE_BENCH the serving path (hit, miss,
# duplicate storm, BenchmarkServeMissCascade and BenchmarkCascadeDetect
# for the cascaded miss through the handler and in process,
# BenchmarkStreamWindow, BenchmarkClusterRemoteHit, and
# BenchmarkCacheEntry's live heap per cached verdict); NN_BENCH the
# float64 blocked mat-vec and RNN step; HMM_BENCH and ASR_BENCH the
# Viterbi column, the post-acoustic half of a stream window and the cold
# lexicon scan; STREAM_BENCH whole sessions through a Manager; DSP_BENCH
# the frame kernel and the roster's shared front-end pass (GOMAXPROCS=1).
BENCH ?= BenchmarkDetectHotPath|BenchmarkBatchFeatures|BenchmarkDetectBudget
SERVE_BENCH ?= BenchmarkServe|BenchmarkCascadeDetect|BenchmarkStreamWindow|BenchmarkCluster|BenchmarkCacheEntry
NN_BENCH ?= BenchmarkMatVec|BenchmarkRNNStep
HMM_BENCH ?= BenchmarkViterbiStep
ASR_BENCH ?= BenchmarkDecodeWindow|BenchmarkLexiconScanCold
STREAM_BENCH ?= BenchmarkStreamSession
DSP_BENCH ?= BenchmarkPowerFrame|BenchmarkFrontEndRoster
# `make bench` measures the working checkout against BASE in PAIRS
# order-alternated pairs per set.
BASE ?= HEAD
PAIRS ?= 10

# Per-target budget for fuzz-smoke; go test accepts one -fuzz target per
# invocation, so each target gets its own short run.
FUZZTIME ?= 10s

.PHONY: check vet lint build test race bench loadgen-short fuzz-smoke serve smoke metrics-docs check-metrics-docs

# The tier-1 gate: vet, build and test everything.
check: vet
	$(GO) build ./...
	$(GO) test ./...

# Static hygiene: go vet (whose asmdecl pass checks the amd64 lane
# kernels' frames against their Go declarations), the same vet and a
# build for arm64 (the GOARCH with no lane kernel, whose Go loops must
# keep compiling), the project-invariant lint suite, and gofmt drift
# (fails listing the unformatted files and printing their diffs).
# internal/asr is clock-free without exception: a purity waiver there
# fails the target even though mvpearslint would honour it.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	$(GO) run ./cmd/mvpearslint ./...
	@if grep -n 'lint:allow purity' $$(ls internal/asr/*.go | grep -v _test.go); then \
		echo "internal/asr must stay clock-free: remove the purity waiver"; exit 1; fi
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; gofmt -d $$out; exit 1; fi

# The project-invariant analyzers alone (purity, poolsafe, ctxflow,
# metricname, floateq); see DESIGN.md §14 for what each enforces.
lint:
	$(GO) run ./cmd/mvpearslint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-test the packages with concurrent hot paths (batch detection,
# per-clip feature cache, shared FFT plans, the serving admission bound) —
# the two that pass session buffers from owner to owner (asr, stream) twice
# over, the verdict cache and singleflight, whose leader runs the detection
# on the caller's goroutine, and the cluster peer protocol, whose pooled
# connections hand read buffers between round trips, three times — and
# boot one artifact five times: a cascaded verdict is a function of
# (artifact, clip, flags).
race:
	$(GO) test -race ./internal/detector/... ./internal/dsp/... ./internal/server/... ./internal/obs/...
	$(GO) test -race -count=2 ./internal/asr/... ./internal/stream/...
	$(GO) test -race -count=3 ./internal/vcache/... ./internal/cluster/...
	$(GO) test -race -count=5 -run '^TestCascadeDeterministicAcrossBoots$$' .

# Boot the detection daemon, bootstrapping a quick-scale model on first run.
MODEL ?= model.gob
ADDR ?= 127.0.0.1:8080
serve:
	$(GO) run ./cmd/mvpearsd -model $(MODEL) -addr $(ADDR) -bootstrap

# Compare the tracked benchmark sets of the working checkout (B) with
# BASE (A) in alternated pairs (cmd/abrun) and append one judged row per
# benchmark and unit to BENCH_ab.json. A row's verdict, not a single
# run's number, is what a perf claim cites; `go run ./cmd/abrun -workload
# W BASE .` does the same for a workload of bench/run.sh.
bench:
	$(GO) run ./cmd/abrun -pairs $(PAIRS) -bench '$(BENCH)' -pkg . $(BASE) .
	$(GO) run ./cmd/abrun -pairs $(PAIRS) -bench '$(SERVE_BENCH)' -pkg ./internal/server $(BASE) .
	$(GO) run ./cmd/abrun -pairs $(PAIRS) -bench '$(NN_BENCH)' -pkg ./internal/nn $(BASE) .
	$(GO) run ./cmd/abrun -pairs $(PAIRS) -bench '$(HMM_BENCH)' -pkg ./internal/hmm $(BASE) .
	$(GO) run ./cmd/abrun -pairs $(PAIRS) -bench '$(ASR_BENCH)' -pkg ./internal/asr $(BASE) .
	$(GO) run ./cmd/abrun -pairs $(PAIRS) -bench '$(STREAM_BENCH)' -pkg ./internal/stream $(BASE) .
	GOMAXPROCS=1 $(GO) run ./cmd/abrun -pairs $(PAIRS) -bench '$(DSP_BENCH)' -pkg ./internal/dsp $(BASE) .

# The benchmark's checker as a test: boot a real mvpearsd, drive every
# workload for one short slice and validate every response (schema,
# cached flags, duplicate pairs, stream protocol, bit-for-bit references,
# reconcile_diff == 0). Exits 1 on any failed check; under 30 s.
loadgen-short:
	$(GO) run ./bench/loadgen -short

# Short-budget fuzz runs over the parsers that face untrusted bytes: the
# batch WAV decoder, the verdict-cache key's in-place hash of the PCM it
# yields (held to its copying reference and the float path), the
# streaming WAV decoder, the WebSocket frame parser, and the cluster
# peer-protocol wire codec — and two metamorphic targets: any chunk schedule through the streaming front end gives the
# batch feature matrices (dsp), and the batch transcriptions plus, window
# by window, the frozen eager stream's texts and scores (asr) — and the
# two lane kernels held to the Go loops bit for bit over random shapes
# and planted ±0, ±Inf, NaN and subnormals (nn, hmm). Seed corpora are in
# the fuzz tests; crashers land in testdata/fuzz/ for triage.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadWAV$$' -fuzztime $(FUZZTIME) ./internal/audio
	$(GO) test -run '^$$' -fuzz '^FuzzKeyPCM16$$' -fuzztime $(FUZZTIME) ./internal/vcache
	$(GO) test -run '^$$' -fuzz '^FuzzWAVStreamReader$$' -fuzztime $(FUZZTIME) ./internal/audio
	$(GO) test -run '^$$' -fuzz '^FuzzWSFrame$$' -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzFrontEndChunking$$' -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz '^FuzzEnsembleStreamChunking$$' -fuzztime $(FUZZTIME) ./internal/asr
	$(GO) test -run '^$$' -fuzz '^FuzzMatVecLanes$$' -fuzztime $(FUZZTIME) ./internal/nn
	$(GO) test -run '^$$' -fuzz '^FuzzViterbiLanes$$' -fuzztime $(FUZZTIME) ./internal/hmm

# Boot a real daemon (bootstrap model, admin listener) and probe its
# endpoints end to end: health, metrics, pprof, and a traced detection.
smoke:
	./scripts/smoke.sh

# Regenerate docs/METRICS.md from the server's metric table, and the
# masked /metrics golden (internal/server/testdata/exposition.golden)
# that TestExpositionGolden compares a served exposition to. Both files
# are generated, never hand-edited: check-metrics-docs (run in CI) fails
# when the committed reference has drifted from the code, and the test
# fails when the exposition has.
metrics-docs:
	$(GO) run ./cmd/genmetrics -o docs/METRICS.md
	$(GO) test ./internal/server -run '^TestExpositionGolden$$' -count=1 -update

check-metrics-docs:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/genmetrics -o "$$tmp"; \
	if ! diff -u docs/METRICS.md "$$tmp"; then \
		echo "docs/METRICS.md is stale: run 'make metrics-docs' and commit"; exit 1; fi
