GO ?= go

# Benchmarks tracked in BENCH_detect.json / BENCH_serve.json.
# SERVE_BENCH matches BenchmarkServeMissCascade and BenchmarkCascadeDetect
# (the cascaded miss through the handler and in process),
# BenchmarkStreamWindow (the real-time sliding-window gate),
# BenchmarkClusterRemoteHit (the remote cache hit) and
# BenchmarkCacheEntry (live heap bytes and objects per cached verdict);
# NN_BENCH covers the inference kernels they ride on (the float64
# blocked mat-vec and RNN step); HMM_BENCH and ASR_BENCH the Viterbi column, the
# post-acoustic half of a stream window and the cold lexicon scan;
# STREAM_BENCH whole sessions through a Manager (µs per hop, allocations
# per window); DSP_BENCH the frame kernel and the roster's shared
# front-end pass (GOMAXPROCS=1, i.e. -cpu 1). BenchmarkDetectBudget
# attributes one detection to front end + engines (README, Performance).
BENCH ?= BenchmarkDetectHotPath|BenchmarkBatchFeatures|BenchmarkDetectBudget
SERVE_BENCH ?= BenchmarkServe|BenchmarkCascadeDetect|BenchmarkStreamWindow|BenchmarkCluster|BenchmarkCacheEntry
NN_BENCH ?= BenchmarkMatVec|BenchmarkRNNStep
HMM_BENCH ?= BenchmarkViterbiStep
ASR_BENCH ?= BenchmarkDecodeWindow|BenchmarkLexiconScanCold
STREAM_BENCH ?= BenchmarkStreamSession
DSP_BENCH ?= BenchmarkPowerFrame|BenchmarkFrontEndRoster
BENCHTIME ?= 25x
# Interleaved suite rounds per `make bench` (see cmd/benchmed): every
# benchmark is sampled once per round, so machine drift spreads evenly
# across the suite and the recorded noise bound is honest.
BENCHROUNDS ?= 5

# Per-target budget for fuzz-smoke; go test accepts one -fuzz target per
# invocation, so each target gets its own short run.
FUZZTIME ?= 10s

.PHONY: check vet lint build test race bench loadgen-short fuzz-smoke serve smoke metrics-docs check-metrics-docs

# The tier-1 gate: vet, build and test everything.
check: vet
	$(GO) build ./...
	$(GO) test ./...

# Static hygiene: go vet, the project-invariant lint suite, and gofmt
# drift (fails listing the unformatted files and printing their diffs).
# internal/asr is clock-free without exception: a purity waiver there
# fails the target even though mvpearslint would honour it.
vet:
	$(GO) vet ./...
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
# per-clip feature cache, shared FFT plans, the serving admission bound, the
# cluster peer protocol) — the two that pass session buffers from owner to
# owner (asr, stream) twice over, the verdict cache and singleflight, whose
# leader runs the detection on the caller's goroutine, three times — and
# boot one artifact five times: a cascaded verdict is a function of
# (artifact, clip, flags).
race:
	$(GO) test -race ./internal/detector/... ./internal/dsp/... ./internal/server/... ./internal/obs/... ./internal/cluster/...
	$(GO) test -race -count=2 ./internal/asr/... ./internal/stream/...
	$(GO) test -race -count=3 ./internal/vcache/...
	$(GO) test -race -count=5 -run '^TestCascadeDeterministicAcrossBoots$$' .

# Boot the detection daemon, bootstrapping a quick-scale model on first run.
MODEL ?= model.gob
ADDR ?= 127.0.0.1:8080
serve:
	$(GO) run ./cmd/mvpearsd -model $(MODEL) -addr $(ADDR) -bootstrap

# Run the tracked hot-path and serving-path benchmarks in BENCHROUNDS
# interleaved rounds (cmd/benchmed) and print per-benchmark medians with
# the session's measured noise bound; paste medians AND noise_pct into
# BENCH_detect.json / BENCH_serve.json when they move. A delta inside
# the recorded noise bound is machine drift, not a regression.
bench:
	$(GO) run ./cmd/benchmed -rounds $(BENCHROUNDS) -bench '$(BENCH)' -benchtime $(BENCHTIME) . | tee BENCH_detect.txt
	$(GO) run ./cmd/benchmed -rounds $(BENCHROUNDS) -bench '$(SERVE_BENCH)' ./internal/server | tee BENCH_serve.txt
	$(GO) run ./cmd/benchmed -rounds $(BENCHROUNDS) -bench '$(NN_BENCH)' ./internal/nn | tee BENCH_nn.txt
	$(GO) run ./cmd/benchmed -rounds $(BENCHROUNDS) -bench '$(HMM_BENCH)' ./internal/hmm | tee BENCH_hmm.txt
	$(GO) run ./cmd/benchmed -rounds $(BENCHROUNDS) -bench '$(ASR_BENCH)' ./internal/asr | tee BENCH_asr.txt
	$(GO) run ./cmd/benchmed -rounds $(BENCHROUNDS) -bench '$(STREAM_BENCH)' ./internal/stream | tee BENCH_stream.txt
	GOMAXPROCS=1 $(GO) run ./cmd/benchmed -rounds $(BENCHROUNDS) -bench '$(DSP_BENCH)' ./internal/dsp | tee BENCH_dsp.txt

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
# by window, the frozen eager stream's texts and scores (asr). Seed
# corpora are in the fuzz tests; crashers land in testdata/fuzz/ for triage.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadWAV$$' -fuzztime $(FUZZTIME) ./internal/audio
	$(GO) test -run '^$$' -fuzz '^FuzzKeyPCM16$$' -fuzztime $(FUZZTIME) ./internal/vcache
	$(GO) test -run '^$$' -fuzz '^FuzzWAVStreamReader$$' -fuzztime $(FUZZTIME) ./internal/audio
	$(GO) test -run '^$$' -fuzz '^FuzzWSFrame$$' -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzFrontEndChunking$$' -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz '^FuzzEnsembleStreamChunking$$' -fuzztime $(FUZZTIME) ./internal/asr

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
