GO ?= go
# FUZZTIME bounds each fuzz target's run; CI's smoke tier shrinks it.
FUZZTIME ?= 20s

.PHONY: build test test-noasm backends check fmt-check orphans bench race vet cross-be chaos elastic fuzz soak sdc sdc-quick bench-guard bench-sweep bench-kernel bench-grouped experiments surface

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-noasm runs the full suite with the SIMD kernels compiled out: the
# scalar backend is the only registered backend and the assembly stubs
# resolve to the pure-Go fallbacks, mirroring non-amd64 platforms.
test-noasm:
	$(GO) test -tags noasm ./...

# backends logs which kernel backends this machine registered and which one
# "auto" resolves to (GOFLAGS=-tags=noasm for the scalar-only build): CI runs
# it beside the tests, so a runner whose CPU lacks AVX-512 — where the width
# tests skip — is visible in the log rather than silently green.
backends:
	@$(GO) test -count=1 -v -run 'TestBackendRegistry$$' ./internal/tensor/ | grep -E 'registered backends|^(ok|FAIL)'

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# orphans fails (listing the offenders) if a package under internal/ is not
# in the import graph of the root package, a cmd/ tool or an example: code
# nothing on a shipped path imports is caught when it is orphaned.
orphans:
	@used=$$($(GO) list -deps . ./cmd/... ./examples/...); \
	out=$$($(GO) list ./internal/... | grep -vxF "$$used"); \
	if [ -n "$$out" ]; then \
		echo "packages nothing imports:"; echo "$$out"; exit 1; fi

# race implies checkptr, which is the reviewer for the one unsafe helper
# (tensor.F32Bytes) and every slice the transports and the checkpoint
# writer view through it. nn and model ride along for the tensors a stage
# re-points at belt buffers other goroutines read (ParamSet.Bind).
race:
	$(GO) test -race ./internal/tensor/... ./internal/comm/... ./internal/checkpoint/... ./internal/nn/... ./internal/model/... ./internal/pipeline/... ./internal/launch/...

# cross-be compiles and vets for a big-endian target: the byte-swapping
# branch of the zero-copy wire/checkpoint path (tensor.F32LE / F32FromLE)
# never runs on CI hardware, so at least it must build.
cross-be:
	GOARCH=s390x GOOS=linux $(GO) build ./...
	GOARCH=s390x GOOS=linux $(GO) vet ./internal/comm ./internal/tensor ./internal/checkpoint

# chaos runs the fault-injection suite under the race detector: transport
# chaos (drop/dup/reorder/corrupt/reset), deadline and peer-death paths,
# frame-decoder fuzz seeds, the checkpoint-recovery equivalence tests, and
# the grouped-belt suite (flat-equivalence, sub-ring collectives, and the
# grouped run over chaotic TCP).
chaos:
	$(GO) test -race -timeout 300s \
		-run 'Fault|Chaos|Timeout|PeerDeath|Recovery|Resilient|Crash|Frame|CloseFailsPending|CloseLeaks|DialTimeout|Grouped|SubRing' \
		./internal/comm/ ./internal/pipeline/ ./internal/launch/

# elastic runs the ring-repair suite under the race detector: buddy
# replication off the critical path, shrink/spare repair (including the
# headline kill-over-chaotic-TCP bit-identity test), double-death
# checkpoint fallback, membership agreement, restart-loop edge cases, and
# the straggler watchdog.
elastic:
	$(GO) test -race -timeout 300s \
		-run 'Elastic|Buddy|Watchdog|Repair|Membership|DeadPeer' \
		./internal/comm/ ./internal/pipeline/ ./internal/launch/

fuzz:
	$(GO) test -run NONE -fuzz FuzzParseFrameHeader -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzMembershipEvidence -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzChunkChecksum -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzCausalAttentionEquivalence -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run NONE -fuzz FuzzBackendNTEquivalence -fuzztime $(FUZZTIME) ./internal/tensor/

# soak replays SOAK_SCHEDULES seeded randomized fault schedules — process
# SIGKILLs, SIGSTOP stalls, timed one-sided partitions, frame-level chaos —
# against a 4-rank + 1-spare cross-process WZB2 cluster, requiring every
# run to finish bit-identical to its fault-free in-process replay with no
# goroutine or file-descriptor leaks. SOAK_OUT, when set, collects one
# JSONL supervisor trace per schedule (CI uploads them on failure);
# SOAK_BACKEND=scalar pins supervisor, workers and oracle to the scalar
# kernels instead of the host's default backend.
SOAK_SCHEDULES ?= 8
soak:
	WEIPIPE_SOAK=$(SOAK_SCHEDULES) WEIPIPE_SOAK_OUT=$(SOAK_OUT) WEIPIPE_SOAK_BACKEND=$(SOAK_BACKEND) \
		$(GO) test -run TestSoakChaosSchedules -count=1 -v -timeout 600s ./internal/launch/

# sdc replays SDC_SCHEDULES seeded bit-flip schedules — corruption injected
# into resident weights, optimizer moments, belt staging buffers and (on
# alternate schedules) matmul outputs via the ABFT fault hook — against a
# WZB2 ring over chaotic TCP with full integrity defense armed. Every flip
# must be detected and repaired (checkpoint restart), every run must finish
# bit-identical to its fault-free oracle: zero silent corruptions. SDC_OUT,
# when set, collects one JSON report + Chrome trace per schedule.
SDC_SCHEDULES ?= 8
sdc:
	WEIPIPE_SDC=$(SDC_SCHEDULES) WEIPIPE_SDC_OUT=$(SDC_OUT) \
		$(GO) test -run TestSoakBitFlipSchedules -count=1 -v -timeout 600s ./internal/pipeline/

# sdc-quick is the 2-schedule slice of the bit-flip soak used inside the
# pre-merge gate (one kernel-flip schedule, one state-flip schedule).
sdc-quick:
	WEIPIPE_SDC=2 $(GO) test -run TestSoakBitFlipSchedules -count=1 -timeout 300s ./internal/pipeline/

# bench-guard is the CI regression guard: run the functional kernel A/B —
# MatMulNT 256³, and at the long-* benchmark shapes MatMulNN 512×64×172,
# MatMulTN 64×512×172, the B pass's MatMulNT 512×64×172 (dy·W₂ᵀ) and
# 512×172×64 (du·W₁ᵀ) and attention forward+backward (H 64 / 4 heads /
# S 512) — and fail unless the best SIMD backend beats scalar by 2× on every
# row (the local target is 4×+; the CI margin absorbs shared-runner noise; a
# scalar-only build passes, an amd64 build whose CPU registered no SIMD
# backend fails: it measured nothing) and print, ungated, the TCP wire
# path's 3.2 MB-chunk loopback throughput and allocations per chunk
# (BenchmarkTCPChunk) and per belt hop (BenchmarkBeltHop), then
# regenerate the grouped-belt traffic report and fail
# unless wzb2g stays bit-identical to wzb2 while cutting inter-group bytes
# both on the wire (p=16) and in the simulated grid. Report paths are
# overridable so CI can upload artifacts.
KERNEL_GUARD_OUT ?= /tmp/weipipe_kernel_guard.json
GROUPED_GUARD_OUT ?= /tmp/weipipe_grouped_guard.json
bench-guard:
	$(GO) run ./cmd/weipipe-bench -kernel -kernel-out $(KERNEL_GUARD_OUT) \
		-require-kernel-speedup 2
	$(GO) test -run NONE -bench 'BenchmarkTCPChunk|BenchmarkBeltHop' -benchmem -benchtime 100x ./internal/comm/
	$(GO) run ./cmd/weipipe-bench -grouped -grouped-out $(GROUPED_GUARD_OUT) \
		-require-grouped-win

# bench-sweep regenerates BENCH_sweep.json, the committed machine-readable
# strategy×topology×scale grid of the cost model. The model is
# deterministic: a clean regeneration must leave the file unchanged.
bench-sweep:
	$(GO) run ./cmd/weipipe-bench -sweep -sweep-out BENCH_sweep.json

# bench-kernel records the functional scalar-vs-SIMD kernel A/B (MatMulNT,
# MatMulNN, MatMulTN and attention forward+backward).
bench-kernel:
	$(GO) run ./cmd/weipipe-bench -kernel -kernel-out BENCH_kernel.json

# bench-grouped regenerates BENCH_grouped.json: the simulated flat-vs-grouped
# belt traffic grid (16–64 ranks on the hierarchical topologies) plus the
# functional p=16 A/B with per-link-tier byte meters and a bit-identity
# verdict. Both halves are deterministic, so a clean regeneration must leave
# the committed file unchanged.
bench-grouped:
	$(GO) run ./cmd/weipipe-bench -grouped -grouped-out BENCH_grouped.json

# experiments regenerates the full paper-table output that EXPERIMENTS.md
# is curated from (pure cost-model output: the same bytes on any host). CI
# uploads the file as an artifact on every run.
EXPERIMENTS_OUT ?= /tmp/weipipe_experiments.txt
experiments:
	$(GO) run ./cmd/weipipe-bench -exp all > $(EXPERIMENTS_OUT)
	@echo "experiments regenerated into $(EXPERIMENTS_OUT)"

# surface prints the size counters ROADMAP "Where the counters stand"
# tallies: non-test Go lines in the root module (benchmark/ is its own
# module), exported fields of the option structs, flags per command,
# WEIPIPE_* environment variables, the transport's line count and the
# assembly kernels' line count. CI prints
# it on every push so a PR's effect on the surface is a diff of two logs.
surface:
	@echo "non-test Go lines: $$($(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{range .IgnoredGoFiles}}{{$$d}}/{{.}} {{end}}' ./... \
		| tr ' ' '\n' | grep '\.go$$' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@for t in pipeline.Options comm.TCPOptions schedule.Spec sim.Task; do \
		echo "$$t fields: $$($(GO) doc ./internal/$${t%.*} $${t#*.} | grep -c '^	[A-Z][A-Za-z0-9_, ]* [^ ]')"; done
	@total=0; for d in cmd/*/; do \
		n=$$(cat $$d*.go | grep -c 'flag\.\(String\|Int\|Int64\|Uint\|Uint64\|Bool\|Float64\|Duration\)('); \
		echo "$$d flags: $$n"; total=$$((total+n)); done; echo "flags in all: $$total"
	@echo "WEIPIPE_* environment variables: $$(grep -rhoE --include='*.go' --include=Makefile 'WEIPIPE_[A-Z_]+' . | sort -u | wc -l)"
	@wc -l internal/comm/tcp.go
	@wc -l internal/tensor/*.s

# check is the pre-merge gate: formatting, the orphan-package check, static
# analysis, the race detector over the packages with real concurrency
# (kernel worker pool, transports, pipeline schedules), the fault-injection
# suite, the elastic-repair suite, a 2-schedule slice of the bit-flip SDC
# soak, and the noasm (scalar-only) build of the kernel packages.
check: fmt-check orphans vet race chaos elastic sdc-quick check-noasm-kernels

# check-noasm-kernels is the cheap slice of test-noasm used inside the
# pre-merge gate: just the packages whose code paths change under the tag.
.PHONY: check-noasm-kernels
check-noasm-kernels:
	$(GO) test -tags noasm ./internal/tensor/ ./internal/nn/

bench:
	$(GO) test -bench 'BenchmarkTCPChunk|BenchmarkBeltHop' -benchmem -run NONE ./internal/comm/
	$(GO) test -bench 'BenchmarkMatMul|BenchmarkTranspose|BenchmarkCausalAttention' -benchmem -run NONE ./internal/tensor/
	$(GO) test -bench 'BenchmarkBlock|BenchmarkAttention' -benchmem -run NONE ./internal/nn/
