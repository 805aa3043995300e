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

# backends logs which kernel backends this machine registered, which one
# "auto" resolves to and whether the wire CRC runs the 512-bit kernel
# (GOFLAGS=-tags=noasm for the scalar-only build): CI runs it beside the
# tests, so a runner whose CPU lacks AVX-512 — where the width tests skip —
# or VPCLMULQDQ is visible in the log rather than silently green.
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
# frame-decoder fuzz seeds, the checkpoint-recovery equivalence tests, the
# driver's checkpoint gathers and resume rule, and the grouped-belt suite
# (flat-equivalence, sub-ring collectives, and the grouped run over chaotic
# TCP). Aborts and integrity checks with kept and self-served belt copies,
# the holder, owner and deferral rules' traffic checks, the belt goldens, the
# wiring table's properties and the check that the runtime sends and the
# simulator prices exactly its rows ride along.
chaos:
	$(GO) test -race -timeout 300s \
		-run 'Fault|Chaos|Timeout|PeerDeath|Recovery|Resilient|Crash|Frame|CloseFailsPending|CloseLeaks|DialTimeout|Grouped|SubRing|Driver|AbortedIteration|Kept|HolderNever|OwnerNever|Deferred|SelfServed|BeltRunsMatchGoldens|Wiring|SimulatorRelays|NormalizeGroupSize' \
		./internal/comm/ ./internal/pipeline/ ./internal/launch/ ./internal/order/

# elastic runs the ring-repair suite under the race detector. There is one
# training driver, RunRank, and one repair ladder it climbs — detect, agree
# (AgreeOverTransport), harvest (wireHarvest), plan (PlanRepair) — whether
# RunResilient supervises the ranks as goroutines over the in-process fabric
# or TCP, or weipipe-launch as processes over TCP. The suite covers the
# failure contract on both fabrics, buddy replication off the critical
# path and its shadows bit-identical to their owners ('Buddy' covers both),
# shrink/spare repair after a crash, an integrity flip or a watchdog
# declaration (including the headline kill-over-chaotic-TCP bit-identity
# test), the no-quorum and double-death checkpoint fallbacks, the driver's
# checkpoint gathers, resume rule and tracing, and restart-loop edge cases.
elastic:
	$(GO) test -race -timeout 300s \
		-run 'Elastic|Buddy|Watchdog|Repair|Membership|DeadPeer|Agree|RunRank|Driver' \
		./internal/comm/ ./internal/pipeline/ ./internal/launch/

fuzz:
	$(GO) test -run NONE -fuzz FuzzParseFrameHeader -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzMembershipEvidence -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzChunkChecksum -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzCausalAttentionEquivalence -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run NONE -fuzz FuzzBackendNTEquivalence -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run NONE -fuzz FuzzBF16RoundTrip -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run NONE -fuzz FuzzWireCRC -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run NONE -fuzz FuzzAdamW -fuzztime $(FUZZTIME) ./internal/tensor/

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
# 512×172×64 (du·W₁ᵀ), attention forward+backward (H 64 / 4 heads /
# S 512), the LM head's SoftmaxRows over 512×256 logits and one AdamW step
# over 820 800 parameters — and fail unless the best SIMD backend beats
# scalar by 2× on every row (a
# scalar-only build passes, an amd64 build whose CPU registered no SIMD
# backend fails: it measured nothing), print, ungated, the TCP wire
# path's 3.2 MB-chunk loopback throughput and allocations per chunk
# (BenchmarkTCPChunk) and per belt hop (BenchmarkBeltHop), the wire
# CRC's throughput beside hash/crc32's (BenchmarkWireCRC) and a gradient
# fold with the CRC folded in against a fold then a cold CRC
# (BenchmarkSealedAdd), then
# regenerate the grouped-belt traffic report and fail unless wzb2g stays
# bit-identical to wzb2 while cutting inter-group bytes both on the wire
# (p=16) and in the simulated grid. Report paths are overridable so CI can
# upload artifacts.
KERNEL_GUARD_OUT ?= /tmp/weipipe_kernel_guard.json
GROUPED_GUARD_OUT ?= /tmp/weipipe_grouped_guard.json
bench-guard:
	$(GO) run ./cmd/weipipe-bench -report kernel -out $(KERNEL_GUARD_OUT) -check
	$(GO) test -run NONE -bench 'BenchmarkTCPChunk|BenchmarkBeltHop|BenchmarkWireCRC|BenchmarkSealedAdd' -benchmem -benchtime 100x ./internal/comm/
	$(GO) run ./cmd/weipipe-bench -report grouped -out $(GROUPED_GUARD_OUT) -check

# bench-sweep regenerates BENCH_sweep.json, the committed machine-readable
# strategy×topology×scale grid of the cost model, and bench-grouped
# regenerates BENCH_grouped.json: the simulated flat-vs-grouped belt traffic
# grid (16–64 ranks on the hierarchical topologies) plus the functional p=16
# A/B with per-link-tier byte meters and a bit-identity verdict. Both are
# deterministic; TestCommittedReportsAreGenerated holds the committed files
# to a regeneration.
bench-sweep:
	$(GO) run ./cmd/weipipe-bench -report sweep

bench-grouped:
	$(GO) run ./cmd/weipipe-bench -report grouped

# bench-kernel records the functional scalar-vs-SIMD kernel A/B (MatMulNT,
# MatMulNN, MatMulTN, attention forward+backward, SoftmaxRows and AdamW) in
# BENCH_kernel.json.
bench-kernel:
	$(GO) run ./cmd/weipipe-bench -report kernel

# experiments regenerates the full paper-table output whose experiments
# EXPERIMENTS.md holds in generated blocks (pure cost-model output: the same
# bytes on any host; TestExperimentsDocIsGenerated keeps the blocks equal
# to it). CI uploads the file as an artifact on every run.
EXPERIMENTS_OUT ?= /tmp/weipipe_experiments.txt
experiments:
	$(GO) run ./cmd/weipipe-bench -exp all > $(EXPERIMENTS_OUT)
	@echo "experiments regenerated into $(EXPERIMENTS_OUT)"

# surface prints the size counters ROADMAP "Where the counters stand"
# tallies: non-test Go lines in the root module (benchmark/ is its own
# module), exported fields of the option structs, the fields of a run
# (pipeline.RunSpec and RunHooks, counted by name so `A, B int` is two), the
# training loops (TrainIteration call sites), flag declarations in all
# non-test Go (flag.X( and fs.XVar( alike, so moving a flag into
# RunSpec.Bind keeps it counted), the flags each command's -h lists,
# WEIPIPE_* environment variables, the transport's line count and the
# assembly kernels' line count. CI prints it on every push so a PR's effect
# on the surface is a diff of two logs. It fails when more than two non-test
# call sites outside benchmark/ and examples/ call TrainIteration (RunRank is
# the one training loop, and WeiPipeDP's inner ring the one composition),
# when pipeline.Options has more than 8 fields, comm.TCPOptions more than 5
# (its deadlines are one comm.Deadlines), RunSpec and RunHooks more
# than 24 together, the flag declarations number more than 63 or
# weipipe-train lists more than 36, or when non-test internal/comm declares
# more than 2 interface types (Transport, the whole endpoint contract, and
# the Meter it embeds: an optional interface beside it would bring back a
# type-switch fallback that a wrapper silently drops to): a knob added past
# those counts must retire another. It counts pipeline.Trainer's methods,
# embedded interfaces expanded, and fails above 8: a checkpoint copies
# straight between a trainer's pieces and the snapshot (one unexported
# method reaches them), so a copy-returning export added beside it shows up
# here. It also prints DESIGN.md's size in bytes
# and the longest and the newest CHANGES.md entry (one entry a line), and
# fails when DESIGN.md grows past 117954 bytes — a doc edit replaces text
# instead of appending it — or when the newest entry is over 4096 bytes.
surface:
	@echo "non-test Go lines: $$($(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{range .IgnoredGoFiles}}{{$$d}}/{{.}} {{end}}' ./... \
		| tr ' ' '\n' | grep '\.go$$' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@for t in pipeline.Options comm.TCPOptions schedule.Spec sim.Task; do \
		n=$$($(GO) doc ./internal/$${t%.*} $${t#*.} | grep -c '^	[A-Z][A-Za-z0-9_, ]* [^ ]'); \
		echo "$$t fields: $$n"; \
		[ $$t != pipeline.Options ] || [ $$n -le 8 ] || { echo "surface: pipeline.Options has $$n fields, at most 8"; exit 1; }; \
		[ $$t != comm.TCPOptions ] || [ $$n -le 5 ] || { echo "surface: comm.TCPOptions has $$n fields, at most 5"; exit 1; }; done
	@n=$$(awk '/^type (RunSpec|RunHooks) struct/ { body = 1; next } body && /^}/ { body = 0 } \
		body && !/^[ \t]*(\/\/|$$)/ { k = 1; for (i = 1; i <= NF && $$i ~ /,$$/; i++) k++; n += k } \
		END { print n + 0 }' internal/pipeline/spec.go); \
		echo "pipeline.RunSpec + RunHooks fields: $$n"; \
		[ $$n -le 24 ] || { echo "surface: RunSpec and RunHooks have $$n fields, at most 24"; exit 1; }
	@n=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=examples \
		'\.TrainIteration(' . | wc -l); \
		echo "non-test .TrainIteration( call sites outside benchmark/ and examples/: $$n"; \
		[ $$n -le 2 ] || { echo "surface: $$n TrainIteration call sites, at most 2 (RunRank, WeiPipeDP)"; exit 1; }
	@bin=$$(mktemp -d); for d in cmd/*/; do \
		c=$$(basename $$d); $(GO) build -o $$bin/$$c ./$$d || exit 1; \
		n=$$($$bin/$$c -h 2>&1 | grep -c '^  -'); \
		echo "$$d flags listed by -h: $$n"; \
		[ $$c != weipipe-train ] || [ $$n -le 36 ] || { echo "surface: weipipe-train lists $$n flags, at most 36"; exit 1; }; \
		done; rm -rf $$bin
	@n=$$(grep -rhE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
		'\b(flag|fs)\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var)(Var)?\(' . | wc -l); \
		echo "flag declarations in all: $$n"; \
		[ $$n -le 63 ] || { echo "surface: $$n flag declarations, at most 63"; exit 1; }
	@n=$$(ls internal/comm/*.go | grep -v '_test\.go$$' | xargs cat | grep -cE '^[[:space:]]*(type[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]+interface[[:space:]]*\{'); \
		echo "interface types in non-test internal/comm: $$n"; \
		[ $$n -le 2 ] || { echo "surface: internal/comm declares $$n interface types, at most 2 (Transport, Meter)"; exit 1; }
	@n=$$(awk '/^type [A-Za-z]+ interface ?\{.*\}/ { s = $$0; sub(/^[^{]*\{/, "", s); sub(/\}[^}]*$$/, "", s); \
		k = split(s, a, ";"); for (i = 1; i <= k; i++) if (a[i] ~ /\(/) m[$$2]++; else if (a[i] ~ /[A-Za-z]/) e[$$2] = e[$$2] " " a[i]; next } \
		/^type [A-Za-z]+ interface ?\{/ { t = $$2; body = 1; next } body && /^}/ { body = 0 } \
		body && /^\t[A-Za-z_][A-Za-z0-9_]*\(/ { m[t]++ } body && /^\t[A-Z][A-Za-z0-9_]*$$/ { e[t] = e[t] " " $$1 } \
		function count(n, a, i, k, c) { c = m[n]; k = split(e[n], a, " "); for (i = 1; i <= k; i++) c += count(a[i]); return c } \
		END { print count("Trainer") }' $$(ls internal/pipeline/*.go | grep -v '_test\.go$$')); \
		echo "pipeline.Trainer methods, embedded interfaces expanded: $$n"; \
		[ $$n -le 8 ] || { echo "surface: pipeline.Trainer has $$n methods, at most 8"; exit 1; }
	@echo "WEIPIPE_* environment variables: $$(grep -rhoE --include='*.go' --include=Makefile 'WEIPIPE_[A-Z_]+' . | sort -u | wc -l)"
	@wc -l internal/comm/tcp.go
	@wc -l internal/tensor/*.s
	@n=$$(wc -c < DESIGN.md); echo "DESIGN.md bytes: $$n"; \
		[ $$n -le 117954 ] || { echo "surface: DESIGN.md has $$n bytes, at most 117954"; exit 1; }
	@echo "longest CHANGES.md entry, bytes: $$(LC_ALL=C awk 'length($$0) > m { m = length($$0) } END { print m + 0 }' CHANGES.md)"
	@n=$$(LC_ALL=C awk 'END { print length($$0) }' CHANGES.md); echo "newest CHANGES.md entry, bytes: $$n"; \
		[ $$n -le 4096 ] || { echo "surface: the newest CHANGES.md entry has $$n bytes, at most 4096"; exit 1; }

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
	$(GO) test -bench 'BenchmarkTCPChunk|BenchmarkBeltHop|BenchmarkWireCRC|BenchmarkSealedAdd' -benchmem -run NONE ./internal/comm/
	$(GO) test -bench 'BenchmarkMatMul|BenchmarkTranspose|BenchmarkCausalAttention' -benchmem -run NONE ./internal/tensor/
	$(GO) test -bench 'BenchmarkBlock|BenchmarkAttention' -benchmem -run NONE ./internal/nn/
