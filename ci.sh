#!/bin/sh
# CI gate: formatting, vet, build, doc coverage, full test suite, then
# race-check the packages that share mutable state across goroutines
# (packed GEMM panels, pool fork/join, device queues, metrics registry).
# Run from the repo root.
set -eux

# gofmt must be a no-op everywhere.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Every package must carry a package comment (godoc coverage guard).
undocumented=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/... ./cmd/...)
if [ -n "$undocumented" ]; then
    echo "missing package comment in:" >&2
    echo "$undocumented" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
# bench/ is a module of its own, so the line above does not reach it: run
# the harness' statistics, open-loop pacing, span and BENCHMARK.json-sync
# tests and its all-workloads smoke here.
(cd bench && go test ./...)
# The pure-Go micro-kernel fallbacks (f64 and f32) must stay correct on
# their own: re-run the whole suite with the assembly path compiled out.
# That includes the behaviour lock, whose golden digests (final PHCK
# bytes, epoch-loss bits, simulated seconds) are kept per kernel path:
# go test ./... above checked this build's file, this checks the pure-Go
# one.
go test -tags noasm ./...
# The kernels are written once over float32 and float64, with build-tagged
# assembly and pure-Go stubs (!amd64 || noasm). Type-check and compile
# every package and test file for a port that only has the pure-Go tiles,
# so the generic stack and its tagged files build on a second
# architecture too. Offline; needs only the installed toolchain.
GOARCH=arm64 go vet ./...
# The behaviour lock must not depend on which branch the standard
# library's math.Exp takes: every sigmoid and softmax runs kernels.Exp,
# which gives the same bits with or without FMA. GODEBUG=cpu.fma=off sends
# math.Exp (and math.FMA) down their non-FMA code, as on a host without
# FMA; -count=1 because the test cache does not key on GODEBUG.
GODEBUG=cpu.fma=off go test -count=1 -run 'TestGoldenDigests|TestSigmoid' . ./internal/kernels/
# Fuzz the decoders of bytes read back from files: a PHCK checkpoint and a
# parameter blob. go test ./... above ran only their seed corpora; each
# harness fixes the CRC-64 so mutations reach the field parsers. Then fuzz
# the bytes that arrive over the wire: phiserve's inference handler must
# answer any body with 200, 400, 413 or 422, never a 5xx or a panic.
# Then any float64s and float32s through the vector sigmoid must give
# the scalar loop's bits, and any finite stroke the digit rasteriser
# draws must give the bits of the oracle that runs the exact arithmetic
# on every pixel.
go test -run '^$' -fuzz '^FuzzDecodeCheckpoint$' -fuzztime 5s ./internal/core/
go test -run '^$' -fuzz '^FuzzLoadParamSet$' -fuzztime 5s ./internal/nn/
go test -run '^$' -fuzz '^FuzzInferHandler$' -fuzztime 5s ./cmd/phiserve/
go test -run '^$' -fuzz '^FuzzSigmoidPaths$' -fuzztime 5s ./internal/kernels/
go test -run '^$' -fuzz '^FuzzDrawSegment$' -fuzztime 5s ./internal/data/
# kernels' path property tests switch the dispatch between every path the
# CPU supports inside one binary, so they run under -race here as well.
# core and stack carry the fault-injection, checkpoint/resume and chunk
# prefetch tests, which fill chunks on a feed.Loader goroutine while the
# trainer's goroutine steps the model on the previous chunk; the
# cluster package rides along for its checkpoint-handoff paths; serve is
# the micro-batcher + worker pool; convnet runs its conv kernels across
# varying pool sizes (the bit-determinism-across-workers tests).
# tune joins the race set for its leak-free candidate-evaluation guarantee
# (device audits on every error path). data and feed join for the concurrent
# source readers and the lease/commit protocol's shared cursor state
# (many consumers leasing/committing against one feed).
go test -race ./internal/kernels/... ./internal/parallel/... ./internal/device/... ./internal/metrics/... ./internal/core/... ./internal/stack/... ./internal/cluster/... ./internal/serve/... ./internal/convnet/... ./internal/tune/... ./internal/data/... ./internal/feed/...
# Fork/join gate: the caller runs blocks and claims any a helper has not
# started, so who runs which block depends on scheduling. Exercise the
# claim protocol under several GOMAXPROCS, five times each under the race
# detector, and hold the golden digests, the GEMM's cross-worker-count
# determinism and the serial cutoff's inline == forked property at one and
# four procs.
go test -race -count=5 -cpu 1,2,4 ./internal/parallel/
go test -count=2 -cpu 1,4 -run 'TestGoldenDigests|TestGemmDeterministicAcrossWorkerCounts|TestRegionsInlineMatchFork' . ./internal/kernels/
# Determinism spot-check: the crash/rejoin/resync scenario must produce the
# identical ledger on back-to-back runs (fault injection is seeded, never
# wall-clock dependent).
go test -run TestClusterRecovery -count=2 ./internal/cluster/
# Serving chaos gate: the fault-injected serving suite (transient storms,
# permanent replica loss, fail-fast at zero workers) must hold under the
# race detector, and twice in a row — the injected fault streams are
# seeded, so outcomes and fault ledgers must replay identically. The
# pull batcher's tests (a free worker takes a lone request at once, a busy
# worker takes the pending one when its batch finishes) and the Close leak
# check ride along.
go test -race -run 'TestChaos|TestIdleFlush|TestBusyQueueFlushesOnBatchDone|TestCloseLeavesNothing' -count=2 ./internal/serve/
# Cluster concurrency gate: every live node steps on its own goroutine and
# the barrier downloads, averages and uploads concurrently, so the shared
# feed, the crash/rejoin/straggler paths and every straggler policy must
# hold under the race detector three times in a row, and the concurrent
# step must equal the serial loop bit for bit and re-raise a node's panic
# on the caller.
go test -race -count=3 -run 'TestFeedCluster|TestFaulted|TestClusterRecovery|TestStraggler|TestBackupNode|TestTimeoutDrop|TestConcurrentStep|TestStepPanic' ./internal/cluster/
# Loading-thread determinism gate: the loader's FIFO/panic/join contract,
# the trainer's exact feed ledger at ring depths 1-3, the fill-overlaps-step
# proof and the trainer's failure paths must hold under the race detector
# five times in a row — moving the fill onto feed.Loader may change when a
# chunk is filled, never what or in which order the ledger sees it.
go test -race -count=5 -run 'TestLoader|TestTrainerLedgerExact|TestTrainerFillOverlapsStep|TestTrainerLoaderFailures' \
    ./internal/core/ ./internal/feed/
# Serving smoke: the closed-loop load generator must sustain concurrent
# clients against the in-process server and print a latency report.
go run ./cmd/phiserve -model ae -visible 64 -hidden 16 -loadgen -clients 8 -duration 2s
# Degradation smoke: loadgen against a fault-injected server (transient +
# permanent faults, seeded; a restart intensity high enough that the
# supervisor rebuilds through the permanent losses — 1 % of batches here,
# over a run of hundreds of 1000-batch restart windows per slot). Every
# outcome must be typed, and the report's final "health:" line must show
# at least one live worker and the fault batches it survived.
go run ./cmd/phiserve -model ae -visible 64 -hidden 16 -loadgen -clients 8 \
    -duration 2s -fault-rate 0.05 -fault-permanent 0.2 -fault-seed 7 \
    -workers 2 -max-restarts 100 | grep -E "health: .*\([1-9][0-9]*/2 workers live\), [1-9][0-9]* fault batches"
# The same fault mix at -precision f32: faults are drawn per batch at both
# precisions, so the f32 server must survive them alike.
go run ./cmd/phiserve -model ae -visible 64 -hidden 16 -loadgen -clients 8 \
    -duration 2s -fault-rate 0.05 -fault-permanent 0.2 -fault-seed 7 \
    -workers 2 -max-restarts 100 -precision f32 | grep -E "health: .*\([1-9][0-9]*/2 workers live\), [1-9][0-9]* fault batches"
# Shared-feed cluster smoke: every node streams from one dataset feed
# (lease/commit protocol) under fault injection — the "feed:" line proves
# the lease ledger balanced (leases == commits) across crash/rejoin.
go run ./cmd/phisim -nodes 3 -cluster-steps 20 -feed -numeric \
    -global-batch 24 -visible 32 -hidden 8 \
    -node-fault-rate 0.1 -node-rejoin-after 3 | grep "feed:"
# Convnet train-then-serve smoke: train on labeled digits, export a PHCK
# checkpoint, and serve /predict from it through the load generator at f64
# and at f32 (the geometry flags must match between the commands).
ckpt=$(mktemp -u /tmp/ci-convnet-XXXXXX.phck)
go run ./cmd/phitrain -model convnet -data digits -side 8 -examples 256 \
    -batch 16 -epochs 1 -classes 10 -filters1 3 -kernel1 3 -filters2 4 \
    -kernel2 3 -export "$ckpt"
go run ./cmd/phiserve -model convnet -side 8 -classes 10 -filters1 3 \
    -kernel1 3 -filters2 4 -kernel2 3 -checkpoint "$ckpt" \
    -loadgen -clients 4 -duration 2s
go run ./cmd/phiserve -model convnet -side 8 -classes 10 -filters1 3 \
    -kernel1 3 -filters2 4 -kernel2 3 -checkpoint "$ckpt" -precision f32 \
    -loadgen -clients 4 -duration 2s
rm -f "$ckpt"
