#!/usr/bin/env bash
# CI gate for the workspace. Runs entirely offline (the workspace vendors
# every dependency) and reports per-step wall-clock timings.
#
# Usage:
#   scripts/ci.sh                # full gate: fmt, clippy, doc, build,
#                                # test, serve-faults, alloc-gate, train,
#                                # knn, simd, quant, stream, formats, bench,
#                                # repo-bench
#   scripts/ci.sh --fast         # quick gate: fmt, clippy, test, serve-faults
#                                # (skips the release build and bench smoke)
#   scripts/ci.sh <step>...      # run only the named steps, in order:
#                                #   fmt clippy doc build test
#                                #   serve-faults alloc-gate train knn simd
#                                #   quant stream formats bench repo-bench
#
# Steps:
#   fmt     cargo fmt --check over the whole workspace
#   clippy  clippy with warnings denied, all targets
#   doc     rustdoc with warnings denied (broken or private intra-doc
#           links), one product crate at a time: the root package's `imre`
#           library and imre-cli's `imre` binary share a doc output name,
#           so a workspace-wide run would collide; the vendored harnesses
#           are not documented
#   build   release build of the workspace
#   test    the full test suite (tier-1 gate)
#   serve-faults
#           the serve-path fault-injection suite (deadline shedding,
#           zero-worker shutdown drain, event-loop framing, admission
#           control and stop) plus the TCP end-to-end protocol suite on
#           their own; seconds, so it doubles as a quick lifecycle smoke
#           when iterating on the serving engine or the front end
#   alloc-gate
#           the steady-state allocation budget: the serve-level gate
#           (zero buffer-pool misses across ≥100 warm requests) plus the
#           stricter counting-global-allocator check that a warm inference
#           pass performs zero heap allocations process-wide
#   train   the training-loop gate: the imre-core epoch-stream and resume
#           suites, the trained-artifact digests (skip-gram and LINE
#           tables, the 2-epoch PA-TMR IMRM and its int8 products; LINE's
#           stream refresh digest runs in the stream step), then a
#           CLI-level end-to-end check on the smoke
#           corpus — `imre train` must write one artifact at `--threads 1`,
#           `--threads 4` and under IMRE_FORCE_SCALAR=1, and 2 epochs with
#           `--checkpoint` at `--threads 1` resumed to 4 at `--threads 4`
#           must match a straight 4-epoch run bytewise
#   knn     the kNN-interpolation gate: the imre-ann determinism and search
#           suites (in the dev profile and in release, where only the
#           assert!s guard query lengths), the counting-
#           allocator zero-alloc kNN query gate, and a CLI-level end-to-end
#           check on the smoke corpus — a bundle trained with the default
#           kNN index must serve, three index builds (--threads 4, --threads
#           1, and IMRE_FORCE_SCALAR=1, since every distance goes through
#           the dispatched l2sq kernel) must be byte-identical, and
#           `imre eval --knn` must report the per-bucket table
#   simd    the SIMD kernel gate: the bit-identity proptests and the
#           dispatch suite run twice — once with runtime detection (on
#           capable hardware the dispatch counters must show the vector
#           path was really taken) and once under IMRE_FORCE_SCALAR=1, so
#           the scalar fallback stays exercised on every runner; both passes
#           also hold the fused conv-pool-tanh tape op, whose backward is
#           built from the axpy kernel, to its unfused oracle, and run the
#           whole imre-tensor suite in release, where the kernels' masked
#           column tails and the entry points' length asserts are compiled
#           as they ship (debug_assert! is compiled out there)
#   quant   the int8 quantized-inference gate: the i8 kernel bit-identity
#           proptests (qgemm against per-row qmatvec included) with runtime
#           dispatch and again under IMRE_FORCE_SCALAR=1, in the dev profile
#           and in release, where the VNNI GEMM's masked tail and wrapping
#           epilogue are compiled as they ship; the int8 serving
#           integration suite, the counting-allocator check that a warm
#           quantized inference pass performs zero heap allocations, and a
#           CLI-level end-to-end eval gate on the smoke corpus: train a
#           bundle, `imre quantize --check smoke` it, and fail unless the
#           int8 scores stay within max drift 1e-2 and P@N delta 1.5pt of
#           f32
#   stream  the streaming-ingest gate: the imre-stream suites (streamed
#           vs offline proximity-graph byte-identity, refresh determinism
#           proptests, the pinned refresh digests, the live updater with
#           cold-start admission), and a CLI-level end-to-end check that `imre stream-replay` of a
#           3-batch delta stream is byte-identical to the single-batch
#           build on the merged corpus at --threads 1 and 4
#   formats every artifact codec, in the dev profile and in release
#           (overflow checks differ between them): the golden digests of
#           IMRP/IMRM/IMRC/.imrb v1-v3, the imre_tensor::bytes primitives
#           and file mappings, the IMRP/IMRM/IMRC and IMRA unit tests, the
#           QNT8/IMRA hostile-input sweeps (every prefix and byte flip,
#           owned and mapped), the .imrb v1/v2 and v3 suites, and the
#           256-connection hot-swap-under-load fault injection with its
#           deferred mmap-unmap assertion
#   bench   every imre-bench target at smoke scale (IMRE_FAST=1): each
#           paper table/figure bench must run to exit 0, and micro_ops runs
#           1ms samples so the criterion harness keeps running; no number
#           is read from it (speed is measured by the repo benchmark, two
#           revisions are compared with scripts/ab.sh)
#   repo-bench
#           the repo benchmark (benchmark/, BENCHMARK.json) as a correctness
#           gate: its harness unit tests, then its `--smoke` line — all five
#           workloads cut to a few seconds, every served f32 and int8 reply
#           byte-compared with the in-process `ServingModel::infer` oracle —
#           failing unless five result lines come back, each `correct: true`
#           with `failed: 0`. The numbers of a smoke run are not comparable
#           and are not gated; this is the one end-to-end check that a
#           forward-pass change still serves what the model computes
#
# Per-step wall-clock timings are printed in the summary and appended as
# JSON lines to target/ci/step_timings.jsonl, which CI uploads as an
# artifact.
#
# Environment:
#   IMRE_FORCE_SCALAR=1 pin the scalar kernels (the simd step sets this
#                       itself for its second pass)
set -euo pipefail
cd "$(dirname "$0")/.."

STEP_NAMES=()
STEP_MS=()

run_step() {
    local name="$1"
    shift
    printf '\n=== %s ===\n' "$name"
    local t0 t1 ms
    t0=$(date +%s%N)
    "$@"
    t1=$(date +%s%N)
    ms=$(((t1 - t0) / 1000000))
    STEP_NAMES+=("$name")
    STEP_MS+=("$ms")
    printf -- '--- %s: %d.%03ds ---\n' "$name" $((ms / 1000)) $((ms % 1000))
    # Append-only log: CI invokes ci.sh once per workflow step in the same
    # workspace, so the artifact accumulates every step of the job.
    mkdir -p target/ci
    printf '{"ts":%d,"step":"%s","ms":%d}\n' "$(date +%s)" "$name" "$ms" \
        >>target/ci/step_timings.jsonl
}

step_fmt() {
    cargo fmt --all -- --check
}

step_clippy() {
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

step_doc() {
    local manifest
    for manifest in Cargo.toml crates/*/Cargo.toml; do
        RUSTDOCFLAGS='-D warnings' cargo doc --offline --no-deps -q \
            -p "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)"
    done
}

step_build() {
    cargo build --offline --release --workspace
}

step_test() {
    cargo test --offline -q --workspace
}

step_serve_faults() {
    cargo test --offline -q -p imre-serve --test fault_injection --test serve_end_to_end
}

step_alloc_gate() {
    cargo test --offline -q -p imre-serve --test alloc_steady_state
    cargo test --offline -q -p imre-bench --test zero_alloc_inference
    cargo test --offline -q -p imre-bench --test zero_alloc_knn
    cargo test --offline -q -p imre-bench --test zero_alloc_quant
}

step_knn() {
    # Index-structure suites: HNSW determinism, search, blending (the IMRA
    # codec runs in the formats step). Again in release, where
    # debug_assert! is compiled out: the length checks on queries must
    # still fire.
    cargo test --offline -q -p imre-ann -- --skip serialize::
    cargo test --release --offline -q -p imre-ann -- --skip serialize::

    # Process-global zero-allocation budget of a warm kNN query.
    cargo test --offline -q -p imre-bench --test zero_alloc_knn

    # CLI-level end-to-end on the smoke corpus: bundles embed the index by
    # default, index builds are byte-identical across --threads and kernel
    # tiers (distances are the dispatched l2sq), and `imre eval --knn`
    # reports the per-bucket comparison table.
    cargo build --offline -q --release -p imre-cli
    local imre=target/release/imre
    local dir=target/knn-ci
    rm -rf "$dir" && mkdir -p "$dir"
    local common=(--dataset smoke --model pcnn --seed 5 --epochs 2)

    "$imre" train "${common[@]}" --threads 4 \
        --out "$dir/a.imrm" --bundle "$dir/a.imrb" >/dev/null
    "$imre" train "${common[@]}" --threads 1 \
        --out "$dir/b.imrm" --bundle "$dir/b.imrb" >/dev/null
    IMRE_FORCE_SCALAR=1 "$imre" train "${common[@]}" \
        --out "$dir/s.imrm" --bundle "$dir/s.imrb" >/dev/null
    cmp "$dir/a.imrb" "$dir/b.imrb" ||
        { echo "knn: --threads changed the bundle (index not deterministic)" >&2; exit 1; }
    cmp "$dir/a.imrb" "$dir/s.imrb" ||
        { echo "knn: IMRE_FORCE_SCALAR changed the bundle" >&2; exit 1; }
    echo "knn: bundle byte-identical across --threads and kernel tiers"

    "$imre" eval --dataset smoke --model-file "$dir/a.imrm" --seed 5 \
        --knn 1 --knn-k 4 --knn-lambda 0.3 --knn-buckets 3 >"$dir/eval.txt"
    grep -q "bucket" "$dir/eval.txt" ||
        { echo "knn: eval --knn did not print the per-bucket table" >&2
          cat "$dir/eval.txt" >&2; exit 1; }
    echo "knn: eval --knn reports the per-bucket table"
}

step_train() {
    # The loop's own suites: epoch streams, resume at every epoch (IMRC
    # itself runs in the formats step).
    cargo test --offline -q -p imre-core --lib -- train::tests
    cargo test --offline -q -p imre-core --test checkpoint_resume
    # Both negative-sampling trainers' bytes and the model trained on them.
    cargo test --offline -q -p imre --test trained_digests

    # CLI-level end-to-end on the smoke corpus. The loop shards every
    # mini-batch the same way at any pool width and on either kernel tier:
    # one artifact.
    cargo build --offline -q --release -p imre-cli
    local imre=target/release/imre
    local dir=target/train-ci
    rm -rf "$dir" && mkdir -p "$dir"
    local plain=(train --dataset smoke --model pa-tmr --seed 5)
    "$imre" "${plain[@]}" --epochs 2 --threads 1 --out "$dir/t1.imrm" >/dev/null
    "$imre" "${plain[@]}" --epochs 2 --threads 4 --out "$dir/t4.imrm" >/dev/null
    IMRE_FORCE_SCALAR=1 "$imre" "${plain[@]}" --epochs 2 --out "$dir/scalar.imrm" >/dev/null
    cmp "$dir/t1.imrm" "$dir/t4.imrm" ||
        { echo "train: --threads changed the artifact" >&2; exit 1; }
    cmp "$dir/t1.imrm" "$dir/scalar.imrm" ||
        { echo "train: IMRE_FORCE_SCALAR changed the artifact" >&2; exit 1; }
    echo "train: byte-identical across --threads and kernel tiers"

    # Every epoch boundary is a resume point: 2 epochs with a checkpoint on
    # one thread, resumed to 4 on four, equal a straight 4-epoch run.
    "$imre" "${plain[@]}" --epochs 4 --out "$dir/straight.imrm" >/dev/null
    "$imre" "${plain[@]}" --epochs 2 --threads 1 \
        --checkpoint "$dir/mid.imrc" --out "$dir/half.imrm" >/dev/null
    "$imre" "${plain[@]}" --epochs 4 --threads 4 \
        --resume "$dir/mid.imrc" --out "$dir/resumed.imrm" >/dev/null
    cmp "$dir/straight.imrm" "$dir/resumed.imrm" ||
        { echo "train: resume diverged from the uninterrupted run" >&2; exit 1; }
    echo "train: checkpoint resume matches the uninterrupted run"
}

step_simd() {
    # Pass 1 — runtime detection: bit-identity of every *_into kernel at 1
    # and 4 threads, plus the dispatch suite, which asserts via the
    # dispatch-path counters that SIMD-capable hardware really took the
    # vector path (counted, not inferred).
    cargo test --offline -q -p imre-tensor --test proptest_into_kernels
    cargo test --offline -q -p imre-tensor --test simd_dispatch
    cargo test --offline -q -p imre-tensor --test proptest_pool
    # The fused conv-pool-tanh op's backward is row axpys through the
    # dispatched kernel: hold it to the unfused oracle on each tier.
    cargo test --offline -q -p imre-nn --lib conv::tests::fused_
    # Release: the kernels and the length asserts as they ship.
    cargo test --release --offline -q -p imre-tensor

    # Pass 2 — forced scalar fallback: the same suites must hold with the
    # vector kernels pinned off, so the fallback path stays green on every
    # runner regardless of what the CPU reports.
    IMRE_FORCE_SCALAR=1 cargo test --offline -q -p imre-tensor --test proptest_into_kernels
    IMRE_FORCE_SCALAR=1 cargo test --offline -q -p imre-tensor --test simd_dispatch
    IMRE_FORCE_SCALAR=1 cargo test --offline -q -p imre-nn --lib conv::tests::fused_
    IMRE_FORCE_SCALAR=1 cargo test --release --offline -q -p imre-tensor
    echo "simd: vector and forced-scalar passes both green"
}

step_quant() {
    # Bit-identity of the i8 kernels across backends and thread counts —
    # once with runtime dispatch, once with the scalar fallback pinned, so
    # the exact-integer determinism contract holds on every runner. Again
    # in release: the GEMM's masked tail and wrapping-i32 epilogue as they
    # ship, and its length asserts with debug_assert! compiled out.
    cargo test --offline -q -p imre-tensor --test proptest_quant
    IMRE_FORCE_SCALAR=1 cargo test --offline -q -p imre-tensor --test proptest_quant
    cargo test --release --offline -q -p imre-tensor --test proptest_quant
    IMRE_FORCE_SCALAR=1 cargo test --release --offline -q -p imre-tensor --test proptest_quant

    # The int8 serving integration suite (the .imrb v3 layout runs in the
    # formats step).
    cargo test --offline -q -p imre-serve --test quant_serving

    # Process-global zero-allocation budget of a warm quantized pass.
    cargo test --offline -q -p imre-bench --test zero_alloc_quant

    # CLI-level end-to-end eval gate on the smoke corpus: the quantized
    # model must track f32 within max score drift 1e-2 — the real check —
    # and at most one rank flip at a P@N cut (P@100 moves in 1.00pt steps,
    # so a 0.5pt bound would assert "no flip" of scores 2-6e-3 apart), or
    # `imre quantize` exits nonzero.
    cargo build --offline -q --release -p imre-cli
    local imre=target/release/imre
    local dir=target/quant-ci
    rm -rf "$dir" && mkdir -p "$dir"
    "$imre" train --dataset smoke --model pa-tmr --seed 5 --epochs 2 \
        --out "$dir/m.imrm" --bundle "$dir/m.imrb" >/dev/null
    "$imre" quantize --bundle "$dir/m.imrb" --out "$dir/m.q.imrb" \
        --check smoke --seed 5 --max-drift 0.01 --max-pn-delta 1.5
    echo "quant: int8 eval gate held (drift <= 1e-2, P@N delta <= 1.5pt)"
}

step_stream() {
    # Streaming-ingest suites: streamed-graph byte-identity and refresh
    # determinism proptests, the pinned refresh digests, and the live
    # background-updater integration (cold start entity answerable after a
    # hot-swap publish). The
    # hot-swap-under-load fault injection runs in the formats step.
    cargo test --offline -q -p imre-stream

    # CLI-level end-to-end: replaying a 3-batch delta stream must produce a
    # bundle byte-identical to the single-batch build on the merged corpus,
    # at --threads 1 and --threads 4 (the refresh retrains on merged counts).
    # The --threads cmp also gates LINE's order split: at 4 threads the
    # second-order pass runs on its own thread, at 1 both run in one pass.
    cargo build --offline -q --release -p imre-cli
    local imre=target/release/imre
    local dir=target/stream-ci
    rm -rf "$dir" && mkdir -p "$dir"
    "$imre" train --dataset smoke --model pa-tmr --seed 5 --epochs 2 \
        --out "$dir/m.imrm" --bundle "$dir/m.imrb" >/dev/null

    # Three delta batches over cold-start entities (admission + graph
    # growth), plus a duplicate line that dedup must drop identically
    # however the stream is batched.
    printf '%s\n' \
        $'1\tnovaA:1\tnovaB' $'2\tnovaA\tnovaC:2' $'3\tnovaA\tnovaB' '' \
        $'4\tnovaB\tnovaC' $'2\tnovaA\tnovaC:2' $'5\tnovaA\tnovaC' '' \
        $'6\tnovaB\tnovaC\tnovaA' $'7\tnovaA\tnovaB' \
        >"$dir/deltas.tsv"
    grep -v '^$' "$dir/deltas.tsv" >"$dir/merged.tsv"

    "$imre" stream-replay --bundle "$dir/m.imrb" --deltas "$dir/deltas.tsv" \
        --out "$dir/batched_t4.imrb" --threads 4 >/dev/null
    "$imre" stream-replay --bundle "$dir/m.imrb" --deltas "$dir/deltas.tsv" \
        --out "$dir/batched_t1.imrb" --threads 1 >/dev/null
    "$imre" stream-replay --bundle "$dir/m.imrb" --deltas "$dir/merged.tsv" \
        --out "$dir/merged_t1.imrb" --threads 1 >/dev/null
    cmp "$dir/batched_t4.imrb" "$dir/batched_t1.imrb" ||
        { echo "stream: --threads changed the replayed bundle" >&2; exit 1; }
    cmp "$dir/batched_t4.imrb" "$dir/merged_t1.imrb" ||
        { echo "stream: batching changed the replayed bundle" >&2; exit 1; }
    echo "stream: replay byte-identical across batching and --threads"
}

step_formats() {
    # Twice: the dev profile panics on integer overflow, release wraps, so
    # a size check that only one of them exercises is caught either way.
    local profile
    for profile in dev release; do
        local flags=(--offline -q)
        [[ "$profile" == release ]] && flags+=(--release)
        cargo test "${flags[@]}" -p imre --test golden_digests
        cargo test "${flags[@]}" -p imre-tensor --lib -- bytes:: mmap::
        cargo test "${flags[@]}" -p imre-nn --lib -- serialize::
        cargo test "${flags[@]}" -p imre-core --lib -- persist:: checkpoint::
        cargo test "${flags[@]}" -p imre-ann --lib -- serialize::
        cargo test "${flags[@]}" -p imre-serve --test artifact_bytes \
            --test bundle_compat --test bundle_v3 --test hot_swap_under_load
    done
    echo "formats: every codec green in the dev and release profiles"
}

step_bench() {
    IMRE_FAST=1 CRITERION_SAMPLE_MS=1 cargo bench --offline -p imre-bench
}

step_repo_bench() {
    cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

    # A run with wrong outputs says so in its result line and still exits
    # 0, so the verdict is read from the five result lines.
    local out=target/ci/repo-bench-smoke.txt
    mkdir -p target/ci
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke |
        tee "$out"
    local results passed
    results=$(grep -c '^{' "$out" || true)
    passed=$(grep '^{' "$out" | grep '"correct": true' | grep -c '"failed": 0,' || true)
    if [[ "$results" -ne 5 || "$passed" -ne 5 ]]; then
        echo "repo-bench: $passed of $results result lines are correct with failed=0 (want 5 of 5)" >&2
        exit 1
    fi
    echo "repo-bench: 5 workloads correct, 0 failed requests"
}

case "${1:-}" in
--fast)
    steps=(fmt clippy test serve-faults)
    ;;
"")
    steps=(fmt clippy doc build test serve-faults alloc-gate train knn simd quant stream formats bench repo-bench)
    ;;
*)
    steps=("$@")
    ;;
esac

for s in "${steps[@]}"; do
    case "$s" in
    fmt | clippy | doc | build | test | train | knn | simd | quant | stream | formats | bench) run_step "$s" "step_$s" ;;
    serve-faults) run_step "$s" step_serve_faults ;;
    alloc-gate) run_step "$s" step_alloc_gate ;;
    repo-bench) run_step "$s" step_repo_bench ;;
    *)
        echo "ci.sh: unknown step '$s' (valid: fmt clippy doc build test serve-faults alloc-gate train knn simd quant stream formats bench repo-bench)" >&2
        exit 2
        ;;
    esac
done

# Informational, never a gate: where the lines are and what this change did
# to them (HEAD~1 may be missing in a shallow checkout).
scripts/loc.sh || true

printf '\n=== ci.sh summary ===\n'
for i in "${!STEP_NAMES[@]}"; do
    ms=${STEP_MS[$i]}
    printf '%-12s %6d.%03ds\n' "${STEP_NAMES[$i]}" $((ms / 1000)) $((ms % 1000))
done
printf 'ci.sh: all gates passed\n'
