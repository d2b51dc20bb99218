#!/usr/bin/env bash
# Tier-1 offline verification gate (see ROADMAP.md).
#
# Runs the exact checks a PR must keep green, with no network access:
#   1. release build of the whole workspace
#   2. the full test suite, twice: once forced serial AND forced-scalar
#      kernels (GIST_THREADS=1 GIST_SIMD=scalar) and once on the default
#      gist-par pool with runtime-detected SIMD — the two runs must both
#      pass, so any thread-count- or vector-width-dependent behaviour fails
#      the gate. The equivalence matrix (tests/matrix/mod.rs, linked by
#      tests/equivalence_matrix.rs and the per-axis suites that keep their
#      train-step test names as its views, each the full cross of the axes
#      it names) additionally crosses every
#      available GIST_SIMD level, thread count, alloc policy, plan
#      granularity, offload, mode, model, replica count, transport and grad
#      codec pairwise in-process, every training step bit-compared against
#      one reference per (model, numeric class); `wc -l tests/*.rs`, with
#      and without the harness in tests/matrix/, is printed into every log
#   3. rustfmt conformance (rustfmt.toml at the repo root)
#   4. clippy over every workspace crate and all targets, warnings denied
#   5. the memory oracle gate: a traced training step per small net x stash
#      mode (heap and arena policies), failing if the runtime accountant's
#      observed peak disagrees with the static planner's prediction, any
#      packed layout overlaps, or an arena step escapes its planned slab
#   6. the offload differential gate: recompute/swap training steps must be
#      bit-identical to resident execution and match the offload-aware
#      static prediction event-for-event, plus a CLI smoke of
#      `train --offload recompute|swap`
#   7. the replica-determinism gate (the matrix's trainer cells, run
#      twice by step 2): merged updates bitwise-invariant across replica
#      counts with codecs on every wire (DPR trajectories FNV-pinned in
#      tests/dist_equivalence.rs, with executed-cDMA bytes priced exactly)
#      — plus a CLI smoke of `train --replicas N --grad-codec ssdc|dpr:8`
#   8. the serve gate (tests/serve_equivalence.rs, run twice by step 2):
#      every job in a concurrent mix fingerprints bitwise-identical to its
#      solo run across interleavings/threads/alloc, the budget oracle holds
#      on 64+ random mixes, park/resume is invisible — plus a CLI smoke of
#      `serve` running a scripted 4-job mix under a tight --mem-budget
#   9. the plan-granularity gate (the matrix's `plan=wave` cells, run
#      twice by step 2, crossed with threads, SIMD, offload and every
#      model), plus a release CLI smoke: arena training crossed over
#      `--plan event|wave` x GIST_THREADS={1,2} must print one identical
#      train fingerprint (per-step loss bits + all trained weight bits)
#      across all four runs — wave-concurrent arena execution is only
#      allowed to change the slab, never a bit of the training
#  10. the placement gate (the matrix's `transport=mesh|tcp` cells, run
#      twice by step 2): the one data-parallel step, run by trainers that
#      each own one rank over channel-mesh and loopback-TCP transports,
#      bitwise-identical to the trainer that owns every rank, every
#      transfer paired sender-to-receiver and priced per edge — plus a
#      CLI smoke forking a real 2-process loopback world
#      (`train --transport tcp --spawn-local 2`) whose printed fingerprint
#      must equal the in-process `--replicas 2` run's, with garbage
#      GIST_NET_TIMEOUT_MS warning and falling back (parse_or_warn policy)
#  11. a smoke run of the repo benchmark package (benchmark/): it sits
#      outside the workspace and builds against the `gist` facade, so a
#      facade API break would otherwise show only in the benchmark run —
#      and a facade-compatible change can still fail one of its output
#      checks at run time, so `train_stash`, `train_conv`, `exchange_mlp`
#      (whose check is the wire's guard: loopback-TCP raw loss bits equal
#      the in-process loss bits at every step) and `serve_churn` (pooling
#      and the rest of the kernels on three more models, each job's
#      served fingerprint equal to its solo run's) each run for 2 s and
#      must end on `"correct": true` with `"failed": 0`
#  12. the suffix-family tripwire: a training step is configured by one
#      `ExecSpec` value and described by one lowered `StepProgram`, so no
#      constructor or predictor per axis (`new_with_*`,
#      `predict_step_events*`, `predicted_peak_bytes*`,
#      `predicted_replica_slab_bytes*`) may reappear under crates/ beyond
#      the three shims the benchmark package still compiles against — and
#      the line budget of crates/runtime/src is printed into every log.
#      Likewise one train state: parameters are one struct walked by
#      `ParamSet::tensors`, so no `NodeParams::` variant match may reappear
#      under crates/ src/ tests/ examples/, and the FNV offset basis may
#      appear in two files under crates/ only (the runtime's fingerprint
#      and gist-testkit's seed hash). And one convolution lowering: the
#      direct 3x3 kernel (`conv3x3s1_image`, `Conv3Shape`) and the
#      pass-through `ops::matmul::` wrapper layer stay deleted. And one
#      stash seam: codecs are named in `gist-encodings` (`stash.rs`) and
#      chosen in `gist-core::policy`, nowhere else on the executed path —
#      outside `#[cfg(test)]` modules, crates/runtime/src and
#      crates/offload/src name no codec container and match on no
#      `Encoding` variant, and the executor's private stash enum and the
#      lowering's size table (`static_stash_bytes`) stay deleted. And one
#      model per question on the static side: the closed-form swap and
#      recompute models and the workspace knob stay deleted
#      (`gist-offload` plans and prices what runs), and `.dw` structures
#      are built in one file under crates/ (the baseline class analysis;
#      the Schedule Builder rewrites that inventory, it does not re-derive
#      it). And one equivalence matrix: a train-step fingerprint helper
#      (`fn train_fingerprint` and its `run_`/`dist_`/`net_` twins) is
#      defined nowhere but tests/matrix/mod.rs. And one entry point per
#      kernel: gist-tensor's alloc-returning wrappers (`pub fn forward(`,
#      `maxpool_backward(`, … under crates/tensor/src/ops), their result
#      structs, `BitMask::relu_backward` and the accountant's second
#      offset sweep (`fn verify_offsets` under crates/obs) stay deleted.
#      And a step is only its program: the lowering names every buffer, so
#      the offload buffer formats (`"{}.sin"`, `"{}.rstash"`, `"{}.ry…"`)
#      are spelled under crates/ in crates/runtime/src/program.rs only;
#      the second forward walk (`fn predict(`, `forward_logits`), the
#      dropout side table (`drop_masks`), the uncalled optimizer and loops
#      (`MomentumSgd`, `LrSchedule`, `train_loop`), the third peak-of-
#      lifetimes computation (`LivenessTable`) and gist-dist's private byte
#      cursor (`struct Rd`) stay deleted under crates/ src/ tests/
#      examples/. And the gradient is the wire buffer: outside test
#      modules, gist-dist's trainer copies no gradient (`to_vec()` in
#      crates/dist/src/trainer.rs), the weight-gradient kernels of
#      crates/tensor/src/ops/{linear,conv,batchnorm}.rs allocate no output
#      (`Tensor::zeros(` anywhere but the `backward_with_into` shims the
#      benchmark package still calls), and `read_frame` is the one
#      streaming reader (`read_frame_with`) with a sink, not a second
#      whole-`Vec` Grad branch — and the non-test line count of
#      crates/*/src (lines before each file's first `#[cfg(test)]`) is
#      printed into every log
#  13. the perf ledger: the newest root `BENCH_<pr>.json` (a change-side
#      sweep of the repo benchmark folded by `bench_ledger`) against the
#      one before it, row by row under BENCHMARK.json's bounds — a row
#      whose spread exceeds its bound, or whose two files name different
#      hosts, reads `unresolved` and passes; a `worse` row fails the gate
#
#  14. the figure goldens: every deterministic figure/table/extension
#      harness is re-run and diffed against its committed
#      `results/<bin>.txt`, so the evidence EXPERIMENTS.md cites cannot
#      drift from the code. Two of them are also gates that exit non-zero
#      by themselves — `extra_runtime_validation` (step 5's memory
#      oracle) and `extra_offload_validation` (step 6's differential).
#      Not covered: `fig11` (wall-clock timings) and the trained curves
#      `fig12` / `fig14`
#  15. the SIMD-level smoke: `train small-vgg --batch 4 --steps 3` at
#      each of GIST_SIMD=scalar|sse2|avx2|avx512 this CPU supports (a
#      level whose run warns "not supported" is skipped) must print the
#      one pinned fingerprint 0xbbea10f86e0733c0 — every level computes
#      the same bits, the widest GEMM tiles included
#
# Run this before committing, and append a one-line summary of what
# changed to CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> GIST_THREADS=1 GIST_SIMD=scalar cargo test -q --offline (forced serial + scalar kernels)"
GIST_THREADS=1 GIST_SIMD=scalar cargo test -q --offline --workspace

echo "==> cargo test -q --offline (default thread pool + detected SIMD)"
env -u GIST_THREADS -u GIST_SIMD cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> benchmark smoke run (outside the workspace; output checks must pass)"
for workload in train_stash train_conv exchange_mlp serve_churn; do
    # A failed check also exits non-zero; the last line says which, so
    # report it instead of letting `set -e` stop silently here.
    last=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 | tail -n 1) || true
    if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0[,}]' <<<"$last"; then
        echo "benchmark workload $workload failed its checks: $last" >&2
        exit 1
    fi
    echo "$workload: ok"
done

echo "==> perf ledger (latest BENCH_<pr>.json against the one before it)"
mapfile -t ledger < <(ls BENCH_*.json | sort -V | tail -n 2)
if [ "${#ledger[@]}" -eq 2 ]; then
    # `unresolved` (a spread wider than the bound, or another host) passes;
    # a `worse` row exits non-zero and stops the gate here.
    cargo run --release -q --offline -p gist-bench --bin bench_ledger -- \
        compare "${ledger[0]}" "${ledger[1]}"
fi

echo "==> suffix-family tripwire (one ExecSpec, one StepProgram)"
families=$(grep -rnE "fn (new_with_|predict_step_events|predicted_peak_bytes|predicted_replica_slab_bytes)" crates/ |
    grep -vE "fn (new_with_granularity|predict_step_events_granular|predicted_peak_bytes_granular)\(" || true)
if [ -n "$families" ]; then
    echo "a per-axis constructor/predictor family reappeared (build an ExecSpec instead):" >&2
    echo "$families" >&2
    exit 1
fi
wc -l crates/runtime/src/*.rs | tail -1
walks=$(grep -rn "NodeParams::" crates src tests examples || true)
if [ -n "$walks" ]; then
    echo "a hand-written parameter walk reappeared (use ParamSet::tensors / bits / fingerprint):" >&2
    echo "$walks" >&2
    exit 1
fi
forks=$(grep -rnE "conv3x3s1_image|Conv3Shape|ops::matmul::" crates src tests examples || true)
if [ -n "$forks" ]; then
    echo "a second conv lowering or the matmul wrapper layer reappeared (im2col + gist_simd::matmul_*_into):" >&2
    echo "$forks" >&2
    exit 1
fi
codecs=$(
    for f in crates/runtime/src/*.rs crates/offload/src/*.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /BitMask|CsrMatrix|DprBuffer|SsdcConfig|Encoding::(Binarize|Ssdc|Dpr)/ { print f ":" FNR ":" $0 }' "$f"
    done
    grep -rnE "static_stash_bytes|enum Stash\b" crates/runtime || true
)
if [ -n "$codecs" ]; then
    echo "a codec is named outside the stash seam (gist_encodings::{StashCodec, Stash}; chosen in gist-core::policy):" >&2
    echo "$codecs" >&2
    exit 1
fi
twins=$(grep -rnE "\bswap_overhead\b|vdnn_backward_pipeline|apply_sqrt_recompute|composition_report|WorkspaceMode" \
    crates src tests examples || true)
if [ -n "$twins" ]; then
    echo "a second static model reappeared (price gist_offload::{OffloadPlan::plan, simulate}; baseline_inventory(graph)):" >&2
    echo "$twins" >&2
    exit 1
fi
dw_files=$(grep -rlF '"{}.dw"' crates)
if [ "$dw_files" != "crates/graph/src/class.rs" ]; then
    echo "weight-gradient structures are built outside gist_graph::class::baseline_inventory:" >&2
    echo "$dw_files" >&2
    exit 1
fi
helpers=$(grep -rnE "fn (train|run|dist|net)_fingerprint" crates src tests examples |
    grep -v "^tests/matrix/mod.rs:" || true)
if [ -n "$helpers" ]; then
    echo "a train-step fingerprint helper reappeared outside the equivalence matrix (add a matrix::views! entry instead):" >&2
    echo "$helpers" >&2
    exit 1
fi
wrappers=$(
    grep -rnE "^pub fn (forward|backward|maxpool_forward|maxpool_backward|avgpool_forward|avgpool_backward|concat_forward|concat_backward)\(" \
        crates/tensor/src/ops || true
    grep -rnE "\b(ConvGrads|LinearGrads|BatchNormGrads|MaxPoolOutput)\b|fn relu_backward\(" \
        crates src tests examples || true
    grep -rn "fn verify_offsets" crates/obs || true
)
if [ -n "$wrappers" ]; then
    echo "a second entry point reappeared (call the _into kernel; check offsets with gist_memory::check_no_overlap_waves):" >&2
    echo "$wrappers" >&2
    exit 1
fi
names=$(grep -rnE '"\{[^"]*\}\.(sin|rstash|ry)' crates | grep -v "^crates/runtime/src/program.rs:" || true)
if [ -n "$names" ]; then
    echo "a step buffer is named outside the lowering (StepProgram::lower names every buffer):" >&2
    echo "$names" >&2
    exit 1
fi
seconds=$(grep -rnE "MomentumSgd|LrSchedule|train_loop|fn predict\(|forward_logits|drop_masks|LivenessTable|struct Rd\b" \
    crates src tests examples || true)
if [ -n "$seconds" ]; then
    echo "a deleted second path reappeared (one forward walk, re-derived dropout bits, one update rule, one loop, one cursor):" >&2
    echo "$seconds" >&2
    exit 1
fi
copies=$(
    awk '/^#\[cfg\(test\)\]/ { exit } /to_vec\(\)/ { print FILENAME ":" FNR ":" $0 }' crates/dist/src/trainer.rs
    for f in crates/tensor/src/ops/linear.rs crates/tensor/src/ops/conv.rs crates/tensor/src/ops/batchnorm.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^pub fn backward_with_into/ { shim = 1 }
            !shim && /Tensor::zeros\(/ { print f ":" FNR ":" $0 } shim && /^}/ { shim = 0 }' "$f"
    done
    reader=$(awk '/^pub fn read_frame\(/ { on = 1 } on { print } on && /^}/ { exit }' crates/dist/src/frame.rs)
    if ! grep -q "read_frame_with" <<<"$reader" || grep -qE "read_exact|read_to_end|Msg::Grad" <<<"$reader"; then
        echo "crates/dist/src/frame.rs: read_frame reads a frame itself:"
        echo "$reader"
    fi
)
if [ -n "$copies" ]; then
    echo "a gradient copy reappeared on the data-parallel step (kernels write the caller's dw/db; frames stream through read_frame_with):" >&2
    echo "$copies" >&2
    exit 1
fi
echo "non-test lines in crates/*/src: $(find crates -path '*/src/*' -name '*.rs' -print0 |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }')"
wc -l tests/*.rs | tail -1
wc -l tests/*.rs tests/matrix/*.rs | tail -1
fnv_files=$(grep -rl "0xcbf2_9ce4" crates | wc -l)
if [ "$fnv_files" -gt 2 ]; then
    echo "FNV-1a is spelled in $fnv_files files under crates/ (use ParamSet::fingerprint):" >&2
    grep -rl "0xcbf2_9ce4" crates >&2
    exit 1
fi

echo "==> figure goldens (deterministic harnesses vs results/, incl. the memory oracle and offload gates)"
for bin in extra_runtime_validation extra_offload_validation \
    fig01_memory_breakdown fig02_lifetime_timeline fig03_stashed_breakdown table1_techniques \
    fig08_end_to_end_mfr fig09_perf_overhead fig10_lossless_isolation fig13_dpr_mfr \
    fig15_vdnn_compare fig16_resnet_scaling fig17_dynamic_alloc \
    extra_minibatch_sweep extra_distributed_pcie extra_recompute_composition extra_allocator_ablation; do
    out=$(cargo run --release -q --offline -p gist-bench --bin "$bin")
    if ! diff <(echo "$out") "results/$bin.txt"; then
        echo "$bin no longer prints results/$bin.txt (regenerate it and the prose that cites it)" >&2
        exit 1
    fi
    echo "$bin: ok"
done

echo "==> CLI offload smoke (slab capacity + simulated stall must print)"
out=$(cargo run --release -q --offline -p gist-cli -- \
    train small-vgg --batch 4 --steps 1 --alloc arena --offload recompute)
echo "$out"
grep -q "arena slab:" <<<"$out" && grep -q "simulated step:" <<<"$out"
out=$(cargo run --release -q --offline -p gist-cli -- \
    train small-vgg --batch 4 --steps 1 --alloc arena --offload swap)
echo "$out"
grep -q "arena slab:" <<<"$out" && grep -q "simulated step:" <<<"$out"

echo "==> CLI distributed smoke (replica slab + wire bytes + all-reduce stall must print)"
out=$(cargo run --release -q --offline -p gist-cli -- \
    train tiny-convnet --batch 2 --steps 1 --replicas 2 --grad-codec ssdc)
echo "$out"
grep -q "replica slab:" <<<"$out" && grep -q "all-reduce" <<<"$out"
out=$(cargo run --release -q --offline -p gist-cli -- \
    train tiny-convnet --batch 2 --steps 1 --replicas 4 --grad-codec dpr:8)
echo "$out"
grep -q "replica slab:" <<<"$out" && grep -q "all-reduce" <<<"$out"

echo "==> CLI serve smoke (scripted 4-job mix under a tight budget)"
out=$(cargo run --release -q --offline -p gist-cli -- \
    serve --mem-budget 96k --order rotating)
echo "$out"
grep -q "4/4 jobs completed" <<<"$out"
grep -q "budget oracle ok" <<<"$out"
# 96 KiB is roughly half the mix's summed leases, so the scheduler must
# queue and park to fit — the smoke asserts that actually happened.
grep -Eq "[1-9][0-9]* park" <<<"$out"

echo "==> CLI plan-granularity smoke (event|wave x serial|pool, one fingerprint)"
fp=""
for plan in event wave; do
    for threads in 1 2; do
        out=$(GIST_THREADS=$threads cargo run --release -q --offline -p gist-cli -- \
            train small-vgg --batch 4 --steps 2 --alloc arena --plan "$plan")
        echo "$out" | sed -n "1p;\$p"
        grep -q "($plan granularity)" <<<"$out"
        this=$(grep -o "train fingerprint: 0x[0-9a-f]*" <<<"$out")
        test -n "$this"
        if [ -z "$fp" ]; then fp="$this"; fi
        if [ "$this" != "$fp" ]; then
            echo "plan=$plan GIST_THREADS=$threads diverged: '$this' != '$fp'" >&2
            exit 1
        fi
    done
done

echo "==> CLI SIMD-level smoke (one pinned fingerprint at every supported level)"
for level in scalar sse2 avx2 avx512; do
    out=$(GIST_SIMD=$level cargo run --release -q --offline -p gist-cli -- \
        train small-vgg --batch 4 --steps 3 2>&1)
    if grep -q "not supported" <<<"$out"; then
        echo "GIST_SIMD=$level: not supported on this CPU, skipped"
        continue
    fi
    this=$(grep -o "train fingerprint: 0x[0-9a-f]*" <<<"$out")
    if [ "$this" != "train fingerprint: 0xbbea10f86e0733c0" ]; then
        echo "GIST_SIMD=$level printed '$this', not the pinned 0xbbea10f86e0733c0" >&2
        exit 1
    fi
    echo "GIST_SIMD=$level: $this"
done

echo "==> CLI multi-process transport smoke (2 forked TCP ranks == in-process)"
out=$(GIST_NET_TIMEOUT_MS=soon cargo run --release -q --offline -p gist-cli -- \
    train tiny-convnet --batch 2 --steps 2 --replicas 2 --transport tcp \
    --spawn-local 2 --grad-codec dpr:8 2>&1)
echo "$out"
grep -q "rendezvous complete" <<<"$out"
# Garbage GIST_NET_TIMEOUT_MS must warn and fall back, not fail the run.
grep -q "GIST_NET_TIMEOUT_MS" <<<"$out"
tcp_fp=$(grep -o "^train fingerprint: 0x[0-9a-f]*" <<<"$out")
test -n "$tcp_fp"
out=$(cargo run --release -q --offline -p gist-cli -- \
    train tiny-convnet --batch 2 --steps 2 --replicas 2 --grad-codec dpr:8)
echo "$out"
dist_fp=$(grep -o "train fingerprint: 0x[0-9a-f]*" <<<"$out")
if [ "$tcp_fp" != "$dist_fp" ]; then
    echo "multi-process TCP fingerprint '$tcp_fp' != in-process '$dist_fp'" >&2
    exit 1
fi

echo "verify: all tier-1 checks passed"
