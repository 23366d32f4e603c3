#!/usr/bin/env bash
# Repository CI gate: build, test, lint. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

# Tracked-file guard: no stage may leave a tracked file modified. Record
# what is already modified now; the check at the end fails on anything
# the run adds to that list. Skipped outside a git checkout.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    modified_before=$(git ls-files -m)
    guard_tracked=1
else
    guard_tracked=
fi

# --workspace covers every crate including ulp-exec; keep the engine in
# the -D warnings set explicitly so a membership change can't drop it.
cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p ulp-exec --all-targets -- -D warnings
cargo clippy -p ulp-ir --all-targets -- -D warnings

# Figure outputs: each of the 18 paper-figure bins must reproduce its
# captured stdout in results/<id>.txt byte for byte, so a change that
# moves a published number cannot land without refreshing the capture.
for f in results/*.txt; do
    id=$(basename "$f" .txt)
    env -u ULP_TRACE "${CARGO_TARGET_DIR:-target}/release/$id" | cmp - "$f"
done
echo "figure outputs (results/*.txt byte-identical) OK"

# Telemetry path: one bench binary under ULP_TRACE=summary must render
# the solver-metrics footer, and ULP_TRACE=events must produce valid
# (non-empty, one-object-per-line) JSONL — so the tracing layer can
# never silently rot.
footer=$(ULP_TRACE=summary cargo run --release -q -p ulp-bench --bin fig9a_fmax_vs_iss)
echo "$footer" | grep -q -- "-- solver metrics --"
echo "$footer" | grep -q "total solves"
ULP_TRACE=events cargo run --release -q -p ulp-bench --bin circuit_verification > /dev/null
test -s results/telemetry/circuit_verification.jsonl
head -1 results/telemetry/circuit_verification.jsonl | grep -q '^{"event":".*}$'
echo "telemetry footer + JSONL OK"

# Design lints: every shipped builder netlist must lint clean with
# warnings denied, and every SARIF export must parse (the binary's
# --check re-reads each file with the crate's own JSON reader).
cargo run --release -q -p ulp-bench --bin ulp_lint -- --deny-warnings --check
for f in results/lint/scl-buffer-100p.sarif results/lint/scl-buffer-1n.sarif \
         results/lint/scl-buffer-10n.sarif results/lint/replica-buffer-1n.sarif \
         results/lint/preamp-coupled-1n.sarif results/lint/preamp-decoupled-1n.sarif; do
    test -s "$f"
    grep -q '"version": "2.1.0"' "$f"
done
echo "design lints + SARIF exports OK"

# Sound certification: every builder netlist must certify
# proved-nonsingular with unproven denied, the merged SARIF must parse
# (--check) and carry the right version, the Prometheus counters must
# validate, and the whole export must be byte-deterministic: two runs,
# identical files.
cargo run --release -q -p ulp-bench --bin ulp_certify -- --deny-unproven --check
test -s results/lint/certify.sarif
grep -q '"version": "2.1.0"' results/lint/certify.sarif
test -s results/lint/certify.prom
grep -q '^ulp_certified_total ' results/lint/certify.prom
grep -q '^ulp_certify_unproven_total 0$' results/lint/certify.prom
cp results/lint/certify.sarif results/lint/certify.sarif.run1
cp results/lint/certify.prom results/lint/certify.prom.run1
cargo run --release -q -p ulp-bench --bin ulp_certify -- --deny-unproven --check > /dev/null
cmp results/lint/certify.sarif results/lint/certify.sarif.run1
cmp results/lint/certify.prom results/lint/certify.prom.run1
rm -f results/lint/certify.sarif.run1 results/lint/certify.prom.run1
echo "sound certification (proofs + SARIF/Prometheus byte stability) OK"

# Netlist IR: the declarative pipeline (parse → round-trip → flatten →
# lint → certify → solve → sweep) over every shipped .ulp example. No
# --deny-warnings here: the double-tail comparator's clocked switches
# honestly warn strong-inversion in the reset phase, and its
# cross-coupled latch is honestly unproven (info) — errors still fail.
# Both exports must be byte-deterministic: the SARIF across two runs,
# and the sweep cost ledgers across ULP_JOBS=1 vs 4.
ULP_JOBS=1 cargo run --release -q -p ulp-bench --bin ulp_ir -- \
    --check --ledger-out results/ir/ledger_j1.txt
for f in results/ir/scl_buffer.sarif results/ir/comp_doubletail.sarif; do
    test -s "$f"
    grep -q '"version": "2.1.0"' "$f"
done
cp results/ir/scl_buffer.sarif results/ir/scl_buffer.sarif.run1
cp results/ir/comp_doubletail.sarif results/ir/comp_doubletail.sarif.run1
ULP_JOBS=4 cargo run --release -q -p ulp-bench --bin ulp_ir -- \
    --check --ledger-out results/ir/ledger_j4.txt > /dev/null
cmp results/ir/scl_buffer.sarif results/ir/scl_buffer.sarif.run1
cmp results/ir/comp_doubletail.sarif results/ir/comp_doubletail.sarif.run1
cmp results/ir/ledger_j1.txt results/ir/ledger_j4.txt
rm -f results/ir/scl_buffer.sarif.run1 results/ir/comp_doubletail.sarif.run1
echo "netlist IR (pipeline + SARIF byte stability + ledger determinism ULP_JOBS=1 vs 4) OK"

# Campaign observability: the obs harness runs a 64-die yield campaign
# and a solver-backed dcop sweep under the span profiler, validates the
# Chrome trace JSON and the Prometheus exposition with the crate's own
# readers (--check), and exports the counter-only cost ledger. The
# ledger excludes worker identity and wall time by construction, so the
# serial and 4-worker runs must produce byte-identical files.
ULP_JOBS=1 cargo run --release -q -p ulp-bench --bin ulp_obs -- \
    --dies 64 --ledger-out results/obs/ledger_j1.json --check > /dev/null
ULP_JOBS=4 cargo run --release -q -p ulp-bench --bin ulp_obs -- \
    --dies 64 --ledger-out results/obs/ledger_j4.json --check > /dev/null
cmp results/obs/ledger_j1.json results/obs/ledger_j4.json
test -s results/obs/ulp_obs.trace.json
test -s results/obs/ulp_obs.prom
echo "campaign observability (trace + ledger determinism ULP_JOBS=1 vs 4) OK"

# Execution engine: the determinism suite must pass on both the strictly
# serial path and a 4-worker pool — same bytes, different schedule.
ULP_JOBS=1 cargo test -q -p integration --test exec_determinism
ULP_JOBS=4 cargo test -q -p integration --test exec_determinism
echo "exec determinism (ULP_JOBS=1 and 4) OK"

# Adaptive-transient artifact: it holds only deterministic fields (point
# counts, step/bypass counters, deviations — no wall clock), so a
# timing-free run must reproduce the committed BENCH_tran_adaptive.json
# byte for byte.
cargo run --release -q -p ulp-bench --bin solver_bench -- \
    --stability results/tran_adaptive.stability.json
cmp BENCH_tran_adaptive.json results/tran_adaptive.stability.json
rm -f results/tran_adaptive.stability.json

# Benchmark solver work: at the committed seed, each workload's
# deterministic counters (Newton iterations, gmin fallbacks, LU symbolic
# and refactor counts, step and bypass counters) must equal the record
# in perfbench/counts.jsonl, so a change that claims a speedup cannot
# get it by doing different work. "allocations_per_op" is masked on both
# sides: it counts allocator calls rather than solver work, and the
# record's value is stale.
mask_allocs() { sed -E 's/"allocations_per_op":[0-9]+,//'; }
for w in chain-tran design-check pvt-campaign; do
    got=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --counts --workload "$w" --seed 1 | tail -1 | mask_allocs)
    want=$(grep "\"workload\":\"$w\"" perfbench/counts.jsonl | mask_allocs)
    if [ "$got" != "$want" ]; then
        echo "FAIL: $w solver counts differ from perfbench/counts.jsonl"
        echo "  got:  $got"
        echo "  want: $want"
        exit 1
    fi
done
echo "benchmark solver counts (perfbench/counts.jsonl at seed 1, allocations masked) OK"

# The benchmark's own test: two --counts runs at the committed seed give
# identical records, and a second seed (2) passes every workload's
# output check, design-check's certify verdicts included.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
echo "benchmark self-test (seed 1 repeatable, seed 2 correct) OK"

# Sparse solver bench: times dcop/sweep/transient on every builder
# netlist under both linear-algebra backends plus the adaptive-vs-fixed
# transient comparison, writes BENCH_solver.json and
# BENCH_tran_adaptive.json, and with --assert fails if the sparse path
# ever loses to the dense path on the pre-amplifier transient workload
# or the adaptive engine delivers less than 2x over the fixed march at
# equal accuracy there. The binary writes both JSONs to its working
# directory, so it runs in a scratch directory: this host's timings must
# not overwrite the committed files.
release_dir=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)
bench_dir=$(mktemp -d)
(cd "$bench_dir" && "$release_dir/solver_bench" --assert)
test -s "$bench_dir/BENCH_solver.json"
grep -q '"preamp_tran_speedup"' "$bench_dir/BENCH_solver.json"
grep -q '"preamp_adaptive_speedup"' "$bench_dir/BENCH_solver.json"
rm -rf "$bench_dir"
echo "solver bench (committed adaptive artifact + sparse vs dense) OK"

# Scaling bench: always run it (it asserts serial == parallel results);
# only hold it to the >=2x speedup bar when the host actually has the
# cores to show one.
bench_out=$(cargo bench -q -p ulp-bench --bench exec_scaling)
echo "$bench_out"
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
    echo "$bench_out" | awk '
        # Convert a Duration debug string ("56.272ms", "1.2s", "890.1µs")
        # to seconds.
        function secs(d) {
            mult = 1
            if (d ~ /ns$/)           { mult = 1e-9 }
            else if (d ~ /µs$/ || d ~ /us$/) { mult = 1e-6 }
            else if (d ~ /ms$/)      { mult = 1e-3 }
            gsub(/[^0-9.]/, "", d)
            return d * mult
        }
        /exec_scaling_serial_64_dies/    { serial = secs($4) }
        /exec_scaling_parallel4_64_dies/ { parallel = secs($4) }
        END {
            if (parallel == 0 || serial / parallel < 2.0) {
                printf "FAIL: parallel speedup %.2fx < 2x on a %d-core host\n", serial / parallel, '"$cores"'
                exit 1
            }
            printf "exec scaling OK: %.2fx speedup at 4 workers\n", serial / parallel
        }'
else
    # Too few cores for a wall-clock speedup bar — but a 1-core box can
    # still *prove* schedule-independence: drive the pool through the
    # ulp-check explorer, which interleaves virtual workers regardless
    # of physical parallelism.
    echo "exec scaling: $cores core(s) — speedup bar replaced by explorer determinism check"
    cargo run --release -q -p ulp-check --bin ulp_check -- \
        --workers 3 --trials 8 --bound 3 --walk 128 --seed 20260808
fi

# Concurrency model check: the bounded schedule explorer drives the
# shipped pool/deque/cancel code through every bound-2 schedule of a
# 2-worker/4-trial campaign (exhaustive), plus a deterministic
# 64-schedule random walk at bound 3, writing SARIF next to the design
# lints. The --fault runs assert the toolkit still *detects* seeded
# defects (racy deque, completion-order fold, dropped cancel record).
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --workers 2 --trials 4 --bound 2 --sarif results/lint/concurrency.sarif
test -s results/lint/concurrency.sarif
grep -q '"version": "2.1.0"' results/lint/concurrency.sarif
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --workers 3 --trials 6 --bound 3 --walk 64 --seed 20260808
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --fault race --expect-findings > /dev/null
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --fault fold --expect-findings > /dev/null
cargo run --release -q -p ulp-check --bin ulp_check -- \
    --fault cancel --bound 1 --expect-findings > /dev/null
echo "model check (exhaustive bound 2 + walk 64 @ bound 3 + fault detection) OK"

# Opt-in deep checks: Miri (interpreter-level UB detection) and
# ThreadSanitizer need toolchain components this container may not
# ship; run them when available, say so when not.
if command -v rustup >/dev/null 2>&1 && rustup component list --installed 2>/dev/null | grep -q '^miri'; then
    cargo miri test -p ulp-exec -q
    echo "miri (ulp-exec) OK"
else
    echo "miri: toolchain component unavailable — skipped"
fi
# TSan needs std rebuilt with the sanitizer (-Zbuild-std), which needs
# nightly's rust-src; without it the build can only fail with an ABI
# mismatch, so that case is a named skip. With it, a build or test
# failure is fatal and prints its log.
if ! command -v rustup >/dev/null 2>&1 || ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "tsan: nightly toolchain unavailable — skipped"
elif ! rustup component list --toolchain nightly --installed 2>/dev/null | grep -q '^rust-src'; then
    echo "tsan: nightly lacks rust-src, which -Zbuild-std needs to rebuild std with the sanitizer — skipped"
else
    host=$(rustc +nightly -vV | sed -n 's/^host: //p')
    tsan_log=$(mktemp)
    if RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" -p ulp-exec -q >"$tsan_log" 2>&1; then
        rm -f "$tsan_log"
        echo "tsan (ulp-exec) OK"
    else
        cat "$tsan_log"
        rm -f "$tsan_log"
        echo "FAIL: tsan (ulp-exec)"
        exit 1
    fi
fi

if [ -n "$guard_tracked" ]; then
    modified_now=$(comm -13 <(printf '%s\n' "$modified_before" | sort) <(git ls-files -m | sort))
    if [ -n "$modified_now" ]; then
        echo "FAIL: the run modified tracked files:"
        echo "$modified_now"
        exit 1
    fi
    echo "tracked files unchanged by the run OK"
fi
