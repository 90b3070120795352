#!/usr/bin/env sh
# CI entry point: tier-1 verification plus a fixed-seed torture smoke
# run. Everything is offline and deterministic; a clean exit means the
# build, the rustfmt check (`cargo fmt --all -- --check`), the lint
# gate, the rustdoc link check, the full test suite, the named
# cross-checks (observability and timing models, plus the allocator's
# and the IR liveness's fast paths against their reference
# implementations in `tests/dataflow_differential.rs`, and the
# instruction-cache simulator against its reference in
# `crates/torture/tests/icache_reference.rs`), a
# 200-iteration differential fuzz run (interpreter vs baseline machine vs
# branch-register machine, with the br-verify stage gates and the
# static translation-validation oracle enabled), a 500-seed
# execution-tier differential (interp vs threaded vs traced must agree
# on exits, measurements, global stores and the fetch, prefetch and
# retire streams, on both machines and on fused-compare, four-register
# and unhoisted branch-register builds), the RV32I conformance gate plus a
# 500-seed foreign-ISA ingest differential (reference interpreter vs
# both translated machines, with the br-verify stage gates on, so
# translated foreign code meets every checker), the ISA-coverage gate (br-prof
# --check-coverage), the br-tv translation-validation + static-cost
# gate, the br-explore replay-vs-live smoke, the br-serve chaos smoke
# (which fails if the daemon has not exited 10 s after its Shutdown),
# a short run of every benchmark workload (its own package, which
# nothing else here builds), and the byte-identical golden
# regeneration all passed, with `table1` and `cache_study` regenerated a
# second time at `--jobs 1` so that no paper output depends on the
# thread count. That benchmark run is the only perf step and
# has no throughput floor: regressions are judged by running the
# benchmark on a change and its parent under BENCHMARK.json's bounds.
# See TORTURE.md for what the torture harness checks, VERIFY.md for the
# per-stage static invariants, TV.md for the whole-program layer, and
# INGEST.md for the foreign-ISA path.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo fmt --all -- --check (the tree stays rustfmt-clean)"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc link check (cargo doc, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test -q --workspace (tier-1 and every member crate)"
cargo test -q --workspace

echo "==> observability, timing-model and dataflow cross-checks (named, for log visibility)"
cargo test -q --test profile_equivalence --test trace_hook_cap \
    --test icache_properties --test pipeline_crosscheck --test dataflow_differential
cargo test -q -p br-torture --test replay_properties --test icache_reference

echo "==> torture smoke run (seed 42, 200 iterations, verify gates + tv oracle on, 4 jobs, 60s/case budget)"
cargo run --release -p br-torture -- --seed 42 --iters 200 --verify --tv --jobs 4 --budget-ms 60000

echo "==> fault-injection demo (typed errors, no panics)"
cargo run --release -p br-torture -- --demo-fault

echo "==> execution-tier differential smoke (500 seeds: interp vs threaded vs traced, plus three branch-register codegen variants)"
cargo run --release -p br-torture -- --seed 7 --iters 500 --tiers --jobs 4 --budget-ms 60000

echo "==> RV32I conformance gate (every supported encoding executes and agrees three ways)"
cargo test -q -p br-ingest --test conformance

echo "==> RV32I ingest differential smoke (500 seeds: reference vs baseline vs branch-register, verify gates on)"
cargo run --release -p br-torture -- --rv32 --seed 11 --iters 500 --jobs 4 --verify

echo "==> ISA-coverage gate (every legal encoding of both machines executes)"
cargo run --release -p br-obs --bin br-prof -- --jobs 4 --check-coverage

echo "==> translation-validation + static-cost gate (br-tv --check, test scale)"
cargo run --release -p br-bench --bin br-tv -- --jobs 4 --check --out target/tv_report_ci.json

echo "==> br-explore smoke (small matrix: replayed stats byte-identical to live hooks)"
cargo run --release -p br-bench --bin br-explore -- --smoke --jobs 4

echo "==> br-serve chaos smoke (real daemon, ephemeral port, panic isolation, graceful drain)"
cargo build --release -p br-serve
port_file="target/br_serve_ci_port"
rm -f "$port_file"
./target/release/br-serve --addr 127.0.0.1:0 --chaos --port-file "$port_file" &
serve_pid=$!
i=0
while [ ! -f "$port_file" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "br-serve never wrote its port file"
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
serve_addr="$(cat "$port_file")"
./target/release/br-load --addr "$serve_addr" --smoke --chaos
./target/release/br-load --addr "$serve_addr" --shutdown
# A drain that wedges must fail the step, not hang it: give the daemon
# 10 s to exit.
i=0
while kill -0 "$serve_pid" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "br-serve did not exit after Shutdown"
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
wait "$serve_pid"

echo "==> benchmark smoke, the one perf step (every workload for a few seconds; traced paper_suite checks all three tiers)"
for workload in paper_suite compile_fresh explore_sweep serve_mixed; do
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 0 > /dev/null
done
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --workload paper_suite --seed 1 --seconds 3 --trace 1 > /dev/null

echo "==> results goldens (txt + profile JSON) regenerate byte-identical"
regen_dir="target/results_regen"
rm -rf "$regen_dir"
sh scripts/regen_results.sh "$regen_dir"
for f in results/*.txt results/profile_suite.json results/tv_report.json \
         results/explore_pareto.json; do
    if ! diff -u "$f" "$regen_dir/$(basename "$f")"; then
        echo "GOLDEN DRIFT: $f no longer regenerates byte-identical"
        exit 1
    fi
done
for bin in table1 cache_study; do
    ./target/release/"$bin" --paper --jobs 1 > "$regen_dir/$bin.jobs1.txt"
    if ! diff -u "results/$bin.txt" "$regen_dir/$bin.jobs1.txt"; then
        echo "GOLDEN DRIFT: results/$bin.txt differs at --jobs 1"
        exit 1
    fi
done

echo "CI OK"
