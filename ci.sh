#!/usr/bin/env sh
# CI gate: static checks first (fast fail), then build, then the full test
# suite, then the observability smoke + bench-regression trajectory.
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo xtask lint --scan-only --json > target/lint_report.json
cargo build --release
cargo test -q

# Observability smoke: one observed run must pass its own conservation /
# determinism self-check and produce parseable exports.
OBS_OUT="${OBS_OUT:-target/obs-smoke}"
cargo run --release --bin obs_report -- \
    --app TSP --mode I+P+D --nprocs 4 --out-dir "$OBS_OUT" --selfcheck

# Critical-path smoke: the dependency graph must build, the conservation
# law (critical-path length == total cycles) must hold, and the what-if
# prediction must land inside the documented accuracy bound.
cargo run --release --bin critpath_report -- \
    --app TSP --no-cache --quiet --check --out "$OBS_OUT/critpath.json"

# Timeline smoke: the windowed time-series recorder plus the assertion
# engine. A congestion fault window must fire the retransmit-storm
# assertion inside the injected cycle range, the fault-free twin must fire
# nothing, and the archived JSON must be byte-identical across reruns.
cargo run --release --bin timeline_report -- \
    --check --no-cache --quiet --out-dir "$OBS_OUT"

# Service gate: the open-loop tail-latency matrix — every protocol mode at
# three offered loads, oracle-verified, checksum-invariant across modes and
# loads, p99(I+P+D) < p99(Base) at the highest pre-saturation load, the 1%
# frame-drop twin checksum-equal with bounded tail inflation, and the
# archived svc_report.json byte-identical across --jobs 1 and --jobs 8.
cargo run --release --bin svc_report -- --check --quiet --out-dir "$OBS_OUT"

# Chaos gate: every tier-1 workload under every protocol mode, faulted
# (drop + duplicate + corrupt + ack loss + a reordering latency spike) and
# fault-free. Checksums must match their fault-free twins, the verification
# oracle must stay silent, total cycles must stay within the bounded
# degradation budget, and the window-assertion engine must see the faults
# (>= 1 firing across the faulted runs, zero on any fault-free twin).
# Cache disabled: the gate must exercise the transport as built.
cargo run --release --bin chaos_report -- --check --no-cache --quiet

# Scale smoke: one 256-node sweep step (Ocean under Base) with the verify
# oracle on. The full 2..=256 doubling sweep is `fig01b_doubling --scale`;
# here one cached step proves the calendar queue, flat tables and indexed
# routing hold up at the full cluster size on every CI run.
cargo run --release --bin fig01b_doubling -- --scale --app Ocean --quiet

# Bench trajectory: regenerate the tier-1 suite through the parallel
# experiment engine — cache disabled so the numbers reflect the code as
# built, never a stale cached result — and gate on regressions against the
# committed baseline. The gate never rewrites the baseline: it changes only
# through a deliberate commit.
cargo run --release --bin obs_report -- --bench "$OBS_OUT/bench_new.json" --no-cache --quiet
cargo xtask bench-diff BENCH_tier1.json "$OBS_OUT/bench_new.json"

# Host-side profiling demo: one observed run with `--prof` (counting
# allocator in) must still pass the determinism self-check — host-phase
# attribution is wall-clock data and provably inert to everything simulated.
cargo run --release --features prof --bin obs_report -- \
    --app TSP --mode I+P+D --nprocs 4 --selfcheck --prof --quiet

# Wall-clock trajectory: the microbench suite over the host hot paths, in
# the fast smoke configuration, gated against the committed baseline —
# median time may not double, exact allocation counts may not grow past
# 10%. Archived next to the other artifacts; the committed baseline changes
# only through a deliberate commit, never by the gate itself.
cargo run --release --features prof --bin wall_bench -- \
    --fast --save-baseline "$OBS_OUT/wall_report.json"
cargo xtask wall-diff BENCH_WALL.json "$OBS_OUT/wall_report.json"

# Pooling gate: with the counting allocator in, the pooled arenas must cut
# steady-state event-loop allocations per Ocean@64 iteration by >= 5x, and
# pooling must leave every simulated output byte-identical. Without the
# `prof` feature the allocation half of this test only checks its stubs.
cargo test --release -p ncp2-bench --features prof --test arena_inert
