#!/usr/bin/env bash
# Full local CI gate: build, tests, rustdoc (warnings denied), clippy
# (warnings denied), and a trace smoke test. Run before every push;
# scripts/run_all.sh assumes this is green. All steps are offline
# (vendored path dependencies).
#
# Gates target the pipa packages, not the vendored shims: the vendored
# crates keep upstream names, so their own test harnesses (e.g. serde's
# derive-macro self-tests) assume the real crates-io source layout and
# do not compile standalone.
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=(-p pipa -p pipa-obs -p pipa-sim -p pipa-workload -p pipa-nn -p pipa-cost -p pipa-ia -p pipa-qgen -p pipa-core -p pipa-serve -p pipa-bench)

echo "== cargo build --release =="
cargo build --release "${PKGS[@]}"

echo "== cargo test -q =="
cargo test -q "${PKGS[@]}"

echo "== cost-backend boundary lint =="
# Advisors and the attack pipeline must route every cost through the
# object-safe CostBackend seam, never the simulator's Database methods.
# The trait's method names are deliberately distinct from Database's, so
# a direct call is grep-visible.
if grep -rnE 'estimated_(query|workload)_cost|scalar_(query|workload)_cost|what_if_(batch|delta)|whatif_eval_|actual_(query|workload)_cost' \
        crates/ia/src crates/core/src crates/serve/src; then
    echo "boundary lint: direct Database cost calls found above (use the CostBackend seam)" >&2
    exit 1
fi

echo "== victim-pipeline lint =="
# The harness's update step is the one place a victim's training set
# reaches the backend: every pipeline calls it instead of sequencing
# observe → train/retrain by hand, so a learned backend refits on
# exactly what the victim trains on.
if grep -rnF 'observe_training(' crates/core/src crates/serve/src crates/bench/src \
        | grep -v '^crates/core/src/harness.rs:'; then
    echo "pipeline lint: observe_training calls outside the harness update step found above" >&2
    exit 1
fi

echo "== target-registry coverage lint =="
# Every built-in kind id registered in crates/ia/src/registry.rs must be
# exercised by the every-kind construction test fixture in the same
# file: adding a builtin("<id>", ...) without extending EXERCISED_KINDS
# fails here instead of silently shipping an untested target.
REGISTRY=crates/ia/src/registry.rs
BUILTIN_IDS=$(grep -oE 'builtin\("[a-z0-9_-]+"' "$REGISTRY" | grep -oE '"[a-z0-9_-]+"' | tr -d '"')
FIXTURE_LINE=$(grep 'EXERCISED_KINDS' "$REGISTRY" | grep '&\[')
[ -n "$BUILTIN_IDS" ] || { echo "registry lint: no builtin(...) registrations found" >&2; exit 1; }
for id in $BUILTIN_IDS; do
    if ! echo "$FIXTURE_LINE" | grep -q "\"$id\""; then
        echo "registry lint: builtin \"$id\" missing from EXERCISED_KINDS in $REGISTRY" >&2
        exit 1
    fi
done

echo "== NN bench smoke =="
# Tiny-dimension pass through the nn bench harness (asserts the decode
# session's bitwise equality against the per-token path on the way);
# smoke mode skips the committed artifact.
NN_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench nn >/dev/null

echo "== serve bench smoke =="
# Tiny replay fleet through the serve bench harness: records tapes, runs
# the worker grid, and asserts the fleet report is bit-identical across
# worker counts; smoke mode skips the committed artifact.
SERVE_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench serve >/dev/null

echo "== stream bench smoke =="
# Tiny arms-race grid through the stream bench harness: runs the
# attacker × defense × cadence sweep and asserts the grid serializes
# bit-identically across --jobs; smoke mode skips the committed artifact.
STREAM_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench stream >/dev/null

echo "== targets bench smoke =="
# Shrunk pass over the registry-opened target classes (in-context
# advisor, learned-index backend) vs. the DQN baseline: stress grid,
# stream legs, and the worker-count determinism cross-checks; smoke mode
# skips the committed artifact.
TARGETS_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench targets >/dev/null

echo "== what-if bench smoke =="
# Tiny-dimension pass through the whatif bench harness, including the
# join-mix grid endpoints; smoke mode skips the committed artifact.
WHATIF_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench whatif >/dev/null

echo "== scale bench smoke =="
# Shrunk Zipf/diurnal stream through the scale bench harness: asserts
# that the stream leg's byte-budgeted matrix (a budget taken from the
# day's own unbudgeted footprint) compacts, stays within its budget and
# returns the unbudgeted day's cost bits, that the config sweep's budget
# compacts without changing a cost bit, the tape round trip + size
# guard, and that the full-size economics attack moves some template and
# prices hot above cold; smoke mode skips the committed artifact.
SCALE_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench scale >/dev/null

echo "== doc-link lint =="
# Prose docs must not reference entry points that no longer exist:
# the PR-5/PR-6 unification removed the matrix_* pair (dispatch is
# internal to estimated_*) and JoinCoupled no longer covers plain joins;
# the benefit matrix replaced the CLOCK cost cache and its setters;
# AdvisorSpec is the one name for an advisor and the CostBackend trait
# plus three free helpers the one door to a cost.
if grep -rnE 'matrix_query_cost|matrix_workload_cost|CostCache|set_whatif_cache_|clear_whatif_cache|AdvisorKind|CostEngine' \
        README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md; then
    echo "doc-link lint: stale entry-point references found above" >&2
    exit 1
fi

echo "== cargo doc (RUSTDOCFLAGS=-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${PKGS[@]}"

echo "== rustfmt check =="
cargo fmt "${PKGS[@]}" -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --all-targets -q "${PKGS[@]}" -- -D warnings

echo "== trace smoke test =="
# One tiny traced experiment, then validate that every emitted line is a
# JSON object carrying the contract keys (event, cell_seed, phase).
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
cargo run --release -q -p pipa-bench --bin fig1_motivation -- \
    --test --runs 1 --jobs 2 \
    --trace "$TRACE_DIR/trace.jsonl" --metrics-out "$TRACE_DIR/metrics.jsonl" \
    --out "$TRACE_DIR" >/dev/null
cargo run --release -q -p pipa-bench --bin trace_lint -- \
    "$TRACE_DIR/trace.jsonl" "$TRACE_DIR/metrics.jsonl"

echo "== e2ebench outcome digests =="
# The end-to-end benchmark's own tests, then one traced run per workload
# at the pinned seed. A run exits 1 when its outcome digest differs from
# e2ebench/digests.txt or a unit fails its outcome checks, so every
# speed-up is checked bit-identical end to end.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml
for w in paper-cell stream-defended fleet-mixed; do
    cargo run --release --quiet --offline --manifest-path e2ebench/Cargo.toml -- \
        --workload "$w" --seed 1 --trace 1 >/dev/null
done

echo "CI green."
