#!/usr/bin/env sh
# Repo CI gate: build, test, lint, format, the exhibit smokes, and the
# completion-stream checksum pin.
# Run from the repo root. Fails fast on the first broken step.
set -eu

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> lint gate (every app's default wiring must be deny-clean)"
# Runs the static-analysis passes over the five benchmark apps and writes
# per-app counts to results/ci_lint.txt; exits nonzero on any deny-severity
# diagnostic.
cargo run --release -p blueprint-bench --bin lint_gate

# Each exhibit below runs at BLUEPRINT_THREADS=1 (the par_run worker count),
# writing its report to results/<ci file>, then at =4 into a temp file; the
# two reports must be byte-identical. The committed results/<report>.txt
# files are never touched. Each binary panics on its own invariant
# violations. $args is left unquoted on purpose: it is a word list.
while read -r bin ci args; do
    case $bin in '' | '#'*) continue ;; esac
    echo "==> $bin smoke (BLUEPRINT_THREADS=1 vs =4)"
    BLUEPRINT_THREADS=1 cargo run --release -p blueprint-bench --bin "$bin" -- \
        --out "results/$ci" $args </dev/null
    tmp=$(mktemp)
    BLUEPRINT_THREADS=4 cargo run --release -p blueprint-bench --bin "$bin" -- \
        --out "$tmp" $args </dev/null
    cmp "results/$ci" "$tmp"
    rm -f "$tmp"
done <<'EXHIBITS'
# Fault matrix (2 cells): conservation and amplification invariants.
ablation_faults       ci_fault_matrix.txt     --quick --smoke
# Miniature Type-1 metastability with and without a retry budget:
# conservation, and the 1 + ratio amplification bound on budget arms.
ablation_overload     ci_overload.txt         --smoke
# Rolling deploys, the autoscaler, and canaries under a flash crowd:
# conservation, no unavailability on drained deploys, and the autoscaler
# absorbing the ramp the fixed-replica arm does not.
ablation_reconfig     ci_reconfig.txt         --smoke
# Consistency arms x disturbances through the anomaly oracle: quorum w=2
# shows no anomaly, session keeps read-your-writes, and the crash scenario
# loses writes under async replication.
ablation_consistency  ci_consistency.txt      --smoke
# The static hazard predictions must bracket the dynamic fault-matrix
# outcomes.
lint_validation       ci_lint_validation.txt  --smoke
# The analytic BP013-BP015 capacity bracket must contain each app's
# simulated saturation knee.
capacity_validation   ci_capacity.txt         --smoke
EXHIBITS

echo "==> completion-stream identity check"
# With no fault plan and no reconfig plan the completion stream must be
# bit-identical to the per-entity-RNG seed: pin the historical checksum, not
# just a self-match. This is also the empty-ReconfigPlan zero-cost gate —
# reconfiguration support must schedule no events and draw no RNG when the
# plan is empty, or this pin moves.
# (The pin moved once, 73897de1072914b2 -> 1bc85aa9969bffcf, when RNG draws
# moved from one global stream to derive_seed-keyed per-entity streams.)
cargo run --release --example stream_checksum | tee results/ci_stream_checksum.txt
grep -q "checksum=1bc85aa9969bffcf" results/ci_stream_checksum.txt

echo "CI OK"
