#!/usr/bin/env bash
# End-to-end durability smoke for checkpoint/restore, outside the test
# suite: generate a NetFlow v5 workload, stream it uninterrupted, then
# stream it again with periodic checkpoints but killed mid-run
# (`--stop-after` takes a final checkpoint and exits without finishing),
# resume from the checkpoint with `--resume`, and require the
# concatenated interrupted output to be byte-identical to the
# uninterrupted run — the kill-and-resume contract, at the binary level.
# Then the same for a two-source fan-in.
#
# Usage: scripts/e2e_restore.sh [path-to-anomex-binary]
# Builds the release binary when no path is given.
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${1:-}"
if [[ -z "$bin" ]]; then
    cargo build --release -p anomex-cli
    bin=target/release/anomex
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# One link of the small scenario: 25 intervals cover the planted flood
# at interval 20, so the kill at interval 12 lands after training but
# before the anomaly — the resumed process must detect it from restored
# baselines alone.
"$bin" generate --out "$workdir/link.nfv5" --seed 11 --intervals 25

opts=(--interval-min 1 --training 10 --support 800)

# Reference: the never-killed run.
"$bin" stream --in "$workdir/link.nfv5" "${opts[@]}" > "$workdir/full.out"

# Interrupted run, part 1: checkpoint every interval, die after 12.
"$bin" stream --in "$workdir/link.nfv5" "${opts[@]}" \
    --checkpoint-dir "$workdir/ckpt" --checkpoint-every 1 --stop-after 12 \
    > "$workdir/part1.out"

if [[ ! -f "$workdir/ckpt/stream.ckpt" ]]; then
    echo "e2e-restore: --stop-after left no checkpoint behind" >&2
    exit 1
fi

# Interrupted run, part 2: resume from the checkpoint, finish the trace.
"$bin" stream --in "$workdir/link.nfv5" "${opts[@]}" \
    --checkpoint-dir "$workdir/ckpt" --resume \
    > "$workdir/part2.out"

# Keep only the per-interval reports: drop each run's own trailer lines.
filter() {
    grep -vE '^(fan-in:|source src[0-9]+ \(|per-interval latency:|streamed |processed )' "$1"
}
filter "$workdir/full.out" > "$workdir/full.reports"
cat "$workdir/part1.out" "$workdir/part2.out" > "$workdir/resumed.out"
filter "$workdir/resumed.out" > "$workdir/resumed.reports"

if ! grep -q '^Anomaly extraction report' "$workdir/full.reports"; then
    echo "e2e-restore: no extraction reports produced — the smoke test is vacuous" >&2
    exit 1
fi
if ! grep -q 'interval' "$workdir/part2.out"; then
    echo "e2e-restore: the resumed run produced no intervals — nothing was resumed" >&2
    exit 1
fi

if ! diff -u "$workdir/full.reports" "$workdir/resumed.reports"; then
    echo "e2e-restore: kill-and-resume diverged from the uninterrupted run" >&2
    exit 1
fi

reports=$(grep -c '^Anomaly extraction report' "$workdir/resumed.reports")
echo "e2e-restore: OK — kill-and-resume byte-identical to the uninterrupted run ($reports extraction report(s))"

# `--resume` with no checkpoint present is a cold start: the run must
# complete and match the reference exactly.
"$bin" stream --in "$workdir/link.nfv5" "${opts[@]}" \
    --checkpoint-dir "$workdir/cold" --resume \
    > "$workdir/cold.out"
filter "$workdir/cold.out" > "$workdir/cold.reports"
if ! diff -u "$workdir/full.reports" "$workdir/cold.reports"; then
    echo "e2e-restore: cold start with --resume diverged from a plain run" >&2
    exit 1
fi
echo "e2e-restore: OK — --resume with an empty checkpoint dir is a clean cold start"

# Two-source leg: the same kill-and-resume over a fan-in of two links
# (link 1 skewed and slower), rules on so the per-source rule merge is
# re-mined from the restored configuration.
"$bin" generate --sources 2 --out "$workdir/fan0.nfv5" --out "$workdir/fan1.nfv5" \
    --seed 11 --intervals 25
fan=(--in "$workdir/fan0.nfv5" --in "$workdir/fan1.nfv5" "${opts[@]}" --rules)
"$bin" stream "${fan[@]}" > "$workdir/fan-full.out"
"$bin" stream "${fan[@]}" --checkpoint-dir "$workdir/fan-ckpt" --checkpoint-every 1 \
    --stop-after 12 > "$workdir/fan-part1.out"
"$bin" stream "${fan[@]}" --checkpoint-dir "$workdir/fan-ckpt" --resume \
    > "$workdir/fan-part2.out"
filter "$workdir/fan-full.out" > "$workdir/fan-full.reports"
cat "$workdir/fan-part1.out" "$workdir/fan-part2.out" > "$workdir/fan-resumed.out"
filter "$workdir/fan-resumed.out" > "$workdir/fan-resumed.reports"

if ! grep -q '^Per-source rule merge' "$workdir/fan-part2.out"; then
    echo "e2e-restore: the resumed fan-in extracted nothing — the two-source leg is vacuous" >&2
    exit 1
fi
if ! diff -u "$workdir/fan-full.reports" "$workdir/fan-resumed.reports"; then
    echo "e2e-restore: two-source kill-and-resume diverged from the uninterrupted fan-in" >&2
    exit 1
fi
if ! diff -u <(grep '^fan-in:' "$workdir/fan-full.out") <(grep '^fan-in:' "$workdir/fan-part2.out"); then
    echo "e2e-restore: the resumed fan-in's totals differ from the uninterrupted run's" >&2
    exit 1
fi
reports=$(grep -c '^Anomaly extraction report' "$workdir/fan-resumed.reports")
echo "e2e-restore: OK — two-source kill-and-resume byte-identical to the uninterrupted fan-in ($reports extraction report(s))"
