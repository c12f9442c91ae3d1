#!/usr/bin/env bash
# End-to-end determinism smoke for the binary, outside the proptest
# suite. `anomex extract` and `anomex stream` run one replay into the
# watermark merge engine and differ only in the options they take and
# their closing summary, so the first two passes fan a two-source NetFlow
# v5 workload into both commands and require byte-identical reports,
# without and with the rule layer: the stream-only path (`stream`'s
# options, its summary) changes no report. The independent batch oracle
# — each trace read whole and sliced on its own grid, the per-interval
# concatenation run through one engine — is
# tests/multi_source_determinism.rs (and the CLI's unit tests). Then
# require a capture read from stdin to behave exactly like the same
# capture read from its file, cut or whole.
#
# Usage: scripts/e2e_stream.sh [path-to-anomex-binary]
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

# Two links of the small scenario: link 0 carries the anomalies at full
# rate, link 1 runs at a lower rate with a 437 ms clock skew. 25
# intervals cover the planted flood at interval 20.
"$bin" generate --sources 2 --out "$workdir/link0.nfv5" --out "$workdir/link1.nfv5" \
    --seed 11 --intervals 25

opts=(--interval-min 1 --training 10 --support 800)

"$bin" stream --in "$workdir/link0.nfv5" --in "$workdir/link1.nfv5" "${opts[@]}" \
    > "$workdir/stream.out"
"$bin" extract --in "$workdir/link0.nfv5" --in "$workdir/link1.nfv5" "${opts[@]}" \
    > "$workdir/extract.out"

# Keep only the extraction reports: drop each command's own trailer
# lines (stream: fan-in/source/latency; extract: processed count and
# drops) — everything else must match byte for byte.
filter() {
    grep -vE '^(fan-in:|source src[0-9]+ \(|per-interval latency:|streamed |processed |dropped flows:)' "$1"
}
filter "$workdir/stream.out" > "$workdir/stream.reports"
filter "$workdir/extract.out" > "$workdir/extract.reports"

if ! grep -q '^Anomaly extraction report' "$workdir/stream.reports"; then
    echo "e2e-stream: no extraction reports produced — the smoke test is vacuous" >&2
    exit 1
fi

if ! diff -u "$workdir/extract.reports" "$workdir/stream.reports"; then
    echo "e2e-stream: the stream fan-in's reports differ from extract's over the same --in list" >&2
    exit 1
fi

reports=$(grep -c '^Anomaly extraction report' "$workdir/stream.reports")
echo "e2e-stream: OK — $reports extraction report(s) bit-identical from stream and extract over one two-source fan-in"

# Second pass with the association-rule layer on: the ranked rule
# section and the per-source rule merge must also match byte for byte
# between the two commands.
"$bin" stream --in "$workdir/link0.nfv5" --in "$workdir/link1.nfv5" "${opts[@]}" --rules \
    > "$workdir/stream-rules.out"
"$bin" extract --in "$workdir/link0.nfv5" --in "$workdir/link1.nfv5" "${opts[@]}" --rules \
    > "$workdir/extract-rules.out"
filter "$workdir/stream-rules.out" > "$workdir/stream-rules.reports"
filter "$workdir/extract-rules.out" > "$workdir/extract-rules.reports"

if ! grep -q '^association rules' "$workdir/stream-rules.reports"; then
    echo "e2e-stream: --rules produced no rule sections — the rule pass is vacuous" >&2
    exit 1
fi
if ! grep -q '^Per-source rule merge' "$workdir/stream-rules.reports"; then
    echo "e2e-stream: two-source run produced no per-source rule merge" >&2
    exit 1
fi

if ! diff -u "$workdir/extract-rules.reports" "$workdir/stream-rules.reports"; then
    echo "e2e-stream: the stream fan-in's rule reports differ from extract's" >&2
    exit 1
fi

rule_sections=$(grep -c '^association rules' "$workdir/stream-rules.reports")
echo "e2e-stream: OK — rule reports ($rule_sections section(s)) bit-identical from stream and extract over one two-source fan-in"

# Third pass: one ingest path for files and pipes. A capture piped in
# with `--in -` must stream to the same reports as the file itself and
# make `extract` print the same output, summary included, and a capture
# cut mid-datagram must make `extract` exit 1 with the same error through
# a file and through stdin (the path prefix aside).
single=(--interval-min 1 --training 10 --support 800)
"$bin" stream --in "$workdir/link0.nfv5" "${single[@]}" > "$workdir/file.out"
"$bin" stream --in - "${single[@]}" < "$workdir/link0.nfv5" > "$workdir/stdin.out"
filter "$workdir/file.out" > "$workdir/file.reports"
filter "$workdir/stdin.out" > "$workdir/stdin.reports"
if ! grep -q '^Anomaly extraction report' "$workdir/file.reports"; then
    echo "e2e-stream: link 0 alone produced no reports — the stdin pass is vacuous" >&2
    exit 1
fi
if ! diff -u "$workdir/file.reports" "$workdir/stdin.reports"; then
    echo "e2e-stream: stream --in - diverged from stream --in FILE" >&2
    exit 1
fi
"$bin" extract --in "$workdir/link0.nfv5" "${single[@]}" > "$workdir/file-extract.out"
"$bin" extract --in - "${single[@]}" < "$workdir/link0.nfv5" > "$workdir/stdin-extract.out"
if ! diff -u "$workdir/file-extract.out" "$workdir/stdin-extract.out"; then
    echo "e2e-stream: extract --in - diverged from extract --in FILE" >&2
    exit 1
fi

head -c 1000000 "$workdir/link0.nfv5" > "$workdir/cut.nfv5"
status=0
"$bin" extract --in "$workdir/cut.nfv5" "${single[@]}" > /dev/null 2> "$workdir/cut-file.err" || status=$?
[[ $status == 1 ]] || { echo "e2e-stream: a cut capture exited $status through a file, not 1" >&2; exit 1; }
status=0
"$bin" extract --in - "${single[@]}" < "$workdir/cut.nfv5" > /dev/null 2> "$workdir/cut-stdin.err" || status=$?
[[ $status == 1 ]] || { echo "e2e-stream: a cut capture exited $status through stdin, not 1" >&2; exit 1; }
sed "s|^error: $workdir/cut.nfv5: |error: |" "$workdir/cut-file.err" > "$workdir/cut-file.msg"
sed 's|^error: stdin: |error: |' "$workdir/cut-stdin.err" > "$workdir/cut-stdin.msg"
if ! grep -q '^error: truncated NetFlow v5 records' "$workdir/cut-file.msg"; then
    echo "e2e-stream: a cut capture did not report truncated records:" >&2
    cat "$workdir/cut-file.err" >&2
    exit 1
fi
if ! diff -u "$workdir/cut-file.msg" "$workdir/cut-stdin.msg"; then
    echo "e2e-stream: a cut capture fails differently through a file and through stdin" >&2
    exit 1
fi
echo "e2e-stream: OK — stream and extract --in - match --in FILE, and a cut capture fails alike through both ($(cat "$workdir/cut-file.msg"))"
