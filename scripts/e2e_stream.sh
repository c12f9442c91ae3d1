#!/usr/bin/env bash
# End-to-end determinism smoke for the full streaming path, outside the
# proptest suite: generate a two-source NetFlow v5 workload, fan both
# traces into `anomex stream` (the watermark merge engine), run the same
# traces through batch `anomex extract` (per-interval concatenation in
# file order), and require the two report streams to be byte-identical;
# then require `extract` to print the same reports at 1 and 2 threads and
# for every --miner; finally require a capture read from stdin to behave
# exactly like the same capture read from its file, cut or whole.
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

opts=(--interval-min 1 --training 10 --support 800 --threads 2)

"$bin" stream --in "$workdir/link0.nfv5" --in "$workdir/link1.nfv5" "${opts[@]}" \
    > "$workdir/stream.out"
"$bin" extract --in "$workdir/link0.nfv5" --in "$workdir/link1.nfv5" "${opts[@]}" \
    > "$workdir/extract.out"

# Keep only the extraction reports: drop each command's own trailer
# lines (stream: fan-in/source/latency; extract: processed count) —
# everything else must match byte for byte.
filter() {
    grep -vE '^(fan-in:|source src[0-9]+ \(|per-interval latency:|streamed |processed )' "$1"
}
filter "$workdir/stream.out" > "$workdir/stream.reports"
filter "$workdir/extract.out" > "$workdir/extract.reports"

if ! grep -q '^Anomaly extraction report' "$workdir/stream.reports"; then
    echo "e2e-stream: no extraction reports produced — the smoke test is vacuous" >&2
    exit 1
fi

if ! diff -u "$workdir/extract.reports" "$workdir/stream.reports"; then
    echo "e2e-stream: streaming fan-in diverged from batch extraction" >&2
    exit 1
fi

reports=$(grep -c '^Anomaly extraction report' "$workdir/stream.reports")
echo "e2e-stream: OK — $reports extraction report(s) bit-identical across stream fan-in and batch extract"

# Second pass with the association-rule layer on: the ranked rule
# section and the per-source rule merge must also match byte for byte
# between the streaming fan-in and the batch path.
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
    echo "e2e-stream: streaming rule reports diverged from batch extraction" >&2
    exit 1
fi

rule_sections=$(grep -c '^association rules' "$workdir/stream-rules.reports")
echo "e2e-stream: OK — rule reports ($rule_sections section(s)) bit-identical across stream fan-in and batch extract"

# Third pass: thread-count invariance at the binary. Both sides above
# run at --threads 2, so this runs `extract` over the same two links at
# 1 and at 2 threads for each miner (the rule layer on for one of them)
# and requires identical reports. Link 0 alone carries 3.9–7.1 k flows
# per interval and 4 513 suspicious flows in the alarmed one, so the
# detector's sharding and the miners' flat counting both clear the
# 2 048-item splitting floor at 2 threads.
for miner in apriori fpgrowth eclat; do
    rules=""
    [[ "$miner" == fpgrowth ]] && rules="--rules"
    for threads in 1 2; do
        # shellcheck disable=SC2086 # $rules is one flag or nothing
        "$bin" extract --in "$workdir/link0.nfv5" --in "$workdir/link1.nfv5" \
            --interval-min 1 --training 10 --support 800 \
            --miner "$miner" --threads "$threads" $rules > "$workdir/threads$threads.out"
        filter "$workdir/threads$threads.out" > "$workdir/threads$threads.reports"
    done
    if ! grep -q '^Anomaly extraction report' "$workdir/threads1.reports"; then
        echo "e2e-stream: --miner $miner produced no reports — the thread pass is vacuous" >&2
        exit 1
    fi
    if ! diff -u "$workdir/threads1.reports" "$workdir/threads2.reports"; then
        echo "e2e-stream: --miner $miner $rules reports differ between --threads 1 and --threads 2" >&2
        exit 1
    fi
done
echo "e2e-stream: OK — extract reports bit-identical at --threads 1 and --threads 2 for apriori, fpgrowth (--rules) and eclat"

# Fourth pass: miner independence at the binary. The report is a function
# of the mined answer only, so `extract` must print the same reports for
# every --miner (fpgrowth is the default; apriori's level audit trail is
# not part of the report). The filter already drops the `processed` line
# that names the miner.
for rules in "" --rules; do
    for miner in apriori fpgrowth eclat; do
        # shellcheck disable=SC2086 # $rules is one flag or nothing
        "$bin" extract --in "$workdir/link0.nfv5" --in "$workdir/link1.nfv5" \
            --interval-min 1 --training 10 --support 800 \
            --miner "$miner" --threads 1 $rules > "$workdir/miner-$miner.out"
        filter "$workdir/miner-$miner.out" > "$workdir/miner-$miner.reports"
    done
    if ! grep -q '^Anomaly extraction report' "$workdir/miner-fpgrowth.reports"; then
        echo "e2e-stream: no reports ${rules:-without rules} — the miner pass is vacuous" >&2
        exit 1
    fi
    for miner in apriori eclat; do
        if ! diff -u "$workdir/miner-fpgrowth.reports" "$workdir/miner-$miner.reports"; then
            echo "e2e-stream: --miner $miner ${rules:+$rules }reports differ from the default fpgrowth ones" >&2
            exit 1
        fi
    done
done
echo "e2e-stream: OK — extract reports bit-identical for apriori, fpgrowth and eclat, with and without --rules"

# Fifth pass: one ingest path for files and pipes. A capture piped in
# with `--in -` must stream to the same reports as the file itself, and a
# capture cut mid-datagram must make `extract` exit 1 with the same error
# through a file and through stdin (the path prefix aside).
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

head -c 1000000 "$workdir/link0.nfv5" > "$workdir/cut.nfv5"
status=0
"$bin" extract --in "$workdir/cut.nfv5" "${single[@]}" > /dev/null 2> "$workdir/cut-file.err" || status=$?
[[ $status == 1 ]] || { echo "e2e-stream: a cut capture exited $status through a file, not 1" >&2; exit 1; }
status=0
"$bin" extract --in - "${single[@]}" < "$workdir/cut.nfv5" > /dev/null 2> "$workdir/cut-stdin.err" || status=$?
[[ $status == 1 ]] || { echo "e2e-stream: a cut capture exited $status through stdin, not 1" >&2; exit 1; }
sed "s|^error: $workdir/cut.nfv5: |error: |" "$workdir/cut-file.err" > "$workdir/cut-file.msg"
sed 's|^error: -: |error: |' "$workdir/cut-stdin.err" > "$workdir/cut-stdin.msg"
if ! grep -q '^error: truncated NetFlow v5 records' "$workdir/cut-file.msg"; then
    echo "e2e-stream: a cut capture did not report truncated records:" >&2
    cat "$workdir/cut-file.err" >&2
    exit 1
fi
if ! diff -u "$workdir/cut-file.msg" "$workdir/cut-stdin.msg"; then
    echo "e2e-stream: a cut capture fails differently through a file and through stdin" >&2
    exit 1
fi
echo "e2e-stream: OK — stream --in - matches --in FILE, and a cut capture fails alike through both ($(cat "$workdir/cut-file.msg"))"
