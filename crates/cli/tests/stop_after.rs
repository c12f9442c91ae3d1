//! `stream --stop-after N` is a deterministic cut. It stops once the
//! interval grid has closed N intervals, and its final checkpoint prints
//! exactly those. It used to count the events drained so far, which
//! trail the closed intervals by however many the engine thread still
//! held: the final checkpoint then printed more than N, and a cut near
//! the end could miss the count and run to the end. A resume over a
//! capture shorter than the checkpoint's is refused.

use std::path::Path;
use std::process::Command;

/// Run `anomex` with `args`, which must succeed; returns its stdout and
/// stderr.
fn anomex(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_anomex"))
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert!(out.status.success(), "anomex {args:?} failed: {stderr}");
    (String::from_utf8(out.stdout).expect("UTF-8 stdout"), stderr)
}

/// The output with each `… µs` reading (the `--verbose` column, the
/// latency percentiles) replaced by `X`: the one part that varies from
/// run to run.
fn mask_micros(text: &str) -> String {
    text.lines()
        .map(|line| {
            let mut words: Vec<&str> = line.split_whitespace().collect();
            for i in 1..words.len() {
                if words[i].starts_with("µs") {
                    words[i - 1] = "X";
                }
            }
            words.join(" ") + "\n"
        })
        .collect()
}

fn interval_lines(text: &str) -> usize {
    text.lines().filter(|l| l.starts_with("interval ")).count()
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

/// For every N below the interval count, `--stop-after N` prints exactly
/// N interval lines and the stop note, and the resumed run prints the
/// rest: the two outputs together are the uninterrupted run's. An N at
/// or above the interval count runs to the end.
#[test]
fn stop_after_n_prints_n_intervals_and_resumes_to_the_full_run() {
    let dir = std::env::temp_dir().join("anomex-stop-after-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.nfv5");
    let generate = ["generate", "--out", path(&trace), "--seed", "3"];
    anomex(&[&generate[..], &["--intervals", "25"]].concat());
    let stream = [
        "stream",
        "--in",
        path(&trace),
        "--interval-min",
        "1",
        "--training",
        "10",
        "--verbose",
    ];
    let full = mask_micros(&anomex(&stream).0);
    let intervals = interval_lines(&full);
    assert_eq!(intervals, 25);
    assert!(full.contains("Anomaly extraction report"), "it alarms");
    for n in 1..=intervals + 1 {
        let checkpoints = dir.join(format!("ck{n}"));
        let durable = [&stream[..], &["--checkpoint-dir", path(&checkpoints)]].concat();
        let stop = n.to_string();
        let (part1, note) = anomex(&[&durable[..], &["--stop-after", &stop]].concat());
        let part1 = mask_micros(&part1);
        if n >= intervals {
            assert_eq!(part1, full, "--stop-after {n} runs to the end");
            assert!(!note.contains("stopped after"), "--stop-after {n}: {note}");
            continue;
        }
        assert_eq!(interval_lines(&part1), n, "--stop-after {n}:\n{part1}");
        let expected = format!("stopped after {n} interval(s); checkpoint at ");
        assert!(note.contains(&expected), "--stop-after {n}: {note}");
        let part2 = anomex(&[&durable[..], &["--resume"]].concat()).0;
        assert_eq!(
            part1 + &mask_micros(&part2),
            full,
            "--stop-after {n}, then --resume"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume whose capture ends before the flows the checkpoint consumed
/// is refused: it exits 1 with one `error:` line naming the checkpoint
/// and both flow counts, prints nothing on stdout, and leaves the
/// checkpoint as it was. Here the shorter capture is a byte prefix of the
/// one the checkpoint was written from, its first 10 of 25 intervals, and
/// the checkpoint was cut after 20.
#[test]
fn a_resume_over_a_shorter_capture_is_refused() {
    let dir = std::env::temp_dir().join("anomex-short-resume-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (full, short) = (dir.join("full.nfv5"), dir.join("short.nfv5"));
    generate(&full, "25");
    let wrote = generate(&short, "10");
    let held = wrote
        .split(", ")
        .nth(1)
        .and_then(|s| s.strip_suffix(" flows"));
    let held = held.expect("generate prints its flow count");
    let ck = dir.join("ck");
    let stream = |trace| stream_args(trace, &ck);
    anomex(&[&stream(&full)[..], &["--stop-after", "20"]].concat());
    let checkpoint = ck.join("stream.ckpt");
    let saved = std::fs::read(&checkpoint).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_anomex"))
        .args([&stream(&short)[..], &["--resume"]].concat())
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "", "no summary");
    let [error] = stderr.lines().collect::<Vec<_>>()[..] else {
        panic!("one line on stderr: {stderr}");
    };
    assert_eq!(
        std::fs::read(&checkpoint).unwrap(),
        saved,
        "the checkpoint is kept"
    );

    // The checkpoint's count, as the resume over the full capture reports it.
    let note = anomex(&[&stream(&full)[..], &["--resume"]].concat()).1;
    let consumed = note
        .split(" (")
        .nth(1)
        .and_then(|s| s.strip_suffix(" flows already consumed)\n"));
    let consumed = consumed.expect("the resume names the flows consumed");
    let expected = format!(
        "error: cannot resume from {}: the --in trace(s) hold {held} flows, fewer than the \
         {consumed} it consumed (resume with the --in list that wrote it)",
        checkpoint.display()
    );
    assert_eq!(error, expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// `generate` the first `intervals` intervals of seed 3 into `out`; its
/// stdout.
fn generate(out: &Path, intervals: &str) -> String {
    let args = ["--seed", "3", "--intervals", intervals, "--out", path(out)];
    anomex(&[&["generate"][..], &args].concat()).0
}

/// `stream` over `trace`, one-minute intervals, checkpointing into `ck`.
fn stream_args<'a>(trace: &'a Path, ck: &'a Path) -> Vec<&'a str> {
    let options = [
        "--interval-min",
        "1",
        "--training",
        "10",
        "--checkpoint-dir",
    ];
    [&["stream", "--in", path(trace)][..], &options, &[path(ck)]].concat()
}
