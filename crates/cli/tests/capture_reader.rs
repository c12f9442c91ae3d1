//! `extract` and `stream` read their captures on a reader thread while
//! the engine runs. A capture that fails mid-read still ends the command
//! with its read error and exit 1, after printing only intervals that
//! closed before the failing block and no trailer; and `stream --in -`
//! prints intervals while its input is still open, even before a block
//! of flows has arrived.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use anomex_netflow::v5::{V5_HEADER_LEN, V5_RECORD_LEN};
use anomex_netflow::v9::TraceReader;
use anomex_netflow::{FlowRecord, MINUTE_MS};

fn anomex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_anomex"))
        .args(args)
        .output()
        .expect("the binary runs")
}

/// Run `anomex` with `args`, which must succeed; returns its stdout.
fn succeed(args: &[&str]) -> String {
    let out = anomex(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "anomex {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

/// The byte offset of each NetFlow v5 datagram of `bytes`.
fn datagram_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        starts.push(at);
        let count = usize::from(u16::from_be_bytes([bytes[at + 2], bytes[at + 3]]));
        at += V5_HEADER_LEN + count * V5_RECORD_LEN;
    }
    starts
}

/// The flows of whole datagrams.
fn flows(bytes: &[u8]) -> Vec<FlowRecord> {
    let mut reader = TraceReader::new(bytes);
    let mut flows = Vec::new();
    while let Some(packet) = reader.read_into(&mut flows) {
        packet.expect("whole datagrams decode");
    }
    flows
}

/// The output with each `… µs` reading replaced by `X`: the one part
/// that varies from run to run.
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

/// One `--in PATH` per path.
fn ins<'a>(paths: &[&'a str]) -> Vec<&'a str> {
    paths.iter().flat_map(|p| ["--in", *p]).collect()
}

/// The window end of each `--verbose` interval line, `[begin ms, end ms)`.
fn interval_ends(text: &str) -> Vec<u64> {
    (text.lines())
        .filter(|line| line.starts_with("interval "))
        .map(|line| {
            let (_, window) = line.split_once(", ").expect("a window");
            let (end, _) = window.split_once(" ms)").expect("a window end");
            end.parse().expect("a number")
        })
        .collect()
}

/// Lane 1 of a three-link capture, cut inside a datagram after about
/// two fifths of its flows, read alone and as lane 1 of the fan-in, fails
/// with the message it fails with alone and exit 1. Before that it prints
/// the beginning of the uncut run's output, and only intervals that end
/// at or before the last flow before the cut, and never a trailer.
#[test]
fn a_capture_cut_mid_read_fails_alike_after_the_intervals_before_it() {
    let dir = scratch_dir("anomex-cut-capture-test");
    let links: Vec<PathBuf> = (0..3).map(|s| dir.join(format!("link{s}.nfv5"))).collect();
    let mut generate = vec![
        "generate",
        "--sources",
        "3",
        "--seed",
        "3",
        "--intervals",
        "25",
    ];
    for link in &links {
        generate.extend(["--out", path(link)]);
    }
    succeed(&generate);
    let bytes = std::fs::read(&links[1]).unwrap();
    let starts = datagram_starts(&bytes);
    let boundary = starts[starts.len() * 2 / 5];
    let cut = dir.join("cut.nfv5");
    std::fs::write(&cut, &bytes[..boundary + V5_HEADER_LEN + V5_RECORD_LEN / 2]).unwrap();
    let kept = flows(&bytes[..boundary]);
    let first = kept[0].start_ms;
    let last = kept.iter().map(|flow| flow.start_ms).max().unwrap();

    let options = [
        "--interval-min",
        "1",
        "--training",
        "10",
        "--support",
        "200",
    ];
    let (cut, whole) = (
        path(&cut),
        [path(&links[0]), path(&links[1]), path(&links[2])],
    );
    let alone = anomex(&[&["extract", "--in", cut][..], &options].concat());
    let message = String::from_utf8(alone.stderr).unwrap();
    assert!(
        message.starts_with(&format!("error: {cut}: truncated NetFlow v5 records")),
        "{message}"
    );
    // One lane prints its own clock; a fan-in prints grid time.
    let one = (vec![cut], vec![whole[1]], last);
    let fan_in = (
        vec![whole[0], cut, whole[2]],
        whole.to_vec(),
        last - (first - first % MINUTE_MS),
    );
    for (inputs, uncut, bound) in [one, fan_in] {
        for command in [&["extract"][..], &["stream", "--verbose"]] {
            let run = [command, &ins(&inputs), &options, &["--timings"]].concat();
            let context = format!("{run:?}");
            let out = anomex(&run);
            assert_eq!(out.status.code(), Some(1), "{context}");
            assert_eq!(String::from_utf8(out.stderr).unwrap(), message, "{context}");
            let printed = mask_micros(&String::from_utf8(out.stdout).unwrap());
            let full = mask_micros(&succeed(&[command, &ins(&uncut), &options].concat()));
            assert!(full.starts_with(&printed), "{context}: {printed}");
            let trailer = [
                "processed ",
                "streamed ",
                "fan-in:",
                "per-interval",
                "timings:",
            ];
            assert!(
                !printed
                    .lines()
                    .any(|l| trailer.iter().any(|t| l.starts_with(t))),
                "{context}: {printed}"
            );
            let ends = interval_ends(&printed);
            assert!(
                ends.iter().all(|&end| end <= bound),
                "{context}: {ends:?} past {bound}"
            );
            // About ten windows close before the cut, and the engine
            // holds at most two of them (one extracting, one queued).
            if command[0] == "stream" {
                assert!(ends.len() >= 5, "{context}: {ends:?}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `anomex stream --in -` with `options`, its stdin and stderr piped, and
/// a thread that sends each stdout line as it is printed.
fn stream_from_stdin(options: &[&str]) -> (Child, ChildStdin, mpsc::Receiver<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_anomex"))
        .args([&["stream", "--in", "-"][..], options].concat())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the binary runs");
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let (lines, received) = mpsc::channel();
    std::thread::spawn(move || {
        for line in stdout.lines() {
            if lines.send(line.expect("UTF-8 stdout")).is_err() {
                break;
            }
        }
    });
    let stdin = child.stdin.take().unwrap();
    (child, stdin, received)
}

/// The first line `child` prints within two minutes; the child is killed
/// and the test fails if none arrives.
fn first_line(child: &mut Child, received: &mpsc::Receiver<String>) -> String {
    match received.recv_timeout(Duration::from_secs(120)) {
        Ok(line) => line,
        Err(e) => {
            child.kill().ok();
            panic!("no output while stdin is open: {e}");
        }
    }
}

/// `stream --in -` prints an interval while its input is still open:
/// with the first half of a 25-interval capture written and the pipe
/// left open, interval 0's `--verbose` line arrives; once the rest is
/// written and stdin closed, the output is the `--in FILE` run's.
#[test]
fn stream_from_stdin_prints_intervals_before_its_input_ends() {
    let dir = scratch_dir("anomex-stdin-stream-test");
    let trace = dir.join("trace.nfv5");
    succeed(&[
        "generate",
        "--out",
        path(&trace),
        "--seed",
        "7",
        "--intervals",
        "25",
    ]);
    let bytes = std::fs::read(&trace).unwrap();
    let starts = datagram_starts(&bytes);
    let half = starts[starts.len() / 2];
    let options = ["--interval-min", "1", "--training", "10", "--verbose"];
    let (mut child, mut stdin, received) = stream_from_stdin(&options);
    stdin.write_all(&bytes[..half]).unwrap();
    stdin.flush().unwrap();
    let line = first_line(&mut child, &received);
    assert!(
        line.starts_with("interval    0  [0 ms, 60000 ms)"),
        "{line}"
    );
    stdin.write_all(&bytes[half..]).unwrap();
    drop(stdin);
    assert!(child.wait().unwrap().success());
    let piped: String = std::iter::once(line)
        .chain(received)
        .map(|l| l + "\n")
        .collect();
    let file = succeed(&[&["stream", "--in", path(&trace)][..], &options].concat());
    assert_eq!(mask_micros(&piped), mask_micros(&file));
    std::fs::remove_dir_all(&dir).ok();
}

/// A live feed slower than a block does not hold its intervals back: with
/// the whole datagrams among the first 3 775 flows of a 40-interval
/// two-weeks capture written — about 20 quarter-hour windows, less than
/// one 4 096-flow block — and the pipe left open, interval 0's
/// `--verbose` line arrives.
#[test]
fn a_live_feed_prints_intervals_before_a_block_fills() {
    let dir = scratch_dir("anomex-live-feed-test");
    let trace = dir.join("trace.nfv5");
    succeed(&[
        "generate",
        "--scenario",
        "two-weeks",
        "--scale",
        "0.01",
        "--intervals",
        "40",
        "--out",
        path(&trace),
    ]);
    let bytes = std::fs::read(&trace).unwrap();
    let (mut fed, mut flows) = (0, 0);
    for &start in &datagram_starts(&bytes) {
        let count = usize::from(u16::from_be_bytes([bytes[start + 2], bytes[start + 3]]));
        if flows + count > 3_775 {
            break;
        }
        (fed, flows) = (start + V5_HEADER_LEN + count * V5_RECORD_LEN, flows + count);
    }
    assert!(flows > 3_000, "{flows} flows fed");
    let (mut child, mut stdin, received) =
        stream_from_stdin(&["--interval-min", "15", "--verbose"]);
    stdin.write_all(&bytes[..fed]).unwrap();
    stdin.flush().unwrap();
    let line = first_line(&mut child, &received);
    assert!(line.starts_with("interval    0  ["), "{line}");
    drop(stdin);
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A v9 packet is one UDP datagram, so its framing closes within 64 KiB:
/// a header counting one record behind a megabyte of empty template
/// flowsets, piped into `stream --in -`, fails at the packet bound with
/// exit 1 and the decode error every stdin capture gets, named `stdin`
/// as its read errors are.
#[test]
fn an_unframed_packet_on_stdin_fails_at_the_packet_bound() {
    use anomex_netflow::v9::{encode_v9_options_template, V9_HEADER_LEN};
    let mut bytes = encode_v9_options_template(7, 0, 0)[..V9_HEADER_LEN].to_vec();
    bytes.extend([0, 0, 0, 4].repeat(1 << 18));
    let mut child = Command::new(env!("CARGO_BIN_EXE_anomex"))
        .args(["stream", "--in", "-", "--interval-min", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary runs");
    let mut stdin = child.stdin.take().unwrap();
    // The command stops reading at the bound, so the rest may not fit.
    let writer = std::thread::spawn(move || drop(stdin.write_all(&bytes)));
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        "error: stdin: no NetFlow packet framed within 65536 bytes; a v9/IPFIX export is one \
         UDP datagram of at most 65535 bytes\n"
    );
}
