//! A closed stderr changes no exit code: an error still exits 1 and a
//! clean `--stop-after` (or a `--resume`) still exits 0. The notes and
//! error lines are lost, nothing else — `eprintln!` would panic on the
//! broken pipe and exit 101.

use std::path::Path;
use std::process::{Command, Stdio};

/// Run `anomex` with `args`, stdout discarded and stderr on a pipe whose
/// read end is closed before the process starts; returns its exit code.
// `std::io::pipe` is newer than the workspace's `rust-version`; only this
// test uses it, and tests build with the pinned stable toolchain.
#[allow(clippy::incompatible_msrv)]
fn exit_code(args: &[&str]) -> i32 {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_anomex"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("the binary runs");
    status.code().expect("exited, not killed by a signal")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

#[test]
fn exit_codes_survive_a_closed_stderr() {
    let dir = std::env::temp_dir().join("anomex-closed-stderr-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("missing.nfv5");
    assert_eq!(exit_code(&["extract", "--in", path(&missing)]), 1);
    assert_eq!(exit_code(&["frobnicate"]), 1, "unknown command");
    assert_eq!(exit_code(&[]), 1, "no command: error and usage");

    let trace = dir.join("trace.nfv5");
    let generate = ["generate", "--out", path(&trace), "--intervals", "4"];
    assert_eq!(exit_code(&generate), 0);
    let checkpoints = dir.join("ck");
    let stream = [
        "stream",
        "--in",
        path(&trace),
        "--interval-min",
        "1",
        "--checkpoint-dir",
        path(&checkpoints),
    ];
    let stop = [&stream[..], &["--stop-after", "2"]].concat();
    assert_eq!(exit_code(&stop), 0, "stopped after 2 intervals");
    assert!(checkpoints.join("stream.ckpt").exists());
    let resume = [&stream[..], &["--resume"]].concat();
    assert_eq!(exit_code(&resume), 0, "resumed and finished");
    std::fs::remove_dir_all(&dir).ok();
}
