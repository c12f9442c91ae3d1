//! `--threads` selects nothing: every interval runs on one engine
//! thread. `extract` and `stream` still take it — stdout unchanged, the
//! closing summary echoing the value — and say once on stderr that a
//! value other than 1 is ignored; `analyze` no longer takes it.

use std::process::{Command, Output};

fn anomex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_anomex"))
        .args(args)
        .output()
        .expect("the binary runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("UTF-8 output")
}

/// Stdout without `stream`'s measured latency line, the one line that
/// differs from run to run.
fn steady(out: &Output) -> String {
    (text(&out.stdout).lines())
        .filter(|line| !line.starts_with("per-interval latency:"))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn threads_is_noted_where_accepted_and_refused_by_analyze() {
    let dir = std::env::temp_dir().join("anomex-threads-option-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.nfv5");
    let trace = trace.to_str().expect("UTF-8 temp path");
    assert!(anomex(&["generate", "--out", trace, "--intervals", "4"])
        .status
        .success());

    for command in ["extract", "stream"] {
        let run = |threads: &str| {
            let out = anomex(&[
                command,
                "--in",
                trace,
                "--interval-min",
                "1",
                "--threads",
                threads,
            ]);
            assert!(out.status.success(), "{command} --threads {threads}");
            out
        };
        let (one, two) = (run("1"), run("2"));
        assert_eq!(text(&one.stderr), "", "{command}: no note at 1");
        assert_eq!(
            text(&two.stderr),
            "--threads 2 is accepted for compatibility: each interval runs on one engine thread\n",
            "{command}"
        );
        assert!(steady(&one).contains("threads = 1)"), "{command}");
        assert_eq!(
            steady(&two),
            steady(&one).replace("threads = 1)", "threads = 2)"),
            "{command}: only the echoed value differs"
        );
    }

    let out = anomex(&[
        "analyze",
        "--in",
        trace,
        "--metadata",
        "dstPort=7000",
        "--threads",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        text(&out.stderr).contains("analyze does not take --threads"),
        "{}",
        text(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
