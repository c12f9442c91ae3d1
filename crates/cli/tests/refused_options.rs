//! The CLI refuses, with a message, what it would otherwise accept and
//! then drop: an option repeated where its `USAGE` block shows no
//! `...`, an `analyze` option that its mode does not read, a `--resume`
//! option that disagrees with the checkpoint, a `--miner` (extraction
//! always mines with FP-growth), and a `generate` run whose intervals
//! hold no flow (every consumer refuses an empty trace).

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn anomex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_anomex"))
        .args(args)
        .output()
        .expect("the binary runs")
}

/// Run `anomex` with `args`, which must fail with exit code 1; returns
/// its stderr.
fn refused(args: &[&str]) -> String {
    let out = anomex(args);
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert_eq!(out.status.code(), Some(1), "anomex {args:?}: {stderr}");
    stderr
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One 14-interval trace of the small scenario (seed 7), shared by the
/// tests of this file.
fn trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let path = fresh_dir("anomex-refused-options-test").join("trace.nfv5");
        let path = path.to_str().expect("UTF-8 temp path").to_string();
        let out = anomex(&[
            "generate",
            "--out",
            &path,
            "--seed",
            "7",
            "--intervals",
            "14",
        ]);
        assert!(out.status.success());
        path
    })
}

#[test]
fn a_repeated_in_is_refused_where_usage_shows_no_repeat() {
    let t = trace();
    let err = refused(&[
        "analyze",
        "--in",
        t,
        "--in",
        t,
        "--metadata",
        "dstPort=7000",
    ]);
    assert!(
        err.contains("--in is given more than once, but analyze takes it once"),
        "{err}"
    );
}

#[test]
fn a_repeated_single_valued_option_is_refused() {
    let line = ["extract", "--in", trace(), "--interval-min", "1"];
    let err = refused(&[&line[..], &["--interval-min", "5"]].concat());
    assert!(
        err.contains("--interval-min is given more than once, but extract takes it once"),
        "{err}"
    );
}

#[test]
fn analyze_k_needs_top() {
    let err = refused(&[
        "analyze",
        "--in",
        trace(),
        "--metadata",
        "dstPort=7000",
        "--k",
        "5",
    ]);
    assert_eq!(err, "error: --k needs --top\n");
}

#[test]
fn analyze_top_refuses_support() {
    let line = [
        "analyze",
        "--in",
        trace(),
        "--metadata",
        "dstPort=7000",
        "--top",
    ];
    let err = refused(&[&line[..], &["--support", "5"]].concat());
    assert_eq!(
        err,
        "error: --top finds its own support and does not take --support\n"
    );
}

/// Extraction mines with FP-growth, so no command takes `--miner` any
/// more: naming one, even FP-growth, is refused as any option outside a
/// command's `USAGE` block is, not silently ignored.
#[test]
fn miner_is_refused_by_extract_stream_and_analyze() {
    let t = trace();
    for line in [
        &["extract", "--in", t][..],
        &["stream", "--in", t],
        &["analyze", "--in", t, "--metadata", "dstPort=7000"],
    ] {
        let err = refused(&[line, &["--miner", "fpgrowth"]].concat());
        assert!(
            err.contains(&format!("{} does not take --miner", line[0])),
            "{line:?}: {err}"
        );
    }
}

/// A checkpoint fixes the grid and the settings no `reconfig` file
/// changes: resuming with a different value of any of them is refused,
/// naming the option and the checkpoint's value; `--miner` is refused
/// there as everywhere. Equal values and a different `--support` still
/// resume.
#[test]
fn resume_refuses_options_that_disagree_with_the_checkpoint() {
    let dir = fresh_dir("anomex-refused-resume-test").join("ckpt");
    let dir = dir.to_str().expect("UTF-8 temp path");
    let stream = ["stream", "--in", trace(), "--checkpoint-dir", dir];
    let first = [
        "--interval-min",
        "1",
        "--training",
        "10",
        "--support",
        "200",
    ];
    let out = anomex(&[&stream[..], &first, &["--stop-after", "12"]].concat());
    assert!(out.status.success());
    let resume = [&stream[..], &["--resume"]].concat();
    for (option, kept) in [
        (&["--interval-min", "5"][..], "1"),
        (&["--training", "30"], "10"),
        (&["--max-lag", "2"], "0"),
        (&["--prefixes"], "off"),
        (&["--intersection"], "off"),
    ] {
        let err = refused(&[&resume[..], option].concat());
        let given = option.get(1).copied().unwrap_or("on");
        assert!(
            err.contains(&format!(
                "{} {given} disagrees with the checkpoint's {kept}",
                option[0]
            )),
            "{option:?}: {err}"
        );
    }
    let err = refused(&[&resume[..], &["--miner", "apriori"]].concat());
    assert!(err.contains("stream does not take --miner"), "{err}");
    let same = ["--interval-min", "1", "--training", "10", "--max-lag", "0"];
    let out = anomex(&[&resume[..], &same, &["--support", "50"]].concat());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("Δ = 1 min, miner = fp-growth"), "{stdout}");
}

#[test]
fn generate_refuses_intervals_without_flows_and_writes_nothing() {
    let out = fresh_dir("anomex-refused-generate-test").join("empty.nfv5");
    let path = out.to_str().expect("UTF-8 temp path");
    let err = refused(&[
        "generate",
        "--scenario",
        "two-weeks",
        "--scale",
        "1e-12",
        "--intervals",
        "3",
        "--out",
        path,
    ]);
    assert!(
        err.contains("the 3 synthesized interval(s) hold no flows"),
        "{err}"
    );
    assert!(!out.exists(), "no file is written");
}
