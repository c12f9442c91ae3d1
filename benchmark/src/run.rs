//! The end-to-end run: set up, replay the trace through the real
//! `anomex` binary K times per mode, check every pass, reduce to the
//! end-to-end metrics. Never traces.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant, SystemTime};

use crate::check::{count_failures, mode_mismatches, score};
use crate::child::{self, PassFailure, Usage};
use crate::manifest::{Metric, END_TO_END};
use crate::parse::{parse_output, PassOutput};
use crate::stats::{
    best_of_k, best_of_k_wall, fast_half, median, minimum, quartiles, spread_over_min,
    tail_percentile,
};
use crate::workload::{self, Mode, Truth, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes per mode, however short `--seconds` is.
const MIN_PASSES: usize = 6;
/// Most timed passes per mode, however fast the machine is.
const MAX_PASSES: usize = 16;
/// A timed pass may take this many times its warm-up before it is
/// killed and counted as failed.
const LIMIT_FACTOR: u32 = 10;
/// Time limit of a warm-up pass, which has nothing to be compared to.
const WARMUP_LIMIT: Duration = Duration::from_secs(120);

/// The repository checkout and the `anomex` binary built from it.
#[derive(Debug, Clone)]
pub struct Env {
    /// `benchmark/out`, where traces and pass outputs go.
    pub out: PathBuf,
    /// The built `anomex` binary.
    pub anomex: PathBuf,
}

/// Newest modification time among the files a cargo dep-info file
/// (`anomex.d`) lists — exactly the sources the binary was built from.
fn newest_source(dep_info: &Path) -> Result<SystemTime, String> {
    let text = fs::read_to_string(dep_info)
        .map_err(|e| format!("cannot read {}: {e}", dep_info.display()))?;
    let (_, sources) = text
        .split_once(": ")
        .ok_or_else(|| format!("{}: not a dep-info file", dep_info.display()))?;
    let mut newest = SystemTime::UNIX_EPOCH;
    for source in sources.split_whitespace() {
        let modified = fs::metadata(source)
            .and_then(|m| m.modified())
            .map_err(|e| format!("{source} (a source of the binary): {e}"))?;
        newest = newest.max(modified);
    }
    Ok(newest)
}

/// Refuse a binary older than any source it was built from: numbers
/// measured on it would be credited to code it does not contain.
pub fn ensure_fresh(binary: &Path) -> Result<(), String> {
    let built = fs::metadata(binary)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    if built < newest_source(&binary.with_extension("d"))? {
        return Err(format!(
            "{} is older than its sources; rebuild it",
            binary.display()
        ));
    }
    Ok(())
}

/// Build `anomex` from the checkout this crate sits in (untimed) and
/// locate the result.
pub fn prepare() -> Result<Env, String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .ok_or("the benchmark crate has no parent directory")?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    // A relative CARGO_TARGET_DIR is relative to where cargo was called
    // from; the nested cargo runs elsewhere, so pin it down.
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => cwd.join(dir),
        None => root.join("target"),
    };
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "anomex-cli",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building anomex-cli failed ({status})"));
    }
    let anomex = target.join("release").join("anomex");
    ensure_fresh(&anomex)?;
    Ok(Env {
        out: bench_dir.join("out"),
        anomex,
    })
}

/// One finished, parsed pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// What it cost.
    pub usage: Usage,
    /// What it printed.
    pub output: PassOutput,
}

/// Everything a pass needs besides its mode: which binary replays
/// which generated trace.
#[derive(Debug, Clone, Copy)]
pub struct Replay<'a> {
    /// The built binary and the output directory.
    pub env: &'a Env,
    /// The workload (for the `anomex` options).
    pub workload: Workload,
    /// The trace files, in `--in` order.
    pub inputs: &'a [PathBuf],
    /// What is in them.
    pub truth: &'a Truth,
}

impl Replay<'_> {
    /// Run one `anomex` pass with stdout in `<dir>/<label>.<mode>.txt`
    /// and parse what it printed.
    pub fn pass(
        &self,
        mode: Mode,
        threads: usize,
        label: &str,
        limit: Duration,
    ) -> Result<Pass, PassFailure> {
        let dir = self.inputs[0]
            .parent()
            .expect("trace files sit in a directory");
        let stdout_path = dir.join(format!("{label}.{}.txt", mode.name()));
        let args = self.workload.cli_args(mode, self.inputs, threads);
        let usage = child::run(&self.env.anomex, &args, &stdout_path, limit)?;
        let text =
            fs::read_to_string(&stdout_path).map_err(|e| PassFailure::Parse(e.to_string()))?;
        if text.trim().is_empty() {
            return Err(PassFailure::NoOutput);
        }
        let output = parse_output(&text).map_err(PassFailure::Parse)?;
        // `stream` prints every interval's flow count: nothing may be
        // lost between the trace file and the pipeline.
        let streamed: u64 = output.lines.iter().map(|l| l.flows).sum();
        if mode == Mode::Stream && streamed != self.truth.flows {
            return Err(PassFailure::Parse(format!(
                "{streamed} flows in the interval lines, {} in the trace",
                self.truth.flows
            )));
        }
        Ok(Pass { usage, output })
    }
}

/// A generated workload on disk, with one untimed pass per mode done.
pub struct SetUp {
    /// The workload.
    pub workload: Workload,
    /// The trace files, in `--in` order.
    pub inputs: Vec<PathBuf>,
    /// What was planted.
    pub truth: Truth,
    /// The warm-up `extract` pass.
    pub warm_extract: Pass,
    /// The warm-up `stream` pass.
    pub warm_stream: Pass,
    /// Generation + write + both warm-up passes, seconds.
    pub seconds: f64,
}

impl SetUp {
    /// The handle further passes over this set-up run through.
    pub fn replay<'a>(&'a self, env: &'a Env) -> Replay<'a> {
        Replay {
            env,
            workload: self.workload,
            inputs: &self.inputs,
            truth: &self.truth,
        }
    }

    /// Time limit of a timed pass: a multiple of its mode's warm-up.
    pub fn limit(&self, mode: Mode) -> Duration {
        let warm = match mode {
            Mode::Extract => &self.warm_extract,
            Mode::Stream => &self.warm_stream,
        };
        Duration::from_secs_f64(warm.usage.wall_s.max(0.5)) * LIMIT_FACTOR
    }
}

/// Generate the workload from the seed into a fresh directory and run
/// one warm-up pass per mode (page cache, and whatever the program may
/// one day cache on first contact with a trace).
pub fn set_up(env: &Env, workload: Workload, seed: u64) -> Result<SetUp, String> {
    let dir = env.out.join(format!("{}-{seed}", workload.name()));
    if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let started = Instant::now();
    let (inputs, truth) =
        workload::generate(workload, seed, &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let replay = Replay {
        env,
        workload,
        inputs: &inputs,
        truth: &truth,
    };
    let warm = |mode: Mode| {
        replay
            .pass(mode, 1, "warmup", WARMUP_LIMIT)
            .map_err(|e| format!("{} warm-up {} pass: {e}", workload.name(), mode.name()))
    };
    let warm_extract = warm(Mode::Extract)?;
    let warm_stream = warm(Mode::Stream)?;
    Ok(SetUp {
        seconds: started.elapsed().as_secs_f64(),
        workload,
        inputs,
        truth,
        warm_extract,
        warm_stream,
    })
}

/// This process's own peak resident set (`VmHWM`), MiB; `None` where
/// `/proc` does not say.
fn own_peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// The outcome of one benchmark invocation, ready to print.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted (≥ 1).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics, in manifest order.
    pub metrics: Vec<(&'static Metric, f64)>,
}

fn describe(label: &str, unit: &str, values: &[f64]) {
    let min = minimum(values);
    let (q1, q3) = quartiles(values).unwrap_or((min, min));
    println!(
        "  {label}: n = {}, min {min:.4}, q1 {q1:.4}, median {:.4}, q3 {q3:.4} {unit}",
        values.len(),
        median(values),
    );
}

/// What each pass printed; `None` for a pass with no usable output.
fn outputs(passes: &[Result<Pass, PassFailure>]) -> Vec<Option<&PassOutput>> {
    passes
        .iter()
        .map(|p| p.as_ref().ok().map(|p| &p.output))
        .collect()
}

/// `benchmark run`: the end-to-end metrics of one workload and seed.
pub fn run(env: &Env, workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        setups.push(set_up(env, workload, seed)?);
    }
    let setup_seconds: Vec<f64> = setups.iter().map(|s| s.seconds).collect();
    let setup = setups.pop().expect("SETUPS > 0");
    let (replay, truth) = (setup.replay(env), &setup.truth);
    let intervals = setup.warm_extract.output.intervals;

    let timed = |mode: Mode, k: usize| {
        let result = replay.pass(mode, 1, &format!("pass{k}"), setup.limit(mode));
        if let Err(failure) = &result {
            println!("  {} pass {k} failed: {failure}", mode.name());
        }
        result
    };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut extracts, mut streams) = (Vec::new(), Vec::new());
    while extracts.len() < MAX_PASSES && (extracts.len() < MIN_PASSES || Instant::now() < deadline)
    {
        let k = extracts.len();
        extracts.push(timed(Mode::Extract, k));
        streams.push(timed(Mode::Stream, k));
    }

    let (extract_failed, extract_attempted) = count_failures(&outputs(&extracts), intervals);
    let (stream_failed, stream_attempted) = count_failures(&outputs(&streams), intervals);
    let good = |passes: Vec<Result<Pass, PassFailure>>, mode: Mode| -> Result<Vec<Pass>, String> {
        let good: Vec<Pass> = passes.into_iter().filter_map(Result::ok).collect();
        if good.is_empty() {
            Err(format!("every timed {} pass failed", mode.name()))
        } else {
            Ok(good)
        }
    };
    let extracts = good(extracts, Mode::Extract)?;
    let streams = good(streams, Mode::Stream)?;
    let mismatched = mode_mismatches(&extracts[0].output, &streams[0].output);
    let failed = extract_failed + stream_failed + mismatched;

    let walls = |passes: &[Pass]| passes.iter().map(|p| p.usage.wall_s).collect::<Vec<f64>>();
    let (extract_walls, stream_walls) = (walls(&extracts), walls(&streams));
    let peak_rss = |passes: &[Pass]| {
        passes
            .iter()
            .map(|p| p.usage.max_rss_mib)
            .fold(0.0, f64::max)
    };
    // A child's `ru_maxrss` starts at its parent's peak (see
    // `workload::generate`); a harness that outgrew a child would report
    // its own size as the child's.
    let smallest_child = extracts
        .iter()
        .chain(&streams)
        .map(|p| p.usage.max_rss_mib)
        .fold(f64::INFINITY, f64::min);
    if let Some(own) = own_peak_rss_mib().filter(|&own| own >= smallest_child) {
        return Err(format!(
            "the harness peaked at {own:.1} MiB, a child at {smallest_child:.1} MiB: \
             the children's peak RSS cannot be read"
        ));
    }
    let micros: Vec<Vec<u64>> = streams
        .iter()
        .map(|p| p.output.lines.iter().map(|l| l.micros).collect())
        .collect();
    let profile =
        best_of_k(&micros).ok_or("stream passes closed different numbers of intervals")?;
    let profile_ms: Vec<f64> = profile.iter().map(|&us| us as f64 / 1000.0).collect();
    let stream_wall = best_of_k_wall(&stream_walls, &micros, &profile, 1e-6);
    let accuracy = score(&extracts[0].output.reports, truth);
    let flows = truth.flows as f64;

    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "setup_s" => median(&setup_seconds),
            "extract_flows_per_s" => flows / minimum(&extract_walls),
            "stream_flows_per_s" => flows / stream_wall,
            "stream_interval_p50_ms" => tail_percentile(&profile_ms, 50.0)?,
            "stream_interval_p90_ms" => tail_percentile(&profile_ms, 90.0)?,
            "extract_peak_rss_mb" => peak_rss(&extracts),
            "stream_peak_rss_mb" => peak_rss(&streams),
            "event_recall" => accuracy.event_recall(),
            other => return Err(format!("no end-to-end metric named {other}")),
        })
    };
    let mut metrics = Vec::with_capacity(END_TO_END.len());
    for metric in &END_TO_END {
        metrics.push((metric, value(metric.name)?));
    }

    println!(
        "{} seed {seed}: {} flows, {} bytes, {intervals} intervals, {} planted events, \
         K = {} passes per mode, 1 thread (+ the stream pipeline thread)",
        workload.name(),
        truth.flows,
        truth.bytes,
        truth.events.len(),
        extracts.len(),
    );
    describe("set-up", "s", &setup_seconds);
    describe("extract pass wall", "s", &extract_walls);
    describe("stream pass wall", "s", &stream_walls);
    describe("best-of-K interval latency", "ms", &profile_ms);
    println!(
        "  pass spread (median - min) / min: extract {:.4}, stream {:.4}; fast-half wall: extract {:.4} s, stream {:.4} s; best-of-K stream wall {stream_wall:.4} s",
        spread_over_min(&extract_walls),
        spread_over_min(&stream_walls),
        fast_half(&extract_walls),
        fast_half(&stream_walls),
    );
    println!(
        "  accuracy: {} of {} planted events extracted, {} reports, {} item-sets, {} matching nothing planted ({:.3} per alarm)",
        accuracy.recalled,
        accuracy.planted,
        accuracy.reports,
        accuracy.itemsets,
        accuracy.fp_itemsets,
        accuracy.fp_itemsets_per_alarm(),
    );
    println!(
        "  intervals: {} attempted, {failed} failed ({extract_failed} extract, {stream_failed} stream, {mismatched} extract-vs-stream)",
        extract_attempted + stream_attempted,
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: extract_attempted + stream_attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;

    #[test]
    fn a_binary_older_than_a_source_is_refused() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-fresh");
        fs::create_dir_all(&dir).unwrap();
        let (binary, source) = (dir.join("tool"), dir.join("lib.rs"));
        fs::write(&binary, "binary").unwrap();
        fs::write(&source, "source").unwrap();
        fs::write(
            dir.join("tool.d"),
            format!(
                "{}: {} {}\n",
                binary.display(),
                source.display(),
                source.display()
            ),
        )
        .unwrap();
        let now = SystemTime::now();
        let set = |path: &Path, time: SystemTime| {
            File::options()
                .write(true)
                .open(path)
                .unwrap()
                .set_modified(time)
                .unwrap();
        };
        set(&source, now - Duration::from_secs(60));
        set(&binary, now);
        assert_eq!(ensure_fresh(&binary), Ok(()));
        set(&source, now + Duration::from_secs(60));
        assert!(ensure_fresh(&binary)
            .unwrap_err()
            .contains("older than its sources"));
        // A binary without dep-info, or with a vanished source, cannot
        // be vouched for either.
        fs::remove_file(&source).unwrap();
        assert!(ensure_fresh(&binary)
            .unwrap_err()
            .contains("a source of the binary"));
        fs::remove_file(dir.join("tool.d")).unwrap();
        assert!(ensure_fresh(&binary).is_err());
    }
}
