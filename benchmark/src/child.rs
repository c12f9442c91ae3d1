//! Running one `anomex` pass as a child process and reading what it
//! cost: wall time, CPU time and peak resident set, from `wait4(2)`.
//!
//! The harness spawns one child at a time and sleeps in `wait4` while it
//! runs, so the child has the machine to itself as far as this process
//! is concerned. A watchdog thread kills a child that overruns its time
//! limit; it too sleeps until then.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Why a pass produced no usable output. The harness counts every
/// interval of such a pass as failed and carries on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassFailure {
    /// The child could not be started or waited for.
    Spawn(String),
    /// The child exited with a non-zero code.
    Exit(i32),
    /// The child was killed by a signal it did not get from the watchdog.
    Signal(i32),
    /// The child ran past its time limit and was killed.
    Timeout(Duration),
    /// The child exited cleanly but printed nothing.
    NoOutput,
    /// The output could not be parsed.
    Parse(String),
}

impl std::fmt::Display for PassFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassFailure::Spawn(e) => write!(f, "could not run the child: {e}"),
            PassFailure::Exit(code) => write!(f, "child exited with code {code}"),
            PassFailure::Signal(sig) => write!(f, "child was killed by signal {sig}"),
            PassFailure::Timeout(limit) => write!(f, "child exceeded {limit:.1?} and was killed"),
            PassFailure::NoOutput => write!(f, "child printed nothing"),
            PassFailure::Parse(e) => write!(f, "unparseable output: {e}"),
        }
    }
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// Spawn to reaped, seconds.
    pub wall_s: f64,
    /// `ru_utime + ru_stime`, seconds.
    pub cpu_s: f64,
    /// `ru_maxrss`, MiB.
    pub max_rss_mib: f64,
}

mod sys {
    //! Raw `wait4(2)` / `kill(2)` bindings; the offline build has no
    //! `libc` crate (cf. `vendor/mmap`).

    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        /// Peak resident set size in KiB.
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const SIGKILL: i32 = 9;

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }
}

/// Run `program args…` with stdout redirected to `stdout_path` and
/// stderr to `<stdout_path>.err`, block until it ends, and return its
/// resource usage — or the typed reason it is unusable.
pub fn run(
    program: &Path,
    args: &[String],
    stdout_path: &Path,
    limit: Duration,
) -> Result<Usage, PassFailure> {
    let spawn_err = |e: std::io::Error| PassFailure::Spawn(e.to_string());
    let stdout = File::create(stdout_path).map_err(spawn_err)?;
    let stderr = File::create(stdout_path.with_extension("err")).map_err(spawn_err)?;
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(spawn_err)?;
    let pid = child.id() as i32;

    // The watchdog sleeps until the limit or until told the child is
    // reaped. It fires only when the limit passes first, and the main
    // thread reports the reaping right after `wait4` returns, so the
    // signal goes to our own child, not to a recycled pid (the limit is
    // ten times what the pass should take; the race is theoretical).
    let (reaped_tx, reaped_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let timed_out = reaped_rx.recv_timeout(limit).is_err();
        if timed_out {
            // SAFETY: `kill` takes plain integers and touches no memory
            // of this process; `pid` is our own child (see above).
            unsafe { sys::kill(pid, sys::SIGKILL) };
        }
        timed_out
    });

    let mut status = 0i32;
    let mut rusage = sys::Rusage::default();
    // SAFETY: both pointers are to live, correctly laid-out locals that
    // outlive the call; `pid` is a child of this process that nothing
    // else waits for (`std::process::Child` never reaps on drop).
    let reaped = unsafe { sys::wait4(pid, &mut status, 0, &mut rusage) };
    let wall_s = started.elapsed().as_secs_f64();
    let _ = reaped_tx.send(());
    let timed_out = watchdog.join().expect("watchdog thread does not panic");
    drop(child);

    if reaped != pid {
        return Err(PassFailure::Spawn(format!(
            "wait4({pid}) returned {reaped}: {}",
            std::io::Error::last_os_error()
        )));
    }
    let signal = status & 0x7f;
    if signal != 0 {
        return Err(if timed_out && signal == sys::SIGKILL {
            PassFailure::Timeout(limit)
        } else {
            PassFailure::Signal(signal)
        });
    }
    let code = (status >> 8) & 0xff;
    if code != 0 {
        return Err(PassFailure::Exit(code));
    }
    let secs = |t: &sys::Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Usage {
        wall_s,
        cpu_s: secs(&rusage.utime) + secs(&rusage.stime),
        max_rss_mib: rusage.maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-child");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sh(script: &str, name: &str, limit_ms: u64) -> Result<Usage, PassFailure> {
        run(
            Path::new("/bin/sh"),
            &["-c".into(), script.into()],
            &out(name),
            Duration::from_millis(limit_ms),
        )
    }

    #[test]
    fn a_clean_child_reports_usage_and_output() {
        let usage = sh("echo hello", "ok.txt", 5000).unwrap();
        assert!(usage.wall_s > 0.0 && usage.wall_s < 5.0);
        assert!(usage.max_rss_mib > 0.1, "ru_maxrss was read: {usage:?}");
        assert_eq!(std::fs::read_to_string(out("ok.txt")).unwrap(), "hello\n");
    }

    #[test]
    fn failures_are_typed_not_fatal() {
        assert_eq!(sh("exit 3", "exit.txt", 5000), Err(PassFailure::Exit(3)));
        assert_eq!(
            sh("kill -TERM $$", "sig.txt", 5000),
            Err(PassFailure::Signal(15))
        );
        assert_eq!(
            sh("sleep 5", "slow.txt", 50),
            Err(PassFailure::Timeout(Duration::from_millis(50)))
        );
        assert!(matches!(
            run(
                Path::new("/no/such/program"),
                &[],
                &out("none.txt"),
                Duration::from_secs(1)
            ),
            Err(PassFailure::Spawn(_))
        ));
    }
}
