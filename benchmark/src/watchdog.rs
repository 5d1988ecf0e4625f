//! The hard wall-clock deadline of a workload run.
//!
//! The program's pool barrier can spin forever (ROADMAP P0), and the
//! benchmark must never be what hangs a pipeline: when the deadline passes,
//! the watchdog thread counts the operations still outstanding as failed,
//! writes the partial record, and ends the process with a nonzero code and
//! no result line — whatever the measuring thread is stuck in.

use crate::json::Json;
use crate::stats::Arm;
use crate::verify::Tally;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit code of a run the watchdog ended.
pub const EXPIRED_EXIT_CODE: i32 = 3;
const POLL: Duration = Duration::from_millis(20);

#[derive(Debug, Default)]
struct Progress {
    phase: &'static str,
    tally: Tally,
    /// The burst now running: its arm and how many operations it owes.
    burst: Option<(Arm, u64)>,
}

impl Progress {
    /// The tally as it stands if the run stops now: operations of the burst
    /// in progress never finished, so they are attempted and failed.
    fn tally_if_stopped(&self) -> Tally {
        let mut tally = self.tally.clone();
        if let Some((arm, ops)) = self.burst {
            tally.record_unfinished(arm, ops);
            tally.note(format!(
                "watchdog: {ops} {} operation(s) unfinished in phase {}",
                arm.name(),
                self.phase
            ));
        }
        tally
    }
}

pub fn tally_json(tally: &Tally) -> Json {
    Json::obj(Arm::ALL.map(|arm| {
        let t = tally.arm(arm);
        (
            arm.name(),
            Json::obj([
                ("ops_attempted", Json::U64(t.attempted)),
                ("ops_failed", Json::U64(t.failed)),
                ("ops_verified", Json::U64(t.verified)),
                ("silent_corruptions", Json::U64(t.silent_corruptions)),
            ]),
        )
    }))
}

pub struct Watchdog {
    progress: Arc<Mutex<Progress>>,
    /// The child process now running on this run's behalf, so an expiry can
    /// stop it too.
    child: Arc<Mutex<Option<Child>>>,
    done: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the deadline clock. On expiry the partial record goes to
    /// `<out_dir>/<workload>.partial.json`.
    pub fn start(workload: &str, deadline: Duration, out_dir: PathBuf) -> Watchdog {
        let progress = Arc::new(Mutex::new(Progress {
            phase: "start",
            ..Progress::default()
        }));
        let done = Arc::new(AtomicBool::new(false));
        let child: Arc<Mutex<Option<Child>>> = Arc::default();
        let thread = {
            let (progress, done, workload) = (
                Arc::clone(&progress),
                Arc::clone(&done),
                workload.to_string(),
            );
            let child = Arc::clone(&child);
            let started = Instant::now();
            std::thread::spawn(move || loop {
                // Release/Acquire with `stop`: a watchdog that sees `done`
                // also sees the finished run's writes (it touches none).
                if done.load(Ordering::Acquire) {
                    return;
                }
                if started.elapsed() >= deadline {
                    stop_child(&child);
                    expire(&workload, deadline, &progress, &out_dir);
                }
                std::thread::sleep(POLL);
            })
        };
        Watchdog {
            progress,
            child,
            done,
            thread: Some(thread),
        }
    }

    /// Runs a child process to its end under the deadline and returns its
    /// exit status and standard output (standard error is passed through).
    /// The child must print little: its output is read after it exits.
    pub fn run_child(&self, mut cmd: Command) -> std::io::Result<(ExitStatus, String)> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let spawned = cmd.spawn()?;
        *self.child.lock().expect("child slot lock") = Some(spawned);
        loop {
            {
                let mut slot = self.child.lock().expect("child slot lock");
                // An expiry takes the child out and then ends this process.
                let Some(child) = slot.as_mut() else {
                    return Err(std::io::Error::other("the watchdog stopped the child"));
                };
                if let Some(status) = child.try_wait()? {
                    let mut out = String::new();
                    if let Some(mut pipe) = slot.take().and_then(|mut c| c.stdout.take()) {
                        pipe.read_to_string(&mut out)?;
                    }
                    return Ok((status, out));
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Progress> {
        // The lock is only held for field updates that cannot panic.
        self.progress.lock().expect("watchdog progress lock")
    }

    pub fn phase(&self, phase: &'static str) {
        self.lock().phase = phase;
    }

    /// A burst of `ops` operations on `arm` is about to start.
    pub fn begin_burst(&self, arm: Arm, ops: u64) {
        self.lock().burst = Some((arm, ops));
    }

    /// The burst finished; `tally` is the run's tally including it.
    pub fn end_burst(&self, tally: &Tally) {
        let mut p = self.lock();
        p.burst = None;
        p.tally = tally.clone();
    }

    /// The run finished in time: stop the clock and wait for the thread.
    pub fn stop(mut self) {
        self.done.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.join().expect("watchdog thread panicked");
        }
    }
}

/// Kills the run's child process, if one is running, and waits for it.
fn stop_child(child: &Mutex<Option<Child>>) {
    let taken = child.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(mut c) = taken {
        // Already-exited children make `kill` fail; either way it is reaped.
        let _ = c.kill();
        let _ = c.wait();
    }
}

fn expire(workload: &str, deadline: Duration, progress: &Mutex<Progress>, out_dir: &PathBuf) -> ! {
    // A poisoned lock still holds the last consistent progress.
    let p = progress.lock().unwrap_or_else(|e| e.into_inner());
    let tally = p.tally_if_stopped();
    let record = Json::obj([
        ("workload", Json::str(workload)),
        ("watchdog_expired", Json::Bool(true)),
        ("deadline_s", Json::F64(deadline.as_secs_f64())),
        ("phase", Json::str(p.phase)),
        ("correct", Json::Bool(false)),
        ("attempted", Json::U64(tally.attempted())),
        ("failed", Json::U64(tally.failed())),
        ("arms", tally_json(&tally)),
        (
            "notes",
            Json::Arr(tally.notes.iter().map(Json::str).collect()),
        ),
    ]);
    let path = out_dir.join(format!("{workload}.partial.json"));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, record.render() + "\n"));
    eprintln!(
        "watchdog: workload {workload} passed its {:.1} s deadline in phase {}; \
         {} of {} operations failed or unfinished; partial record {}",
        deadline.as_secs_f64(),
        p.phase,
        tally.failed(),
        tally.attempted(),
        match written {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("not written ({e})"),
        }
    );
    std::process::exit(EXPIRED_EXIT_CODE);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Outcome;

    #[test]
    fn unfinished_burst_counts_as_failed() {
        let mut tally = Tally::default();
        tally.record(Arm::Off, Outcome::Verified);
        let p = Progress {
            phase: "round",
            tally,
            burst: Some((Arm::Ft, 3)),
        };
        let stopped = p.tally_if_stopped();
        assert_eq!(stopped.attempted(), 4);
        assert_eq!(stopped.failed(), 3);
        assert_eq!(stopped.arm(Arm::Ft).failed, 3);
        assert!(!stopped.correct());
        assert!(stopped.notes[0].contains("unfinished"));
    }

    #[test]
    fn between_bursts_nothing_is_added() {
        let mut tally = Tally::default();
        tally.record(Arm::Off, Outcome::Verified);
        let p = Progress {
            phase: "round",
            tally: tally.clone(),
            burst: None,
        };
        assert_eq!(p.tally_if_stopped(), tally);
    }

    #[test]
    fn a_child_runs_to_its_end_and_its_output_comes_back() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/watchdog-unit-test");
        let w = Watchdog::start("unit-child", Duration::from_secs(3600), dir);
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo setup_s 0.25; exit 7"]);
        let (status, out) = w.run_child(cmd).expect("sh runs");
        assert_eq!(status.code(), Some(7));
        assert_eq!(out.trim(), "setup_s 0.25");
        w.stop();
    }

    #[test]
    fn stopping_a_child_kills_and_reaps_it() {
        let slot = Mutex::new(Some(
            Command::new("sleep")
                .arg("600")
                .spawn()
                .expect("sleep runs"),
        ));
        let started = Instant::now();
        stop_child(&slot);
        assert!(slot.lock().unwrap().is_none());
        assert!(started.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn a_run_that_finishes_in_time_stops_the_clock() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/watchdog-unit-test");
        let w = Watchdog::start("unit", Duration::from_secs(3600), dir.clone());
        w.begin_burst(Arm::Inj, 2);
        w.end_burst(&Tally::default());
        w.stop();
        assert!(!dir.join("unit.partial.json").exists());
    }
}
