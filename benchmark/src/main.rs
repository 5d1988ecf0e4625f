//! The repo benchmark: six workloads, calibrated-efficiency and FT-cost
//! metrics, and a layer ladder traced from outside. See `README.md`.
//!
//! ```text
//! ftgemm-benchmark run   --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--deadline-s D]
//! ftgemm-benchmark aa    [--seed N] [--seconds S] [--smoke]
//! ftgemm-benchmark list
//! ftgemm-benchmark setup --workload <name> [--seed N] [--smoke]    (what `run` starts for its extra set-ups)
//! ```
//!
//! `run` with one workload prints every metric by name with its unit, and
//! as the last line of standard output one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod gen;
mod json;
mod probes;
mod spec;
mod stats;
mod sut;
mod trace;
mod verify;
mod watchdog;
mod workloads;

use json::Json;
use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Arm;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::{ArmRound, Options};

const USAGE: &str = "usage:
  ftgemm-benchmark run   --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--deadline-s D]
  ftgemm-benchmark aa    [--seed N] [--seconds S] [--smoke]
  ftgemm-benchmark list
  ftgemm-benchmark setup --workload <name> [--seed N] [--smoke]";

/// Seconds a run measures when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;
/// Hard wall-clock deadline of one workload run.
const DEFAULT_DEADLINE_S: f64 = 90.0;

struct Args {
    workload: Option<String>,
    deadline: Duration,
    opts: Options,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        deadline: Duration::from_secs_f64(DEFAULT_DEADLINE_S),
        opts: Options {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.to_string()),
            "--seed" => out.opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                out.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                out.opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--deadline-s" => {
                let v = value()?;
                let secs: f64 = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(|| bad(v))?;
                out.deadline = Duration::from_secs_f64(secs);
            }
            "--smoke" => out.opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_record(name: &str, record: &Json) {
    let dir = results_dir();
    let path = dir.join(name);
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, record.render() + "\n"))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))])
}

fn print_metrics(title: &str, table: &[MetricSpec], values: &[(&'static str, f64)]) {
    println!("{title}");
    for (spec, (name, value)) in table.iter().zip(values) {
        assert_eq!(spec.name, *name, "metric tables out of step");
        let bound = spec
            .bound
            .map_or(String::new(), |b| format!("  (bound {b})"));
        println!(
            "  {name:<34} {value:>16.6} {:<9} {} is better{bound}",
            spec.unit,
            spec.better.as_str()
        );
    }
}

/// This binary run again as `<command> --workload <workload>` with this
/// run's seed, smoke flag and deadline.
fn self_command(command: &str, workload: &str, args: &Args) -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args([command, "--workload", workload])
        .args(["--seed", &args.opts.seed.to_string()])
        .args(["--deadline-s", &args.deadline.as_secs_f64().to_string()]);
    if args.opts.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// One set-up in this process, its seconds on standard output: what `run`
/// starts `SETUPS - 1` times, so every set-up behind `setup_s` happens in a
/// fresh process, as a user's does.
fn set_up_once(workload: &str, args: &Args) -> ExitCode {
    let watchdog = watchdog::Watchdog::start(workload, args.deadline, results_dir());
    let mut ledger = workloads::Ledger::new(false);
    let result = workloads::set_up_only(workload, &args.opts, &mut ledger);
    watchdog.stop();
    match result {
        Ok(seconds) if ledger.tally.correct() => {
            println!("setup_s {seconds}");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!(
                "set-up of {workload}: warm-up operations failed: {:?}",
                ledger.tally.notes
            );
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("set-up of {workload} failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// The set-up seconds of `SETUPS - 1` fresh processes, one after the other.
fn earlier_setups(
    workload: &str,
    args: &Args,
    watchdog: &watchdog::Watchdog,
) -> Result<Vec<f64>, String> {
    watchdog.phase("set-up in fresh processes");
    (1..workloads::SETUPS)
        .map(|_| {
            let cmd = self_command("setup", workload, args).map_err(|e| e.to_string())?;
            let (status, out) = watchdog.run_child(cmd).map_err(|e| e.to_string())?;
            out.trim()
                .strip_prefix("setup_s ")
                .filter(|_| status.success())
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("set-up process ended with {status} and printed {out:?}"))
        })
        .collect()
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let opts = &args.opts;
    let width = calib::Width::detect();
    let host = sut::host();
    let watchdog = watchdog::Watchdog::start(workload, args.deadline, results_dir());
    let mut ledger = workloads::Ledger::new(opts.trace);

    let measured = earlier_setups(workload, args, &watchdog)
        .and_then(|setups| workloads::run(workload, opts, width, setups, &mut ledger, &watchdog));
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("workload {workload} could not run: {e}");
            return ExitCode::from(1);
        }
    };
    // The program's counters against the benchmark's own, before the ladder
    // adds its operations to the ledger.
    let reported_injected: u64 = ledger.reports.iter().map(|r| r.injected).sum();
    let mut counters_agree = ledger.counter_mismatches == 0
        && measured.injector_fired == reported_injected
        && measured
            .service_injected
            .is_none_or(|s| s == reported_injected);
    if measured.inj_applied {
        counters_agree &= reported_injected > 0;
    }
    let reports = ledger.reports;

    let per_layer = if opts.trace {
        watchdog.phase("ladder");
        match probes::ladder(opts, width, &host, &measured, &mut ledger, &watchdog) {
            Ok(values) => Some(values),
            Err(e) => {
                eprintln!("layer ladder failed: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };
    watchdog.stop();

    let end_to_end = measured.end_to_end(workloads::peak_rss_mb());
    let tally = &ledger.tally;
    let correct = tally.correct() && counters_agree;

    println!(
        "workload {workload}  seed {}  {} rounds  calibrated on {} thread(s)  host: {} cpus, {}, kernel {}",
        opts.seed,
        measured.rounds.len(),
        measured.calib_threads,
        host.nproc,
        host.isa,
        host.kernel_f64
    );
    for arm in Arm::ALL {
        let t = tally.arm(arm);
        println!(
            "  {:<3} ops attempted {:>7}  failed {:>3}  verified {:>6}  silent corruptions {}  median {:.2} GF/s, {:.1} ops/s",
            arm.name(),
            t.attempted,
            t.failed,
            t.verified,
            t.silent_corruptions,
            measured.arm_summary(arm, ArmRound::gflops).median,
            measured.arm_summary(arm, ArmRound::ops_per_s).median,
        );
    }
    for note in &tally.notes {
        println!("  note: {note}");
    }
    if !counters_agree {
        println!(
            "  COUNTERS DISAGREE: injectors fired {}, reports say {reported_injected}, service says {:?}, {} inconsistent reports",
            measured.injector_fired, measured.service_injected, ledger.counter_mismatches
        );
    }
    print_metrics("end-to-end (untraced rounds)", &END_TO_END, &end_to_end);
    if let Some(rungs) = &per_layer {
        print_metrics("per-layer (traced run)", &PER_LAYER, &rungs.values);
        for note in &rungs.notes {
            println!("  {note}");
        }
    }

    let summary = |s: stats::Summary| workloads::summary_json(&s);
    let arms = Json::obj(Arm::ALL.map(|arm| {
        let t = tally.arm(arm);
        let r = reports[arm.index()];
        (
            arm.name(),
            Json::obj([
                ("ops_attempted", Json::U64(t.attempted)),
                ("ops_failed", Json::U64(t.failed)),
                ("ops_verified", Json::U64(t.verified)),
                ("silent_corruptions", Json::U64(t.silent_corruptions)),
                ("eff", summary(measured.arm_summary(arm, ArmRound::eff))),
                (
                    "gflops",
                    summary(measured.arm_summary(arm, ArmRound::gflops)),
                ),
                (
                    "ops_per_s",
                    summary(measured.arm_summary(arm, ArmRound::ops_per_s)),
                ),
                ("cost_ratio", summary(measured.cost_summary(arm))),
                (
                    "calibrated_cost_ratio",
                    summary(measured.calibrated_cost_summary(arm)),
                ),
                ("verifications", Json::U64(r.verifications)),
                ("detected", Json::U64(r.detected)),
                ("corrected", Json::U64(r.corrected)),
                ("injected", Json::U64(r.injected)),
                ("retried_panels", Json::U64(r.retried_panels)),
            ]),
        )
    }));
    let metrics_of = |table: &[MetricSpec], values: &[(&'static str, f64)]| {
        Json::obj(
            table
                .iter()
                .zip(values)
                .map(|(spec, (name, value))| (*name, metric_json(*value, spec.unit))),
        )
    };
    let spec = spec::workload(workload).expect("checked above");
    let record = Json::obj([
        ("workload", Json::str(workload)),
        ("runs", Json::str(spec.runs)),
        ("why", Json::str(spec.why)),
        ("seed", Json::U64(opts.seed)),
        ("seconds", Json::F64(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
        ("correct", Json::Bool(correct)),
        ("rounds", Json::U64(measured.rounds.len() as u64)),
        ("inj_applied", Json::Bool(measured.inj_applied)),
        ("counters_agree", Json::Bool(counters_agree)),
        ("injector_fired", Json::U64(measured.injector_fired)),
        (
            "host",
            Json::obj([
                ("nproc", Json::U64(host.nproc as u64)),
                (
                    "calibration_threads",
                    Json::U64(measured.calib_threads as u64),
                ),
                ("isa", Json::str(host.isa.clone())),
                ("kernel_f64", Json::str(host.kernel_f64)),
                ("l1d", Json::U64(host.l1d as u64)),
                ("l2", Json::U64(host.l2 as u64)),
                ("l3", Json::U64(host.l3 as u64)),
                (
                    "blocking",
                    Json::str(format!(
                        "mr={} nr={} mc={} nc={} kc={}",
                        host.mr, host.nr, host.mc, host.nc, host.kc
                    )),
                ),
                ("calibration_width", Json::str(width.name())),
                ("calibrated_peak_gflops", summary(measured.peak_summary())),
            ]),
        ),
        (
            "setup_seconds",
            Json::Arr(
                measured
                    .setup_seconds
                    .iter()
                    .map(|s| Json::F64(*s))
                    .collect(),
            ),
        ),
        ("arms", arms),
        ("end_to_end", metrics_of(&END_TO_END, &end_to_end)),
        (
            "per_layer",
            per_layer
                .as_ref()
                .map_or(Json::Null, |r| metrics_of(&PER_LAYER, &r.values)),
        ),
        (
            "per_layer_notes",
            Json::Arr(
                per_layer
                    .iter()
                    .flat_map(|r| r.notes.iter().map(Json::str))
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(tally.notes.iter().map(Json::str).collect()),
        ),
        ("rounds_raw", measured.rounds_json()),
    ]);
    let suffix = if opts.trace { "-traced" } else { "" };
    write_record(&format!("{workload}{suffix}.json"), &record);
    if opts.trace {
        let totals = ledger.tracer.totals_by_name();
        let trace = Json::obj([
            ("workload", Json::str(workload)),
            (
                "self_time_by_name",
                Json::Arr(
                    totals
                        .iter()
                        .map(|(name, count, total, own)| {
                            Json::obj([
                                ("name", Json::str(*name)),
                                ("count", Json::U64(*count)),
                                ("total_ns", Json::U64(*total)),
                                ("self_ns", Json::U64(*own)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("spans", ledger.tracer.to_json()),
        ]);
        write_record(&format!("trace-{workload}.json"), &trace);
    }

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(tally.attempted())),
        ("failed", Json::U64(tally.failed())),
        (
            "metrics",
            match &per_layer {
                Some(rungs) => metrics_of(&PER_LAYER, &rungs.values),
                None => metrics_of(&END_TO_END, &end_to_end),
            },
        ),
    ]);
    println!("{}", line.render());
    let code = match tally.exit_code() {
        0 if !counters_agree => 1,
        code => code,
    };
    ExitCode::from(code as u8)
}

/// One child process per workload: a workload's peak memory and warm state
/// must not leak into the next one's numbers.
struct ChildRun {
    status_ok: bool,
    line: Option<Json>,
}

fn spawn_workload(workload: &str, args: &Args, trace: bool) -> std::io::Result<ChildRun> {
    let mut cmd = self_command("run", workload, args)?;
    cmd.args(["--seconds", &args.opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    // `output` waits for the child to end before returning.
    let out = cmd.output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    print!("{stdout}");
    Ok(ChildRun {
        status_ok: out.status.success(),
        line,
    })
}

fn run_all(args: &Args) -> ExitCode {
    let mut all_ok = true;
    for w in &WORKLOADS {
        match spawn_workload(w.name, args, args.opts.trace) {
            Ok(child) => all_ok &= child.status_ok,
            Err(e) => {
                eprintln!("could not run workload {}: {e}", w.name);
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The agreement evidence: the whole set twice on one build, workload
/// order reversed the second time, every end-to-end pair held to its bound.
fn aa(args: &Args) -> ExitCode {
    let mut values: Vec<Vec<Option<Vec<f64>>>> = vec![vec![None; WORKLOADS.len()]; 2];
    let mut all_ran = true;
    for (pass, row) in values.iter_mut().enumerate() {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if pass == 1 {
            order.reverse();
        }
        for w in order {
            let name = WORKLOADS[w].name;
            eprintln!("aa: pass {} workload {name}", pass + 1);
            let child = spawn_workload(name, args, false);
            let metrics = child
                .ok()
                .filter(|c| c.status_ok)
                .and_then(|c| c.line)
                .and_then(|line| {
                    END_TO_END
                        .iter()
                        .map(|m| line.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                        .collect::<Option<Vec<f64>>>()
                });
            all_ran &= metrics.is_some();
            row[w] = metrics;
        }
    }
    println!(
        "\nA/A agreement: two passes of the same build, seed {}",
        args.opts.seed
    );
    println!(
        "{:<13} {:<15} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    let mut disagreements = 0;
    for (w, spec) in WORKLOADS.iter().enumerate() {
        let (Some(first), Some(second)) = (&values[0][w], &values[1][w]) else {
            println!("{:<13} did not produce a result on both passes", spec.name);
            continue;
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let diff = (second[i] - first[i]).abs() / first[i].abs();
            let ok = diff <= bound;
            disagreements += usize::from(!ok);
            println!(
                "{:<13} {:<15} {:>12.5} {:>12.5} {:>8.2}% {:>6.0}%  {}",
                spec.name,
                m.name,
                first[i],
                second[i],
                diff * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    if all_ran && disagreements == 0 {
        println!("aa: every end-to-end metric agrees within its bound on every workload");
        ExitCode::SUCCESS
    } else {
        println!("aa: {disagreements} pair(s) disagree; all workloads ran: {all_ran}");
        ExitCode::from(1)
    }
}

fn list() {
    println!("workloads (one process each; arms off / ft / inj; closed loops):");
    for w in &WORKLOADS {
        println!(
            "  {}\n      runs: {}\n      why:  {}",
            w.name, w.runs, w.why
        );
    }
    println!("\nend-to-end metrics (every workload, untraced run; bound = relative worsening that is a regression):");
    for m in &END_TO_END {
        println!(
            "  {:<16} {:<9} {:<6} is better  bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("bounded"),
            m.what
        );
    }
    println!("\nper-layer metrics (traced run; no bound; \"moves\" = the end-to-end metric and workload it should move):");
    for m in &PER_LAYER {
        println!(
            "  {:<34} {:<9} {:<6} is better\n      timed: {}\n      moves: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what,
            m.moves
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(64);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    match (command.as_str(), args.workload.as_deref()) {
        ("run", Some("all")) => run_all(&args),
        ("run" | "setup", Some(workload)) if spec::workload(workload).is_none() => {
            eprintln!("no workload named {workload:?}; try `list`");
            ExitCode::from(64)
        }
        ("run", Some(workload)) => run_one(workload, &args),
        ("setup", Some(workload)) => set_up_once(workload, &args),
        ("run" | "setup", None) => {
            eprintln!("{command} needs --workload\n{USAGE}");
            ExitCode::from(64)
        }
        ("aa", None) => aa(&args),
        ("list", None) => {
            list();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let a = parse(&[
            "--workload",
            "lib_square",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("lib_square"));
        assert_eq!(
            (a.opts.seed, a.opts.seconds, a.opts.trace, a.opts.smoke),
            (7, 10.0, true, false)
        );
        let d = parse(&[]).unwrap();
        assert_eq!((d.opts.seed, d.opts.trace), (1, false));
        assert_eq!(d.deadline, Duration::from_secs(90));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// A whole smoke run of every workload, in process: set-up, rounds, the
    /// cross-checks, and for one workload the ladder.
    #[test]
    fn smoke_runs_are_correct() {
        let width = calib::Width::detect();
        let dir = results_dir().join("smoke-test");
        for w in &WORKLOADS {
            let opts = Options {
                seed: 3,
                seconds: 0.05,
                trace: w.name == "serve_small",
                smoke: true,
            };
            let watchdog = watchdog::Watchdog::start(w.name, Duration::from_secs(600), dir.clone());
            let mut ledger = workloads::Ledger::new(opts.trace);
            let m =
                workloads::run(w.name, &opts, width, vec![], &mut ledger, &watchdog).expect(w.name);
            assert!(ledger.tally.correct(), "{}: {:?}", w.name, ledger.tally);
            assert_eq!(ledger.counter_mismatches, 0, "{}", w.name);
            let injected: u64 = ledger.reports.iter().map(|r| r.injected).sum();
            assert_eq!(m.injector_fired, injected, "{}", w.name);
            assert_eq!(m.inj_applied, w.name != "wire_small");
            assert_eq!(m.inj_applied, injected > 0, "{}", w.name);
            for (name, value) in m.end_to_end(1.0) {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} {name} = {value}",
                    w.name
                );
            }
            if opts.trace {
                let host = sut::host();
                let rungs = probes::ladder(&opts, width, &host, &m, &mut ledger, &watchdog)
                    .expect("ladder");
                let layers = &rungs.values;
                assert!(rungs
                    .notes
                    .iter()
                    .any(|n| n.starts_with("net.rtt_w1_p99_us: p50 of ")));
                assert_eq!(layers.len(), PER_LAYER.len());
                for ((name, value), spec) in layers.iter().zip(&PER_LAYER) {
                    assert_eq!(*name, spec.name);
                    assert!(value.is_finite(), "{name} = {value}");
                }
                assert!(ledger.tally.correct(), "ladder: {:?}", ledger.tally);
                assert!(ledger.tracer.spans().iter().any(|s| s.name == "serve.wait"));
                assert!(ledger.tracer.spans().iter().any(|s| s.name == "probe"));
            }
            watchdog.stop();
        }
    }
}
