//! The command line as the driver uses it: the result line, the exit codes,
//! and the watchdog.

use std::path::Path;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftgemm-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const END_TO_END: [&str; 7] = [
    "setup_s",
    "off_eff",
    "ft_eff",
    "inj_eff",
    "ft_cost_ratio",
    "inj_cost_ratio",
    "peak_rss_mb",
];

#[test]
fn list_names_every_workload_and_metric() {
    let out = bench(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in [
        "lib_square",
        "lib_panel",
        "lib_parallel",
        "serve_small",
        "serve_large",
        "wire_small",
    ] {
        assert!(text.contains(name), "{name} missing from list");
    }
    for name in END_TO_END.iter().chain(&[
        "core.ukr_f64_eff",
        "net.residual_share",
        "trace.overhead_pct",
    ]) {
        assert!(text.contains(name), "{name} missing from list");
    }
    assert!(text.contains("bound 0.25"));
}

#[test]
fn a_smoke_run_ends_with_the_result_line() {
    let out = bench(&[
        "run",
        "--workload",
        "lib_square",
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let last = text.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains("\"failed\":0,\"metrics\":{"));
    for name in END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\":{{\"value\":")),
            "{name} missing from {last}"
        );
        assert!(
            text.contains(&format!("  {name} ")),
            "{name} not printed by name"
        );
    }
    assert!(
        !last.contains("core.ukr_f64_eff"),
        "per-layer metrics belong to --trace 1"
    );
}

#[test]
fn the_watchdog_ends_a_run_that_passes_its_deadline() {
    let out = bench(&[
        "run",
        "--workload",
        "lib_panel",
        "--smoke",
        "--seconds",
        "30",
        "--deadline-s",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3));
    assert!(
        !stdout(&out).contains("{\"correct\""),
        "an expired run must not print a result line"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("watchdog"));
    let partial = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/lib_panel.partial.json");
    let record = std::fs::read_to_string(partial).expect("the partial record");
    assert!(record.contains("\"watchdog_expired\":true") && record.contains("\"correct\":false"));
}

#[test]
fn bad_usage_is_refused() {
    for args in [
        &[][..],
        &["run"],
        &["run", "--workload", "nope"],
        &["run", "--workload", "lib_square", "--trace", "2"],
        &["frobnicate"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(64), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} printed a result");
    }
}
