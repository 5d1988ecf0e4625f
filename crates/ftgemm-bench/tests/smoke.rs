//! Runs the surviving binaries in `--smoke` mode and checks what they write,
//! so they cannot rot without a CI grep.

use std::path::{Path, PathBuf};
use std::process::Command;

const FIGURE: &str = "size,MKL*,OpenBLAS*,BLIS*,FT-GEMM: Ori,FT-GEMM: FT";
const INJECTED_FIGURE: &str = "size,MKL*,OpenBLAS*,BLIS*,FT-GEMM: Ori,FT-GEMM: FT,FT corrected";

/// Header rows of the seven parent binaries `paper` replaced, captured from
/// their CSVs before they were deleted. Only `overhead_table` differs: its
/// last column was `par unfused ovh`, and the two `beta=0` columns are new.
const PAPER_CSVS: [(&str, &str); 7] = [
    ("fig2a", FIGURE),
    ("fig2b", FIGURE),
    ("fig2c", INJECTED_FIGURE),
    ("fig2d", INJECTED_FIGURE),
    (
        "overhead_table",
        "size,serial Ori GF,serial fused ovh,serial unfused ovh,serial Ori GF (beta=0),serial fused ovh (beta=0),par Ori GF,par fused ovh,par unfused ovh",
    ),
    ("speedup_table", "mode,vs MKL*,vs OpenBLAS*,vs BLIS*,vs Ori"),
    (
        "ablation_fusion",
        "size,Ori GF,unfused,+C-scale,+B-pack,+A-pack,+kernel-refs (full)",
    ),
];

fn run_smoke(exe: &str, out: &Path) {
    let status = Command::new(exe)
        .args(["--smoke", "--threads", "2", "--out"])
        .arg(out)
        .status()
        .expect("binary starts");
    assert!(status.success(), "{exe} exited with {status}");
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn paper_writes_the_seven_csvs_with_the_parent_headers() {
    let out = out_dir("paper-smoke");
    run_smoke(env!("CARGO_BIN_EXE_paper"), &out);
    for (name, header) in PAPER_CSVS {
        let csv = std::fs::read_to_string(out.join(format!("{name}.csv")))
            .unwrap_or_else(|e| panic!("{name}.csv: {e}"));
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(header), "{name}.csv header");
        // No cell `paper` writes holds a comma, so cells are comma-separated.
        let width = header.split(',').count();
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 2, "{name}.csv: two sizes or two modes");
        for row in rows {
            assert_eq!(row.split(',').count(), width, "{name}.csv row {row:?}");
        }
    }
}

#[test]
fn ablation_blocking_writes_its_csv() {
    let out = out_dir("ablation-blocking-smoke");
    run_smoke(env!("CARGO_BIN_EXE_ablation_blocking"), &out);
    let csv = std::fs::read_to_string(out.join("ablation_blocking.csv")).unwrap();
    let mut lines = csv.lines();
    let header = "mc,kc,gflops,p50_us,p99_us";
    assert_eq!(lines.next(), Some(header));
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 16, "one row per point of the 4 x 4 grid: {csv}");
    for row in rows {
        assert_eq!(row.split(',').count(), 5, "row {row:?}");
    }
    // The ISA-tier table had no spread; the repo benchmark measures the tiers.
    assert!(!csv.contains("tier") && !csv.contains("isa"), "{csv}");
    assert!(!out.join("ablation_isa.csv").exists());
}
