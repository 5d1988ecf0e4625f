//! The workspace driver: walks the repo, feeds every non-test `.rs` file
//! through the passes, and assembles the final [`Report`].

use crate::findings::{Finding, Report};
use crate::lexer::{self, Lexed};
use crate::passes::{atomics, locks, panics, pins};
use crate::policy::{self, FilePolicy};
use crate::toml_lite;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Run configuration.
pub struct Config {
    /// Workspace root (the directory holding `Cargo.toml`, `crates/`,
    /// `analyze/`, `docs/`).
    pub root: PathBuf,
    /// Regenerate `analyze/panic_baseline.tsv` from the current tree
    /// instead of diffing against it.
    pub write_baseline: bool,
}

/// Crates whose panic surface is audited: the ones that hold request
/// lifetimes. Panics elsewhere (bench drivers, math kernels with
/// `debug_assert`-adjacent indexing) are not a serving-availability risk.
const PANIC_AUDITED: [&str; 3] = ["ftgemm-serve", "ftgemm-net", "ftgemm-obs"];

/// A config/environment failure (missing manifest, unreadable file) —
/// distinct from findings; exits 2, not 1.
pub type ConfigError = String;

/// Runs every pass over the workspace rooted at `cfg.root`.
pub fn run(cfg: &Config) -> Result<Report, ConfigError> {
    let mut report = Report::default();
    let files = collect_rs_files(&cfg.root)?;
    if files.is_empty() {
        return Err(format!(
            "no .rs files found under {} — wrong --root?",
            cfg.root.display()
        ));
    }

    // Per-file sweep: lex once, run atomics + locks on everything, collect
    // panic sites in the audited crates.
    let mut cells: BTreeMap<String, atomics::CellEvidence> = BTreeMap::new();
    let mut graph = locks::LockGraph::default();
    let mut policies: Vec<(String, FilePolicy)> = Vec::new();
    let mut panic_sites: Vec<panics::Site> = Vec::new();
    let mut atomic_sites = 0usize;

    for path in &files {
        let rel = rel_path(&cfg.root, path);
        let src = fs::read_to_string(path).map_err(|e| format!("cannot read {rel}: {e}"))?;
        let lexed: Lexed = lexer::lex(&src);
        let tokens = lexer::strip_test_code(&lexed.tokens);
        let pol = policy::parse(&lexed.comments);
        for (line, msg) in &pol.errors {
            report.findings.push(Finding::new(
                "policy",
                "annotation",
                &rel,
                *line,
                msg.clone(),
            ));
        }

        atomic_sites += atomics::check_file(&rel, &tokens, &pol, &mut cells, &mut report);
        locks::scan_file(&rel, &tokens, &pol, &mut graph);

        if PANIC_AUDITED
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/")))
        {
            let lines: Vec<&str> = src.lines().collect();
            panic_sites.extend(panics::collect_sites(&rel, &tokens, &lines, &pol));
        }
        policies.push((rel, pol));
    }

    atomics::finish(&cells, &mut report);
    for (rel, pol) in &policies {
        atomics::check_unused_declarations(rel, pol, &cells, &mut report);
    }
    locks::finish(&graph, &mut report);

    // Pins.
    let pinned = run_pins(&cfg.root, &mut report)?;

    // Panics: diff or regenerate.
    let baseline_path = cfg.root.join("analyze/panic_baseline.tsv");
    if cfg.write_baseline {
        let text = panics::write_baseline(&panic_sites);
        fs::write(&baseline_path, &text)
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        report.notes.push(format!(
            "wrote analyze/panic_baseline.tsv ({} sites)",
            panic_sites.len()
        ));
    } else {
        let text = fs::read_to_string(&baseline_path).map_err(|e| {
            format!(
                "cannot read {}: {e} (generate it once with --write-baseline)",
                baseline_path.display()
            )
        })?;
        let baseline = panics::parse_baseline(&text)
            .map_err(|(l, m)| format!("analyze/panic_baseline.tsv:{l}: {m}"))?;
        panics::diff(&panic_sites, &baseline, &mut report);
    }

    report.checked.push(("files".into(), files.len()));
    report
        .checked
        .push(("atomic-ordering sites".into(), atomic_sites));
    report
        .checked
        .push(("lock acquisitions".into(), graph.acquisitions));
    report
        .checked
        .push(("lock-order edges".into(), locks::distinct_edges(&graph)));
    report.checked.push(("pinned constants".into(), pinned));
    report
        .checked
        .push(("panic-capable sites".into(), panic_sites.len()));
    report.sort();
    Ok(report)
}

/// Pass 3 driver: reads the pinned-constant source files, the manifest,
/// and the docs; returns the number of pins checked.
fn run_pins(root: &Path, report: &mut Report) -> Result<usize, ConfigError> {
    let pins_path = root.join("analyze/pins.toml");
    let pins_text = fs::read_to_string(&pins_path)
        .map_err(|e| format!("cannot read {}: {e}", pins_path.display()))?;
    let pins =
        toml_lite::parse(&pins_text).map_err(|(l, m)| format!("analyze/pins.toml:{l}: {m}"))?;

    let read_lexed = |rel: &str| -> Result<Lexed, ConfigError> {
        let src =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        Ok(lexer::lex(&src))
    };

    const PROTO: &str = "crates/ftgemm-net/src/proto.rs";
    const REQUEST: &str = "crates/ftgemm-serve/src/request.rs";
    // The two files that register serve families: counted cells in
    // `stats.rs`, live (read) cells and the obs pair in `service.rs`.
    const SERVE_METRICS: [&str; 2] = [
        "crates/ftgemm-serve/src/stats.rs",
        "crates/ftgemm-serve/src/service.rs",
    ];
    const NET_METRICS: &str = "crates/ftgemm-net/src/metrics.rs";
    const DOCS: &str = "docs/ARCHITECTURE.md";

    let proto = read_lexed(PROTO)?;
    let verbs = pins::extract_mod_consts(&proto.tokens, "verb");
    let error_codes = pins::extract_mod_consts(&proto.tokens, "error_code");
    if verbs.is_empty() || error_codes.is_empty() {
        return Err(format!(
            "{PROTO}: expected `mod verb` and `mod error_code` consts; found {} and {} — \
             extractor out of sync with the source layout",
            verbs.len(),
            error_codes.len()
        ));
    }

    let request = read_lexed(REQUEST)?;
    let wire_codes = pins::extract_wire_codes(&lexer::strip_test_code(&request.tokens));
    if wire_codes.is_empty() {
        return Err(format!(
            "{REQUEST}: found no ServeError::* => N arms in fn wire_code — \
             extractor out of sync with the source layout"
        ));
    }

    let mut serve_metrics = BTreeMap::new();
    for file in SERVE_METRICS {
        let tokens = lexer::strip_test_code(&read_lexed(file)?.tokens);
        serve_metrics.extend(pins::extract_metric_literals(&tokens));
    }
    let net_metrics = pins::extract_metric_literals(&read_lexed(NET_METRICS)?.tokens);

    pins::check_consts(&pins, "verbs", &verbs, PROTO, "verb", report);
    pins::check_consts(
        &pins,
        "error_codes",
        &error_codes,
        PROTO,
        "error code",
        report,
    );
    pins::check_consts(
        &pins,
        "wire_codes",
        &wire_codes,
        REQUEST,
        "wire code",
        report,
    );
    pins::check_metrics(
        &pins,
        "serve",
        &serve_metrics,
        "crates/ftgemm-serve/src/{stats,service}.rs",
        report,
    );
    pins::check_metrics(&pins, "net", &net_metrics, NET_METRICS, report);
    pins::check_bands(&verbs, &error_codes, &wire_codes, PROTO, report);

    let docs_text =
        fs::read_to_string(root.join(DOCS)).map_err(|e| format!("cannot read {DOCS}: {e}"))?;
    pins::check_docs(&docs_text, DOCS, &verbs, &wire_codes, report);

    Ok(
        verbs.len()
            + error_codes.len()
            + wire_codes.len()
            + serve_metrics.len()
            + net_metrics.len(),
    )
}

/// All non-test `.rs` files under `crates/*/src` and `shims/*/src`.
fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, ConfigError> {
    let mut out = Vec::new();
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue, // shims/ may not exist in fixtures
        };
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                walk(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), ConfigError> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let p = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if p.is_dir() {
            // Integration tests / examples / benches are out of scope even
            // when nested under src/ (they never are here, but be safe).
            if matches!(name.as_str(), "tests" | "examples" | "benches" | "target") {
                continue;
            }
            walk(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Workspace-relative display path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
