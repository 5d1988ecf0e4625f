//! The benchmark's contract as data: every workload with its reason, every
//! metric with unit, direction and bound. `list` prints these tables,
//! `aa` judges by them, and a test holds `/BENCHMARK.json` to them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// What runs, with its fixed operation counts per arm and round.
    pub runs: &'static str,
    /// Why the workload is in the set (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "lib_square",
        runs: "f64 C=A*B 1280^3, Exec::Serial, closed loop of 1, 1 op/arm/round",
        why: "Paper Fig. 2a/2c regime: micro-kernel, packing and fused checksums do all the work; pool, serve and net do nothing. 39 MB working set, far beyond L2.",
    },
    WorkloadSpec {
        name: "lib_panel",
        runs: "f64 2048x2048x128 rank-k update (k <= KC), Exec::Serial, closed loop of 1, 3 ops/arm/round",
        why: "Same core/abft layers, about 10x the checksum and checkpoint work per flop: one verification and one O(m*NC) checkpoint per 128-deep panel. O(n^2) costs show here.",
    },
    WorkloadSpec {
        name: "lib_parallel",
        runs: "f64 1280^3, Exec::Parallel on the benchmark's own T-thread pool, closed loop of 1, 2 ops/arm/round",
        why: "Paper Fig. 2b/2d: cooperative B~ packing, per-panel barriers, cross-thread column-checksum reduction. Own pool, one caller, so the shared-AUTO_POOL hang (P0) is out of reach.",
    },
    WorkloadSpec {
        name: "serve_small",
        runs: "GemmService<f64> threads=1, fixed cutoff; m,n,k from {32,48,64,96,128}; 64 seeded Arc-shared (A,B) pairs cycled; closed loop, window 64, 512 req/arm/round",
        why: "Batched path: queue, DRR, dispatch, par_batch_ft_gemm, fulfil. Kernel time is about a third of a request, so serve-layer work dominates (the ROADMAP's unattributed 29%).",
    },
    WorkloadSpec {
        name: "serve_large",
        runs: "GemmService<f64> threads=T, fixed cutoff; squares 256/384/512 (all above the cutoff); closed loop, window 4, 6 req/arm/round",
        why: "Matrix-parallel path through run_large, which builds a fresh 25 MB ParFtWorkspace per request; exercises the T-thread pool under the service.",
    },
    WorkloadSpec {
        name: "wire_small",
        runs: "the serve_small stream and seed through NetServer on 127.0.0.1:0 and one NetClient; operands uploaded once, by-handle submits, stream delivery; window 64, 256 req/arm/round",
        why: "net does most of the work (codec, 3 threads per connection, whole result matrices in completion frames). A serve or kernel gain predicts little change here; a net gain none on serve_small.",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
    /// What it measures; for a per-layer metric, the timed public call.
    pub what: &'static str,
    /// The end-to-end metric and workload it should move; everything else
    /// is predicted unchanged.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        what,
        moves,
    }
}

use Better::{Higher, Lower};

/// Reported for every workload by the untraced run. The bounds are what
/// ten-seed spreads on the 2-vCPU reference host support, not the issue's
/// first guesses (README, "Host noise", has the spreads beside them).
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Lower, 0.25, "median of 5 set-ups: operand generation, plan/pool/service/server construction, connect + operand upload, one warm-up burst per arm"),
    e2e("off_eff", "fraction", Higher, 0.25, "upper quartile over rounds of unprotected useful-flop rate / FMA peak calibrated beside the burst on as many threads as the workload keeps busy (the paper's Ori curve)"),
    e2e("ft_eff", "fraction", Higher, 0.25, "same with DetectCorrect, no faults (the paper's FT curve, Fig. 2a/2b)"),
    e2e("inj_eff", "fraction", Higher, 0.25, "same while errors are injected and corrected (Fig. 2c/2d)"),
    e2e("ft_cost_ratio", "ratio", Lower, 0.20, "median over rounds of ft seconds/flop / off seconds/flop within the round: the paper's headline overhead, paired"),
    e2e("inj_cost_ratio", "ratio", Lower, 0.20, "same for the inj arm against off"),
    e2e("peak_rss_mb", "MB", Lower, 0.10, "VmHWM of the workload's process at exit (checkpoint buffers, per-request workspaces)"),
];

/// Reported by the traced run (`--trace 1`), from the layer ladder.
pub const PER_LAYER: [MetricSpec; 61] = [
    layer("core.ukr_f64_eff", "fraction", Higher, "select_kernel(detected).func, f64, L1-resident packed panels, null sums", "off_eff, ft_eff @ lib_square, lib_parallel (by at most its ~75% share); ~0 @ wire_small"),
    layer("core.ukr_f32_eff", "fraction", Higher, "same, f32 kernel, against twice the f64 peak", "none end to end (f32 exists at kernel level only)"),
    layer("core.ukr_f64_avx2_eff", "fraction", Higher, "same, AVX2 tier (0 = unsupported on this CPU)", "diagnostic for the avx512-slower-than-avx2 reading"),
    layer("core.ukr_f64_portable_eff", "fraction", Higher, "same, portable tier", "diagnostic"),
    layer("core.ukr_f64_sums_ratio", "ratio", Lower, "kernel time with col_sums/row_sums non-null / null", "ft_cost_ratio @ lib_square"),
    layer("core.pack_a_gbps", "GB/s", Higher, "pack::pack_a on one MC x KC block (computed bytes: read + written)", "off_eff @ lib_panel"),
    layer("core.pack_b_gbps", "GB/s", Higher, "pack::pack_b on one KC x min(NC, n) block (computed bytes)", "off_eff @ lib_panel"),
    layer("core.pack_a_fused_ratio", "ratio", Lower, "pack_a_fused time / pack_a time", "ft_cost_ratio @ lib_panel"),
    layer("core.pack_b_fused_ratio", "ratio", Lower, "pack_b_fused time / pack_b time", "ft_cost_ratio @ lib_panel"),
    layer("core.gemm_eff_64", "fraction", Higher, "ftgemm_core::gemm 64^3, reused GemmContext", "off_eff @ serve_small"),
    layer("core.gemm_eff_256", "fraction", Higher, "same at 256^3", "off_eff @ serve_large"),
    layer("core.gemm_eff_1280", "fraction", Higher, "same at 1280^3", "off_eff @ lib_square"),
    layer("core.gemm_over_ukr", "ratio", Higher, "gemm_eff_1280 / ukr_f64_eff: what blocking keeps of the kernel rate", "off_eff @ lib_square (the derive-vs-tune item)"),
    layer("abft.detect_cost_ratio_1280", "ratio", Lower, "ft_gemm_with_ctx(Detect) / gemm at 1280^3, reused contexts, interleaved", "ft_cost_ratio @ lib_square"),
    layer("abft.dc_cost_ratio_1280", "ratio", Lower, "ft_gemm_with_ctx(DetectCorrect) / gemm at 1280^3", "ft_cost_ratio @ lib_square"),
    layer("abft.detect_cost_ratio_panel", "ratio", Lower, "same at 2048x2048x128, Detect", "ft_cost_ratio @ lib_panel"),
    layer("abft.dc_cost_ratio_panel", "ratio", Lower, "same, DetectCorrect (dc - detect isolates checkpointing)", "ft_cost_ratio @ lib_panel"),
    layer("abft.dc_cost_ratio_64", "ratio", Lower, "same at 64^3, DetectCorrect", "ft_cost_ratio @ serve_small"),
    layer("abft.find_discrepancies_us", "us", Lower, "corrector::find_discrepancies over a 1280-long checksum pair", "ft_cost_ratio @ lib_panel"),
    layer("abft.encode_c_gbps", "GB/s", Higher, "checksum::encode_c over a 1280x1280 C (computed bytes)", "ft_cost_ratio @ lib_panel"),
    layer("abft.correct_us_per_error", "us", Lower, "(injected call - clean call) / FtReport.corrected at 64^3, where one error is a measurable share of a call", "inj_cost_ratio @ serve_small"),
    layer("abft.verifications_per_op", "count", Lower, "FtReport.verifications per 1280^3 op (repeats exactly)", "explains ft_cost_ratio shifts"),
    layer("abft.retried_panels_per_op", "count", Lower, "FtReport.retried_panels per injected 1280^3 op", "explains inj_cost_ratio shifts"),
    layer("abft.detected_over_injected", "ratio", Higher, "FtReport.detected / InjectionStats.injected over the injected ops (must be 1)", "failure share"),
    layer("abft.corrected_over_detected", "ratio", Higher, "FtReport.corrected / detected (must be 1)", "failure share"),
    layer("faults.poll_ns_per_site", "ns", Lower, "SiteStream::poll per site, counted rate", "inj_cost_ratio everywhere"),
    layer("faults.injected_per_op", "count", Higher, "InjectionStats.injected per injected 1280^3 op (20 asked, distinct sites fire)", "inj_cost_ratio everywhere"),
    layer("pool.region_ns", "ns", Lower, "ThreadPool::run with an empty closure, T threads", "ft_eff @ lib_parallel, serve_large; nothing @ lib_square, lib_panel"),
    layer("pool.barrier_ns", "ns", Lower, "one WorkerCtx::barrier crossing inside a region, T threads", "ft_eff @ lib_parallel, serve_large"),
    layer("parallel.speedup_off", "ratio", Higher, "gemm time / par_gemm_with_ws time, 1280^3, T threads", "off_eff @ lib_parallel (slowest row slice sets the region time)"),
    layer("parallel.speedup_ft", "ratio", Higher, "ft_gemm_with_ctx time / par_ft_gemm_with_ws time, 1280^3", "ft_eff @ lib_parallel"),
    layer("parallel.ft_cost_ratio_1280", "ratio", Lower, "par_ft_gemm_with_ws / par_gemm_with_ws", "ft_cost_ratio @ lib_parallel"),
    layer("parallel.ws_alloc_us_384", "us", Lower, "ParFtWorkspace::for_problem at 384^3, built and dropped", "off_eff, ft_eff @ serve_large only; no change @ lib_parallel (the plan reuses its workspace)"),
    layer("parallel.par_ft_ms_384", "ms", Lower, "par_ft_gemm_with_ws at 384^3 on a reused workspace", "ft_eff @ serve_large"),
    layer("parallel.batch_us_per_item", "us", Lower, "par_batch_ft_gemm_timed on a 32-item batch of the serve_small mix", "ft_eff @ serve_small"),
    layer("parallel.batch_occupancy", "fraction", Higher, "BatchTiming::occupancy of those batches", "ft_eff @ serve_small"),
    layer("serve.submit_us", "us", Lower, "time inside GemmService::submit_streamed", "off_eff, ft_eff @ serve_small; @ wire_small by its ~1/4 share"),
    layer("serve.turnaround_w1_p50_us", "us", Lower, "submit -> completion, window 1, median", "unloaded latency (two thread wake-ups + compute)"),
    layer("serve.turnaround_w1_p99_us", "us", Lower, "same, highest supported percentile up to p99", "unloaded latency tail"),
    layer("serve.turnaround_w64_p50_us", "us", Lower, "submit -> completion at window 64, median", "rises with batch occupancy while throughput rises"),
    layer("serve.turnaround_w64_p99_us", "us", Lower, "same, highest supported percentile up to p99", "loaded latency tail"),
    layer("serve.overhead_us_per_req", "us", Lower, "wall/request at saturation - batch_busy/request (StatsSnapshot)", "ft_eff @ serve_small"),
    layer("serve.mean_batch_occupancy", "count", Higher, "StatsSnapshot.mean_batch_occupancy at window 64", "explains serve_small shifts"),
    layer("serve.batch_thread_occupancy", "fraction", Higher, "StatsSnapshot.batch_thread_occupancy", "explains serve_small shifts"),
    layer("serve.regions_per_req", "count", Lower, "StatsSnapshot.pool.regions / completed", "explains serve_small shifts"),
    layer("serve.large_overhead_ms", "ms", Lower, "384^3 window-1 turnaround through the service - parallel.par_ft_ms_384", "ft_eff @ serve_large"),
    layer("serve.failed_over_submitted", "ratio", Lower, "StatsSnapshot.failed / submitted over the probe's services", "failure share"),
    layer("net.encode_submit_us", "us", Lower, "codec::encode_frame on a by-handle submit", "ft_eff @ wire_small"),
    layer("net.decode_completion_us", "us", Lower, "codec::decode_frame on a 64x64 completion", "ft_eff @ wire_small"),
    layer("net.rtt_w1_p50_us", "us", Lower, "NetClient::submit + next_completion, window 1, median", "connection-threading changes"),
    layer("net.rtt_w1_p99_us", "us", Lower, "same, highest supported percentile up to p99", "connection-threading changes"),
    layer("net.wire_over_inproc", "ratio", Lower, "serve_small ft ops/s / wire_small ft ops/s, same stream", "the transport gap"),
    layer("net.upload_gbps", "GB/s", Higher, "NetClient::upload of a 1280x1280 operand", "setup_s @ wire_small"),
    layer("net.bytes_per_req", "bytes", Lower, "submit + ack + completion frame sizes at the stream's mean shape (computed)", "ft_eff @ wire_small"),
    layer("net.residual_share", "fraction", Lower, "(rtt_w1 - serve turnaround_w1 - encode - decode) / rtt_w1: wire time nothing explains yet", "should shrink as stage clocks land"),
    layer("obs.on_cost_ratio", "ratio", Lower, "serve_small ft burst with obs_addr set / unset, interleaved", "must stay ~1 when stage clocks land (obs is off in timed runs)"),
    layer("obs.render_metrics_us", "us", Lower, "GemmService::render_metrics", "scrape cost"),
    layer("baselines.ft_speedup_vs_best", "ratio", Higher, "best of ReferenceGemm::{mkl,openblas,blis} time / DetectCorrect time, 1280^3", "the paper's T3 claim, as a view"),
    layer("api.plan_build_ms", "ms", Lower, "GemmOp::plan(Exec::Serial) at 1280^3, DetectCorrect", "setup_s @ lib_*"),
    layer("api.plan_run_overhead_pct", "%", Lower, "GemmPlan::run vs ft_gemm_with_ctx at 256^3, interleaved", "must stay ~0"),
    layer("trace.overhead_pct", "%", Lower, "this workload's ft_eff with span recording off vs on, alternating rounds", "tracing cost"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_says_what_the_tables_say() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let strs = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strs("paths"), ["benchmark"]);
        let command = strs("command");
        assert!(command.len() <= 32 && command.iter().all(|s| s.len() <= 200));
        assert!(command.iter().any(|s| s == "benchmark/Cargo.toml"));
        let secs = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&secs));

        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();

        let listed = rows("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (row, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(
                (field(row, "name"), field(row, "why")),
                (w.name.to_string(), w.why.to_string())
            );
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (row, m) in listed.iter().zip(table) {
                assert_eq!(field(row, "name"), m.name);
                assert_eq!(field(row, "unit"), m.unit, "{}", m.name);
                assert_eq!(field(row, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(
                    row.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }
}
