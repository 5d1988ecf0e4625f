//! End-to-end observability: a service with `obs_addr` set serves
//! `/metrics`, `/healthz`, and `/trace` over a real TCP socket, the
//! exposition body is well-formed Prometheus text format, and — once the
//! service is quiesced — every service-scoped counter in the scrape equals
//! the in-process [`StatsSnapshot`] the service reports.

use ftgemm::core::aligned;
use ftgemm::obs::Registry;
use ftgemm::serve::{
    completion_channel, FtPolicy, GemmRequest, GemmService, RoutingPolicy, ServiceConfig,
};
use ftgemm::{FaultInjector, Matrix};
use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn obs_service() -> GemmService<f64> {
    GemmService::new(ServiceConfig {
        threads: 2,
        max_batch: 4,
        // Pinned cutoff so the small/large mix deterministically exercises
        // both routing paths.
        routing: RoutingPolicy::Fixed(2 * 96 * 96 * 96),
        obs_addr: Some("127.0.0.1:0".parse().unwrap()),
    })
}

/// Blocking HTTP/1.0 GET against the obs endpoint; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u32, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to obs endpoint");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: ftgemm\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    let status_line = head.lines().next().unwrap();
    let status: u32 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    assert!(
        head.contains("Content-Length:"),
        "missing Content-Length in {head:?}"
    );
    (status, body.to_string())
}

/// Parses an exposition body into `full-sample-name -> value`, validating
/// the format line by line: every sample belongs to a family announced by
/// exactly one `# TYPE` line with a known kind, `# HELP` text is present,
/// and every value parses as f64.
fn parse_exposition(body: &str) -> HashMap<String, f64> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashMap<String, ()> = HashMap::new();
    let mut samples = HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE line");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown kind {kind:?} for {family}"
            );
            assert!(
                types.insert(family.to_string(), kind.to_string()).is_none(),
                "duplicate # TYPE for {family}"
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, help) = rest.split_once(' ').expect("HELP line");
            assert!(!help.is_empty(), "empty help for {family}");
            helps.insert(family.to_string(), ());
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment line {line:?}");
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        let bare = name_and_labels.split('{').next().unwrap();
        // Histogram samples hang off their family's base name.
        let family_known = types.keys().any(|f| {
            bare == f
                || bare == format!("{f}_bucket")
                || bare == format!("{f}_sum")
                || bare == format!("{f}_count")
        });
        assert!(family_known, "sample {bare} has no # TYPE header");
        assert!(
            samples.insert(name_and_labels.to_string(), value).is_none(),
            "duplicate sample {name_and_labels}"
        );
    }
    for family in types.keys() {
        assert!(helps.contains_key(family), "family {family} has no # HELP");
    }
    samples
}

/// The flagship end-to-end check: mixed traffic (both routing paths, some
/// requests with fault injectors) through a two-thread service,
/// then a real TCP scrape whose counters must equal `service.stats()`.
#[test]
fn scraped_counters_match_in_process_snapshot() {
    let service = obs_service();
    let addr = service.obs_addr().expect("endpoint bound");
    assert_ne!(addr.port(), 0, "port 0 should resolve to the bound port");

    // Spread over the two submit surfaces — a quarter into one shared
    // completion channel, a quarter into one-request channels of their
    // own — half with a generous deadline, so the per-surface and deadline
    // cells all move.
    let (sink, mut completions) = completion_channel::<f64>();
    let mut handles = Vec::new();
    let mut own_channels = Vec::new();
    for i in 0..24u64 {
        // Every 6th request is above the pinned cutoff (matrix-parallel);
        // every 3rd carries an injector so the ft counters are nonzero.
        let (m, n, k) = if i % 6 == 0 {
            (160, 128, 96)
        } else {
            (48, 40, 32)
        };
        let a = Matrix::<f64>::random(m, k, 5_000 + i);
        let b = Matrix::<f64>::random(k, n, 6_000 + i);
        let mut req = GemmRequest::new(a, b).with_policy(FtPolicy::DetectCorrect);
        if i % 2 == 0 {
            req = req.with_deadline(Duration::from_secs(600));
        }
        if i % 3 == 0 {
            req = req.with_injector(FaultInjector::counted(700 + i, 1));
        }
        match i % 4 {
            1 => {
                let (own_sink, own) = completion_channel::<f64>();
                service.submit_streamed(req, &own_sink).unwrap();
                own_channels.push(own);
            }
            3 => drop(service.submit_streamed(req, &sink).unwrap()),
            _ => handles.push(service.submit(req).unwrap()),
        }
    }
    for h in handles {
        h.wait().unwrap();
    }
    for mut own in own_channels {
        own.recv().unwrap().result.unwrap();
    }
    while let Some(c) = completions.recv() {
        c.result.unwrap();
    }

    // Quiesced: all requests completed, nothing in flight.
    let snap = service.stats();
    assert_eq!(snap.completed, 24);

    let buffers = || (aligned::mapped_buffers(), aligned::recycled_buffers());
    let before = buffers();
    let (status, body) = http_get(addr, "/metrics");
    let after = buffers();
    assert_eq!(status, 200);
    let samples = parse_exposition(&body);

    // Service-scoped counters in the scrape equal the in-process snapshot.
    let expect = [
        ("ftgemm_requests_submitted_total", snap.submitted),
        ("ftgemm_requests_submitted_sync_total", snap.submitted_sync),
        (
            "ftgemm_requests_submitted_streamed_total",
            snap.submitted_streamed,
        ),
        ("ftgemm_requests_completed_total", snap.completed),
        ("ftgemm_requests_failed_total", snap.failed),
        (
            "ftgemm_requests_rejected_total{reason=\"closed\"}",
            snap.rejected_closed,
        ),
        (
            "ftgemm_requests_rejected_total{reason=\"deadline\"}",
            snap.rejected_deadline,
        ),
        ("ftgemm_requests_shed_deadline_total", snap.shed_deadline),
        ("ftgemm_requests_deadline_met_total", snap.deadline_met),
        (
            "ftgemm_requests_deadline_missed_total",
            snap.deadline_missed,
        ),
        ("ftgemm_batches_total", snap.batches),
        ("ftgemm_batched_requests_total", snap.batched_requests),
        ("ftgemm_direct_large_total", snap.direct_large),
        ("ftgemm_ft_detected_total", snap.detected),
        ("ftgemm_ft_corrected_total", snap.corrected),
        ("ftgemm_ft_injected_total", snap.injected),
        ("ftgemm_ft_retried_panels_total", snap.retried_panels),
        ("ftgemm_queue_depth", snap.queue_depth as u64),
        ("ftgemm_routing_cutoff_flops", snap.current_cutoff),
        ("ftgemm_service_pool_regions_total", snap.pool.regions),
        (
            "ftgemm_service_pool_barrier_crossings_total",
            snap.pool.barrier_crossings,
        ),
        ("ftgemm_threads", snap.batch_busy_per_thread.len() as u64),
        ("ftgemm_large_workspace_bytes", snap.large_workspace_bytes),
    ];
    for (family, value) in expect {
        assert_eq!(
            samples.get(family).copied(),
            Some(value as f64),
            "{family}: scrape {:?} vs snapshot {value}",
            samples.get(family)
        );
    }
    assert!(snap.injected > 0, "injectors never fired: {snap:?}");
    assert_eq!(samples["ftgemm_ft_corrected_total"], snap.injected as f64);
    assert_eq!((snap.submitted_sync, snap.submitted_streamed), (12, 12));

    assert_eq!(snap.deadline_met + snap.deadline_missed, 12);

    // The snapshot's seconds and rates, and every per-thread row, are
    // samples of the scrape with the same value.
    let mut labeled: Vec<(String, f64)> = vec![(
        "ftgemm_batch_wall_seconds_total".to_string(),
        snap.batch_wall.as_secs_f64(),
    )];
    for (thread, busy) in snap.batch_busy_per_thread.iter().enumerate() {
        let key = format!("ftgemm_batch_thread_busy_seconds_total{{thread=\"{thread}\"}}");
        labeled.push((key, busy.as_secs_f64()));
    }
    for (key, value) in labeled {
        assert_eq!(samples.get(&key).copied(), Some(value), "{key}");
    }

    // The pool is the configured size, the two paths' counters sum to the
    // total that executed, and the large path kept its workspace.
    assert_eq!(samples["ftgemm_threads"], 2.0);
    assert_eq!(
        samples["ftgemm_batched_requests_total"] + samples["ftgemm_direct_large_total"],
        24.0
    );
    assert!(samples["ftgemm_large_workspace_bytes"] > 0.0);

    // The turnaround histogram saw every completion, and its bucket series
    // is present and cumulative.
    assert_eq!(samples["ftgemm_request_turnaround_seconds_count"], 24.0);
    assert!(samples["ftgemm_request_turnaround_seconds_sum"] > 0.0);
    let inf = samples["ftgemm_request_turnaround_seconds_bucket{le=\"+Inf\"}"];
    assert_eq!(inf, 24.0);

    // Process-wide families rode along on the same scrape.
    assert!(samples["ftgemm_abft_verifications_total"] > 0.0);
    assert!(samples["ftgemm_pool_regions_total"] > 0.0);
    assert!(samples["ftgemm_obs_scrapes_total"] >= 1.0);

    // So did the allocator's counts, read at scrape time: sibling tests
    // move them, but only upward, so the scrape lies between two reads.
    let scraped = (
        samples["ftgemm_mapped_buffers_total"] as u64,
        samples["ftgemm_recycled_buffers_total"] as u64,
    );
    assert!(before.0 <= scraped.0 && scraped.0 <= after.0, "{scraped:?}");
    assert!(before.1 <= scraped.1 && scraped.1 <= after.1, "{scraped:?}");
    let spare = samples["ftgemm_spare_buffer_bytes"];
    assert!(
        spare <= (8 << 20) as f64 && spare % 4096.0 == 0.0,
        "{spare}"
    );

    // The scrape body is exactly what the in-process renderer produces for
    // the same quiesced state, minus time-derived gauges which move between
    // the two renders.
    let rendered = service.render_metrics();
    for family in ["ftgemm_requests_submitted_total", "ftgemm_queue_depth"] {
        assert!(rendered.contains(family), "render_metrics missing {family}");
    }
}

/// The `(family, kind)` set a service scrapes under is a dashboard
/// contract, pinned here (the net families are pinned in `integration_net`).
/// Everything the scrape holds beyond the process-wide registry's families
/// must be exactly this list — with obs on, so no family is missing for
/// want of a sample.
#[test]
fn every_serve_family_keeps_its_name_and_kind() {
    const GOLDEN: [(&str, &str); 35] = [
        ("ftgemm_batch_occupancy_mean", "gauge"),
        ("ftgemm_batch_thread_busy_seconds_total", "counter"),
        ("ftgemm_batch_thread_occupancy", "gauge"),
        ("ftgemm_batch_wall_seconds_total", "counter"),
        ("ftgemm_batched_requests_total", "counter"),
        ("ftgemm_batches_total", "counter"),
        ("ftgemm_direct_large_total", "counter"),
        ("ftgemm_ft_corrected_total", "counter"),
        ("ftgemm_ft_detected_total", "counter"),
        ("ftgemm_ft_injected_total", "counter"),
        ("ftgemm_ft_retried_panels_total", "counter"),
        ("ftgemm_large_workspace_bytes", "gauge"),
        ("ftgemm_mapped_buffers_total", "counter"),
        ("ftgemm_queue_depth", "gauge"),
        ("ftgemm_recycled_buffers_total", "counter"),
        ("ftgemm_request_turnaround_seconds", "histogram"),
        ("ftgemm_request_turnaround_seconds_mean", "gauge"),
        ("ftgemm_requests_completed_total", "counter"),
        ("ftgemm_requests_deadline_met_total", "counter"),
        ("ftgemm_requests_deadline_missed_total", "counter"),
        ("ftgemm_requests_failed_total", "counter"),
        ("ftgemm_requests_per_second", "gauge"),
        ("ftgemm_requests_rejected_total", "counter"),
        ("ftgemm_requests_shed_deadline_total", "counter"),
        ("ftgemm_requests_submitted_streamed_total", "counter"),
        ("ftgemm_requests_submitted_sync_total", "counter"),
        ("ftgemm_requests_submitted_total", "counter"),
        ("ftgemm_routing_cutoff_flops", "gauge"),
        ("ftgemm_serve_helped_batches_total", "counter"),
        ("ftgemm_service_pool_barrier_crossings_total", "counter"),
        ("ftgemm_service_pool_regions_total", "counter"),
        ("ftgemm_spare_buffer_bytes", "gauge"),
        ("ftgemm_threads", "gauge"),
        ("ftgemm_trace_dropped_total", "counter"),
        ("ftgemm_uptime_seconds", "gauge"),
    ];
    let service = GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        obs_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServiceConfig::default()
    });
    let req = GemmRequest::new(
        Matrix::<f64>::random(8, 8, 1),
        Matrix::<f64>::random(8, 8, 2),
    );
    service.run(req).unwrap();

    // Rendered before the global registry is listed: sibling tests register
    // process-wide families concurrently, and the list must cover every one
    // this body can hold.
    let body = service.render_metrics();
    let global: BTreeSet<String> = Registry::global()
        .families()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let scraped: BTreeSet<(&str, &str)> = body
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split_once(' '))
        .filter(|(family, _)| !global.contains(*family))
        .collect();
    assert_eq!(scraped, BTreeSet::from(GOLDEN));
}

/// `/healthz` answers on the same listener, `/trace` dumps lifecycle
/// records containing the expected event vocabulary, and unknown paths 404.
#[test]
fn healthz_and_trace_serve_alongside_metrics() {
    let service = obs_service();
    let addr = service.obs_addr().unwrap();

    for i in 0..8u64 {
        let a = Matrix::<f64>::random(32, 32, i);
        let b = Matrix::<f64>::random(32, 32, i + 100);
        service
            .submit(GemmRequest::new(a, b))
            .unwrap()
            .wait()
            .unwrap();
    }

    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body.trim(), "ok");

    let (status, trace) = http_get(addr, "/trace");
    assert_eq!(status, 200);
    assert!(trace.starts_with("# tracelog"), "{trace:?}");
    for event in ["admitted", "queued", "dispatched", "computed", "completed"] {
        assert!(
            trace.contains(event),
            "missing {event:?} in trace:\n{trace}"
        );
    }
    // Batched-path requests record the path they were dispatched on.
    assert!(trace.contains("batched"), "{trace}");
    // The in-process accessor serves the same records.
    assert!(service.render_trace(16).contains("completed"));

    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);
}

/// Shutdown tears the endpoint down: the port stops accepting, and a
/// service without `obs_addr` never binds anything (`obs_addr()` is None)
/// while still rendering metrics in-process.
#[test]
fn endpoint_lifecycle_follows_the_service() {
    let service = obs_service();
    let addr = service.obs_addr().unwrap();
    let (status, _) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    service.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "endpoint still accepting after shutdown"
    );

    let plain = GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        max_batch: 2,
        ..ServiceConfig::default()
    });
    assert!(plain.obs_addr().is_none());
    let body = plain.render_metrics();
    let samples = parse_exposition(&body);
    assert_eq!(samples["ftgemm_requests_submitted_total"], 0.0);
    // Obs-disabled services omit the service-scoped histogram / trace
    // families but still render every snapshot family.
    assert!(!body.contains("ftgemm_request_turnaround_seconds_bucket"));
    assert!(!body.contains("ftgemm_trace_dropped_total"));
}
