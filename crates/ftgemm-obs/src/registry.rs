//! Metric registry: named, labeled families of counters/gauges/histograms.
//!
//! Registration (start-up, rare) takes a lock; the returned `Arc` handles
//! are the hot-path interface and touch only their own atomics. A process
//! has one [`Registry::global`] for crate-level instrumentation (see the
//! [`global_counter!`](crate::global_counter) /
//! [`global_gauge!`](crate::global_gauge) macros — one line per site), and
//! any number of scoped registries (one per `GemmService`, say) whose
//! families are rendered into the same scrape.
//!
//! A sample is either a *cell* — a counter, gauge or histogram the caller
//! updates as events happen — or a *read cell*
//! ([`Registry::read_with`]): a closure evaluated at render time, for
//! values that already live somewhere else.

use crate::expo::{Exposition, MetricKind};
use crate::metrics::{Counter, Gauge, Histogram};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// A read cell's closure: the value is computed when the registry renders.
///
/// Boxed, so that [`Handle`] stays one thin pointer wide.
struct ReadCell(Box<dyn Fn() -> f64 + Send + Sync>);

/// One registered handle.
#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Read(Arc<ReadCell>),
}

/// A family: one name/help/kind, one instance per label set.
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    instances: Vec<(Vec<(String, String)>, Handle)>,
}

/// A set of metric families, renderable as one Prometheus exposition.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("families", &self.families())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry crate-level instrumentation registers
    /// into (the [`global_counter!`](crate::global_counter) family of
    /// macros). Rendered by every [`ObsServer`](crate::ObsServer) scrape
    /// alongside the service-scoped registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register(
        &self,
        name: &str,
        kind: MetricKind,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut families = self.families.lock();
        if !families.iter().any(|f| f.name == name) {
            families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                instances: Vec::new(),
            });
        }
        #[expect(clippy::expect_used, reason = "found or pushed just above")]
        let family = families
            .iter_mut()
            .find(|f| f.name == name)
            .expect("just pushed");
        assert_eq!(
            kind, family.kind,
            "metric {name:?} re-registered with a different kind"
        );
        // Same (name, labels) → the existing handle; registration is
        // idempotent so static call sites can re-run freely.
        if let Some((_, h)) = family.instances.iter().find(|(l, _)| {
            l.len() == labels.len() && l.iter().zip(labels).all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        }) {
            return h.clone();
        }
        let handle = make();
        family.instances.push((
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            handle.clone(),
        ));
        handle
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a counter with a label set.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, MetricKind::Counter, help, labels, || {
            Handle::Counter(Arc::new(Counter::new()))
        }) {
            Handle::Counter(c) => c,
            #[expect(clippy::panic, reason = "a name reused for another kind is a bug")]
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a gauge with a label set.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, MetricKind::Gauge, help, labels, || {
            Handle::Gauge(Arc::new(Gauge::new()))
        }) {
            Handle::Gauge(g) => g,
            #[expect(clippy::panic, reason = "a name reused for another kind is a bug")]
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.register(name, MetricKind::Histogram, help, &[], || {
            Handle::Histogram(Arc::new(Histogram::new()))
        }) {
            Handle::Histogram(h) => h,
            #[expect(clippy::panic, reason = "a name reused for another kind is a bug")]
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Registers a **read cell**: a counter- or gauge-kind sample whose
    /// value is `read()` at render time, for numbers whose truth is live
    /// state (a queue depth, a rate, a sum of other cells) rather than a
    /// counted event. `read` runs on the scraping thread with no registry
    /// lock held, so it may take locks of its own or register metrics. A
    /// second registration of the same `(name, labels)` keeps the first.
    pub fn read_with(
        &self,
        name: &str,
        kind: MetricKind,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        assert_ne!(
            kind,
            MetricKind::Histogram,
            "read cell {name:?} must be a counter or a gauge"
        );
        self.register(name, kind, help, labels, || {
            Handle::Read(Arc::new(ReadCell(Box::new(read))))
        });
    }

    /// A [`read_with`](Self::read_with) cell over `target` that holds only
    /// a `Weak` reference, so a registry owned by `target` forms no cycle;
    /// renders `0` once `target` is gone.
    pub fn read_weak<S: Send + Sync + 'static>(
        &self,
        name: &str,
        kind: MetricKind,
        help: &str,
        labels: &[(&str, &str)],
        target: &Arc<S>,
        read: impl Fn(&S) -> f64 + Send + Sync + 'static,
    ) {
        let target = Arc::downgrade(target);
        self.read_with(name, kind, help, labels, move || {
            target.upgrade().map_or(0.0, |t| read(&t))
        });
    }

    /// Every registered family's name and kind, in registration order.
    pub fn families(&self) -> Vec<(String, MetricKind)> {
        let families = self.families.lock();
        families.iter().map(|f| (f.name.clone(), f.kind)).collect()
    }

    /// Renders every family into `expo`. Families whose name `expo` has
    /// already seen are skipped (so a scrape combining several registries
    /// never double-declares — first renderer wins).
    pub fn render_into(&self, expo: &mut Exposition) {
        // A read cell runs caller code, which may hold or take locks that
        // other threads hold while registering here. So the handles are
        // copied out and every cell is read with the lock released, in
        // registration order; the lock is retaken only for the names and
        // labels.
        let (counts, cells): (Vec<usize>, Vec<Handle>) = {
            let families = self.families.lock();
            let cells = families.iter().flat_map(|f| &f.instances);
            (
                families.iter().map(|f| f.instances.len()).collect(),
                cells.map(|(_, handle)| handle.clone()).collect(),
            )
        };
        let values: Vec<f64> = cells
            .iter()
            .map(|cell| match cell {
                Handle::Counter(c) => c.get() as f64,
                Handle::Gauge(g) => g.get(),
                Handle::Read(read) => (read.0)(),
                Handle::Histogram(_) => 0.0, // rendered from its handle below
            })
            .collect();
        let mut values = values.into_iter();
        // Families, and a family's instances, are only ever appended: the
        // first `counts.len()` families and the first `n` instances of each
        // are the ones just read. Later arrivals wait for the next render.
        let families = self.families.lock();
        for (f, n) in families.iter().zip(counts) {
            let values = values.by_ref().take(n);
            if expo.has_family(&f.name) {
                values.for_each(drop);
                continue;
            }
            if f.kind != MetricKind::Histogram {
                expo.family(&f.name, f.kind, &f.help);
            }
            for ((labels, handle), value) in f.instances.iter().zip(values) {
                let labels: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match handle {
                    Handle::Histogram(h) => expo.histogram(&f.name, &f.help, &labels, h),
                    _ => expo.sample(&f.name, &labels, value),
                }
            }
        }
    }

    /// Renders this registry alone as a complete exposition body.
    pub fn render(&self) -> String {
        let mut expo = Exposition::new();
        self.render_into(&mut expo);
        expo.finish()
    }
}

/// Registers a [`Counter`](crate::Counter) in the global registry once and
/// returns `&'static Counter` — an instrumentation site is one line:
///
/// ```
/// ftgemm_obs::global_counter!("ftgemm_doc_example_total", "Example.").inc();
/// ```
#[macro_export]
macro_rules! global_counter {
    ($name:expr, $help:expr) => {{
        static __FTGEMM_OBS_C: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**__FTGEMM_OBS_C.get_or_init(|| $crate::Registry::global().counter($name, $help))
    }};
}

/// Registers a [`Gauge`](crate::Gauge) in the global registry once and
/// returns `&'static Gauge`:
///
/// ```
/// ftgemm_obs::global_gauge!("ftgemm_doc_example_workers", "Example.").add(1.0);
/// ```
#[macro_export]
macro_rules! global_gauge {
    ($name:expr, $help:expr) => {{
        static __FTGEMM_OBS_G: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__FTGEMM_OBS_G.get_or_init(|| $crate::Registry::global().gauge($name, $help))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("ftgemm_reg_test_total", "t");
        let b = r.counter("ftgemm_reg_test_total", "t");
        a.inc();
        assert_eq!(b.get(), 1, "same handle behind both registrations");
    }

    #[test]
    fn labeled_instances_are_distinct() {
        let r = Registry::new();
        let n0 = r.counter_with("ftgemm_reg_node_total", "t", &[("node", "0")]);
        let n1 = r.counter_with("ftgemm_reg_node_total", "t", &[("node", "1")]);
        n0.add(3);
        n1.add(5);
        let s = r.render();
        assert!(s.contains("ftgemm_reg_node_total{node=\"0\"} 3\n"));
        assert!(s.contains("ftgemm_reg_node_total{node=\"1\"} 5\n"));
        assert_eq!(
            s.matches("# TYPE ftgemm_reg_node_total").count(),
            1,
            "one family header for all label sets"
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("ftgemm_reg_kind", "t");
        let _ = r.gauge_with("ftgemm_reg_kind", "t", &[("x", "y")]);
    }

    #[test]
    fn render_skips_families_already_in_exposition() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter("ftgemm_reg_shared_total", "t").inc();
        r2.counter("ftgemm_reg_shared_total", "t").add(10);
        let mut expo = Exposition::new();
        r1.render_into(&mut expo);
        r2.render_into(&mut expo); // skipped: r1 already declared it
        let s = expo.finish();
        assert!(s.contains("ftgemm_reg_shared_total 1\n"));
        assert!(!s.contains("ftgemm_reg_shared_total 10"));
    }

    #[test]
    fn read_cells_share_a_family_header_with_plain_cells() {
        let r = Registry::new();
        r.counter_with("ftgemm_reg_mixed_total", "t", &[("src", "cell")])
            .add(2);
        r.read_with(
            "ftgemm_reg_mixed_total",
            MetricKind::Counter,
            "t",
            &[("src", "read")],
            || 7.0,
        );
        let s = r.render();
        assert!(
            s.contains("ftgemm_reg_mixed_total{src=\"cell\"} 2\n"),
            "{s}"
        );
        assert!(
            s.contains("ftgemm_reg_mixed_total{src=\"read\"} 7\n"),
            "{s}"
        );
        assert_eq!(
            s.matches("# TYPE ftgemm_reg_mixed_total counter").count(),
            1
        );
        assert_eq!(
            r.families(),
            vec![("ftgemm_reg_mixed_total".to_string(), MetricKind::Counter)]
        );
    }

    /// `render_into` evaluates read cells with the families lock released:
    /// a cell that registers in the same registry must not deadlock.
    #[test]
    fn read_cell_may_register_while_rendering() {
        let r = Arc::new(Registry::new());
        r.read_weak(
            "ftgemm_reg_reentrant",
            MetricKind::Gauge,
            "t",
            &[],
            &r,
            |r| {
                r.counter("ftgemm_reg_late_total", "t").inc();
                1.0
            },
        );
        assert!(r.render().contains("ftgemm_reg_reentrant 1\n"));
        // Registered during the first render, so present from the second.
        assert!(r.render().contains("ftgemm_reg_late_total 2\n"));
    }

    #[test]
    fn weak_read_cell_renders_zero_after_its_target_is_dropped() {
        let r = Registry::new();
        let target = Arc::new(41u64);
        r.read_weak(
            "ftgemm_reg_weak",
            MetricKind::Gauge,
            "t",
            &[],
            &target,
            |v| *v as f64 + 1.0,
        );
        assert!(r.render().contains("ftgemm_reg_weak 42\n"));
        drop(target);
        assert!(r.render().contains("ftgemm_reg_weak 0\n"));
    }

    #[test]
    #[should_panic(expected = "must be a counter or a gauge")]
    fn read_cell_cannot_be_a_histogram() {
        Registry::new().read_with("ftgemm_reg_h", MetricKind::Histogram, "t", &[], || 0.0);
    }

    #[test]
    fn global_macro_returns_one_static_handle() {
        let c = global_counter!("ftgemm_reg_macro_total", "t");
        let before = c.get();
        global_counter!("ftgemm_reg_macro_total", "t").inc();
        assert_eq!(c.get(), before + 1);
    }
}
