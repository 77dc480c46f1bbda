//! `core::obs` — the dependency-free observability layer for the update
//! pipeline (see DESIGN.md §8).
//!
//! The paper's empirical argument (§5.1, Figs. 5/7/8) is about
//! *counting what an update did* — splits, merges, the intermediate
//! blow-up |Φ₁|, affected blocks. Two facts carry those counts:
//!
//! * the [`crate::stats::UpdateStats`] every index dispatch returns;
//! * the closed [`SpanRecord`]s of the causal span tree ([`span`]),
//!   which attribute wall-clock time and work counters layer by layer.
//!
//! Everything else is derived from them:
//!
//! * [`metrics`] — [`MetricsRegistry`]: counters / gauges / power-of-two
//!   bucket histograms keyed by `(name, family, op, phase)`, filed by
//!   typed calls where the facts are held (the edge fan-out, rebuilds,
//!   batch segments, freezes, the report publishers);
//! * [`export`] — the trace formats, all projections of a [`SpanTree`]:
//!   Chrome trace-event JSON, folded stacks, and the deterministic
//!   stable lines that conformance reproducers and the [`postmortem`]
//!   black box embed;
//! * [`ObsHub`] (here) — what the [`crate::engine::UpdateEngine`] owns:
//!   the index family table and an optional metrics registry.
//!
//! The JSON writer and the Prometheus exporter are hand-rolled
//! ([`json`]), keeping tier-1 fully offline. The hub is **disabled by
//! default** ([`ObsHub::disabled`]): no registry, [`ObsHub::is_active`]
//! is `false`, and instrumented code skips its clock reads entirely.
//! `benches/obs_overhead.rs` in `xsi-bench` verifies the disabled path
//! is within noise of the direct index calls.

pub mod export;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod postmortem;
pub mod span;

pub use export::{chrome_trace_json, folded_stacks, stable_lines, FoldWeight};
pub use mem::{HeapUse, MemReport};
pub use metrics::{Histogram, MetricKey, MetricsRegistry};
pub use span::{
    BatchSegment, IndexFamily, OpKind, SpanCounters, SpanGuard, SpanKind, SpanRecord, SpanTree,
};

/// The observability hub an [`crate::engine::UpdateEngine`] owns: the
/// index family table and an optional [`MetricsRegistry`].
///
/// Single-writer like the engine itself — no locks, no channels; the
/// registry is reached only through the engine's `&mut self` methods.
#[derive(Debug, Default)]
pub struct ObsHub {
    metrics: Option<MetricsRegistry>,
    families: Vec<String>,
}

impl ObsHub {
    /// A fully inactive hub: no metrics. Instrumented code checks
    /// [`ObsHub::is_active`] and skips everything.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether metrics are being filed. Instrumentation points gate
    /// their clock reads on this, so the disabled hub costs one branch
    /// per callsite.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.metrics.is_some()
    }

    /// Turns the metrics registry on (idempotent).
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(MetricsRegistry::new());
        }
    }

    /// The metrics registry, if enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Mutable access to the metrics registry, if enabled — what the
    /// instrumentation points file their typed observations into.
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_mut()
    }

    /// Registers an index family name, returning its compact handle.
    /// Re-registering an existing name returns the existing handle.
    pub fn register_family(&mut self, name: &str) -> IndexFamily {
        if let Some(i) = self.families.iter().position(|f| f == name) {
            return IndexFamily(i as u16);
        }
        assert!(
            self.families.len() < u16::MAX as usize,
            "too many index families"
        );
        self.families.push(name.to_string());
        IndexFamily((self.families.len() - 1) as u16)
    }

    /// The registered family names, handle order.
    pub fn families(&self) -> &[String] {
        &self.families
    }

    /// Metrics as JSON (`{}`-shaped empty document when disabled).
    pub fn metrics_json(&self) -> String {
        match &self.metrics {
            Some(m) => m.to_json(&self.families),
            None => MetricsRegistry::new().to_json(&self.families),
        }
    }

    /// The deterministic metrics projection (timing histograms
    /// excluded) — identical across identically seeded runs.
    pub fn metrics_deterministic_json(&self) -> String {
        match &self.metrics {
            Some(m) => m.to_deterministic_json(&self.families),
            None => MetricsRegistry::new().to_deterministic_json(&self.families),
        }
    }

    /// Metrics in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        match &self.metrics {
            Some(m) => m.to_prometheus(&self.families),
            None => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::UpdateStats;

    #[test]
    fn disabled_hub_is_inert() {
        let hub = ObsHub::disabled();
        assert!(!hub.is_active());
        assert!(hub.metrics().is_none());
        assert!(hub.metrics_prometheus().is_empty());
    }

    #[test]
    fn disabled_hub_retains_no_series_after_registration() {
        let mut hub = ObsHub::disabled();
        hub.register_family("1-index");
        hub.register_family("A(2)-index");
        assert!(hub.metrics_mut().is_none());
        let empty = r#"{"format":"xsi-metrics-v1","counters":[],"gauges":[],"histograms":[]}"#;
        assert_eq!(hub.metrics_json(), empty);
        assert_eq!(hub.metrics_deterministic_json(), empty);
        assert!(hub.metrics_prometheus().is_empty());
    }

    #[test]
    fn family_registration_dedupes_and_resolves() {
        let mut hub = ObsHub::disabled();
        let a = hub.register_family("1-index");
        let b = hub.register_family("A(2)-index");
        let a2 = hub.register_family("1-index");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(hub.families()[a.0 as usize], "1-index");
        assert_eq!(hub.families(), ["1-index", "A(2)-index"]);
    }

    #[test]
    fn dispatch_files_counters_and_phase_breakdown() {
        let mut hub = ObsHub::disabled();
        hub.enable_metrics();
        let fam = hub.register_family("1-index");
        let stats = UpdateStats {
            splits: 2,
            merges: 1,
            intermediate_blocks: 12,
            final_blocks: 11,
            no_op: false,
            split_nanos: 40,
            merge_nanos: 50,
            queue_peak: 3,
            levels_touched: 2,
        };
        let m = hub.metrics_mut().unwrap();
        m.observe_op(OpKind::DeleteEdge);
        m.observe_dispatch(fam, OpKind::DeleteEdge, &stats, 123);

        let m = hub.metrics().unwrap();
        assert_eq!(
            m.counter_value(&MetricKey::named("ops_total").op("delete-edge")),
            1
        );
        let delete = |name| MetricKey::named(name).family(fam).op("delete-edge");
        assert_eq!(m.counter_value(&delete("splits_total")), 2);
        assert_eq!(m.counter_value(&delete("merges_total")), 1);
        assert_eq!(m.histogram(&delete("dispatch_nanos")).unwrap().max, 123);
        let split = |name| MetricKey::named(name).family(fam).phase("split");
        assert_eq!(m.histogram(&split("queue_peak")).unwrap().max, 3);
        assert_eq!(m.histogram(&split("intermediate_blocks")).unwrap().max, 12);
        assert_eq!(
            m.gauge_value(&MetricKey::named("final_blocks").family(fam)),
            Some(11.0)
        );
        let levels = MetricKey::named("rank_levels_touched").family(fam);
        assert_eq!(m.histogram(&levels).unwrap().max, 2);
    }

    #[test]
    fn no_op_dispatch_emits_only_the_summary() {
        let mut hub = ObsHub::disabled();
        hub.enable_metrics();
        let fam = hub.register_family("1-index");
        let stats = UpdateStats {
            no_op: true,
            ..UpdateStats::identity()
        };
        hub.metrics_mut()
            .unwrap()
            .observe_dispatch(fam, OpKind::InsertEdge, &stats, 7);
        let m = hub.metrics().unwrap();
        let insert = |name| MetricKey::named(name).family(fam).op("insert-edge");
        assert_eq!(m.counter_value(&insert("no_ops_total")), 1);
        assert_eq!(m.histogram(&insert("dispatch_nanos")).unwrap().count, 1);
        // No phase breakdown: one counter trio plus the latency sample.
        assert_eq!(m.series_count(), 4);
    }
}
