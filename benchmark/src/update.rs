//! Updates through `UpdateEngine`, shared by `xmark-churn` and
//! `imdb-mixed`, and the traced run's direct leg: a copy of the graph
//! and of both indexes that replays every update through
//! `Graph::insert_edge`/`delete_edge` and `notify_edge_*`, so the
//! per-index `UpdateStats` of the two legs can be compared.

use std::time::Instant;

use xsi_core::{
    apply_batch_traced, AkIndex, BatchResult, IndexHandle, OneIndex, StructuralIndex, UpdateEngine,
    UpdateOp, UpdateStats,
};
use xsi_graph::{EdgeKind, Graph, NodeId};

use crate::common::{index_bytes, ns_since, Checks, Metrics, Trace, MIB};

/// The A(k) parameter of the update workloads.
pub const K: usize = 2;

/// The engine with its two registered indexes.
pub struct Indexed {
    pub engine: UpdateEngine,
    pub one: IndexHandle,
    pub ak: IndexHandle,
}

impl Indexed {
    /// Builds the 1-index and A(k) over `g` and registers both, returning
    /// the build time in seconds. With `direct`, also builds the direct
    /// leg's copy (not counted in the build time).
    pub fn build(g: Graph, direct: bool) -> (Indexed, Option<Direct>, f64) {
        let t = Instant::now();
        let one = OneIndex::build(&g);
        let ak = AkIndex::build(&g, K);
        let build_s = t.elapsed().as_secs_f64();
        let direct = direct.then(|| Direct::new(g.clone()));
        let mut engine = UpdateEngine::new(g);
        let one = engine.register(Box::new(one));
        let ak = engine.register(Box::new(ak));
        (Indexed { engine, one, ak }, direct, build_s)
    }

    pub fn one_index(&self) -> &OneIndex {
        self.engine
            .index(self.one)
            .as_any()
            .downcast_ref()
            .expect("the first registered index is the 1-index")
    }

    pub fn ak_index(&self) -> &AkIndex {
        self.engine
            .index(self.ak)
            .as_any()
            .downcast_ref()
            .expect("the second registered index is the A(k)-index")
    }

    fn cow_clones(&self) -> u64 {
        self.engine.index(self.one).cow_clones() + self.engine.index(self.ak).cow_clones()
    }

    fn stats(&self) -> [UpdateStats; 2] {
        [
            *self.engine.index_stats(self.one),
            *self.engine.index_stats(self.ak),
        ]
    }

    /// Inserts (`insert`) or deletes the IDREF edge `(u, v)` through the
    /// engine. Returns the engine call's nanoseconds, or `None` if the
    /// engine refused the update. In the traced run the per-index stats
    /// are read around the call and the direct leg replays it.
    pub fn edge_update(
        &mut self,
        insert: bool,
        (u, v): (NodeId, NodeId),
        checks: &mut Checks,
        tl: &mut Option<TracedLegs>,
    ) -> Option<u64> {
        let main = Instant::now();
        let before = tl.is_some().then(|| (self.stats(), self.cow_clones()));
        let t = Instant::now();
        let r = if insert {
            self.engine.insert_edge(u, v, EdgeKind::IdRef).map(drop)
        } else {
            self.engine.delete_edge(u, v).map(drop)
        };
        let ns = ns_since(t);
        checks.op("engine edge update", r)?;
        let (Some(tl), Some((before, cow_before))) = (tl, before) else {
            return Some(ns);
        };
        let after = self.stats();
        let phases: u64 = (0..2)
            .map(|i| {
                (after[i].split_nanos + after[i].merge_nanos)
                    - (before[i].split_nanos + before[i].merge_nanos)
            })
            .sum();
        tl.trace
            .record("engine.residual", ns.saturating_sub(phases));
        tl.cow_clones += self.cow_clones() - cow_before;
        tl.updates += 1;
        tl.main_ns += ns_since(main);

        let d = &mut tl.direct;
        let graph = if insert {
            tl.trace
                .span("graph.mutate", || d.g.insert_edge(u, v, EdgeKind::IdRef))
        } else {
            tl.trace
                .span("graph.mutate", || d.g.delete_edge(u, v).map(drop))
        };
        checks.op("direct graph update", graph)?;
        let s1 = tl.trace.span("oneindex.update", || {
            if insert {
                d.one.notify_edge_inserted(&d.g, u, v)
            } else {
                d.one.notify_edge_deleted(&d.g, u, v)
            }
        });
        let sk = tl.trace.span("akindex.update", || {
            if insert {
                d.ak.notify_edge_inserted(&d.g, u, v)
            } else {
                d.ak.notify_edge_deleted(&d.g, u, v)
            }
        });
        tl.trace.record("oneindex.split", s1.split_nanos);
        tl.trace.record("oneindex.merge", s1.merge_nanos);
        tl.one.absorb(&s1);
        tl.ak.absorb(&sk);
        tl.compare(&before, &after, [&s1, &sk], checks);
        Some(ns)
    }

    /// Applies `ops` as one batch through the engine, returning the
    /// result and the call's nanoseconds. The traced run replays the
    /// batch on the direct leg and compares the per-index stats.
    pub fn batch(
        &mut self,
        span: &'static str,
        ops: &[UpdateOp],
        checks: &mut Checks,
        tl: &mut Option<TracedLegs>,
    ) -> Option<(BatchResult, u64)> {
        let before = self.stats();
        let cow_before = self.cow_clones();
        let t = Instant::now();
        let r = self.engine.apply_batch(ops);
        let ns = ns_since(t);
        let result = checks.op("engine batch", r)?;
        if let Some(tl) = tl {
            tl.trace.record(span, ns);
            tl.main_ns += ns;
            tl.cow_clones += self.cow_clones() - cow_before;
            let after = self.stats();
            let d = &mut tl.direct;
            let mut views: [&mut dyn StructuralIndex; 2] = [&mut d.one, &mut d.ak];
            let (direct, per_index) = checks.op(
                "direct batch",
                apply_batch_traced(&mut views, &mut d.g, ops),
            )?;
            checks.check(direct.created == result.created, || {
                "direct batch created other node ids than the engine".into()
            });
            tl.compare(&before, &after, [&per_index[0], &per_index[1]], checks);
        }
        Some((result, ns))
    }

    /// The checks every update workload ends with: the engine's own
    /// consistency check, A(k) equal to a fresh build (Theorem 2), and a
    /// valid 1-index no smaller than the fresh-build minimum. Returns the
    /// 1-index quality.
    pub fn final_checks(&self, checks: &mut Checks) -> f64 {
        checks.oracle("UpdateEngine::check", self.engine.check());
        let g = self.engine.graph();
        let fresh_ak = AkIndex::build(g, K);
        let ak = self.ak_index();
        checks.count("A(k) blocks", ak.block_count(), fresh_ak.block_count());
        checks.check(ak.canonical() == fresh_ak.canonical(), || {
            "A(k) differs from a fresh build".into()
        });
        let minimum = OneIndex::build(g).block_count();
        let blocks = self.one_index().block_count();
        checks.check(blocks >= minimum, || {
            format!("1-index has {blocks} blocks, below the minimum {minimum}")
        });
        // The paper's quality: blocks over the minimum, minus 1.
        blocks as f64 / minimum.max(1) as f64 - 1.0
    }

    /// Deep heap MiB of the 1-index and of the A(k)-index.
    pub fn index_mib(&self) -> (f64, f64) {
        (
            index_bytes(self.engine.index(self.one)) as f64 / MIB,
            index_bytes(self.engine.index(self.ak)) as f64 / MIB,
        )
    }
}

/// Whether the engine leg's per-index stats delta (`before` → `after`)
/// and the direct leg's `UpdateStats` disagree on splits, merges or the
/// final block count.
fn differs(before: &UpdateStats, after: &UpdateStats, direct: &UpdateStats) -> bool {
    after.splits - before.splits != direct.splits
        || after.merges - before.merges != direct.merges
        || after.final_blocks != direct.final_blocks
}

/// The direct leg's copy of the graph and of both indexes.
pub struct Direct {
    g: Graph,
    one: OneIndex,
    ak: AkIndex,
}

impl Direct {
    fn new(g: Graph) -> Self {
        let one = OneIndex::build(&g);
        let ak = AkIndex::build(&g, K);
        Direct { g, one, ak }
    }
}

/// What the traced run collects around engine updates.
pub struct TracedLegs {
    pub trace: Trace,
    /// The current pass's direct leg.
    direct: Direct,
    /// Direct-leg stats folded over every single-edge update.
    one: Fold,
    ak: Fold,
    updates: u64,
    cow_clones: u64,
    mismatches: u64,
    /// `eval_ak_index` candidates and validated A(k) answers of the
    /// A(k) queries.
    pub ak_candidates: u64,
    pub ak_results: u64,
    /// Time of the engine-facing loop, span bookkeeping included and the
    /// direct leg excluded — compared against the untraced loop for
    /// `trace.overhead_frac`.
    pub main_ns: u64,
}

impl TracedLegs {
    fn new(direct: Direct) -> Self {
        TracedLegs {
            trace: Trace::default(),
            direct,
            one: Fold::default(),
            ak: Fold::default(),
            updates: 0,
            cow_clones: 0,
            mismatches: 0,
            ak_candidates: 0,
            ak_results: 0,
            main_ns: 0,
        }
    }

    /// Points the traced legs at a new pass's direct leg, creating them
    /// on the first pass; a no-op in the untraced run (`direct` is `None`).
    pub fn attach(tl: &mut Option<TracedLegs>, direct: Option<Direct>) {
        if let Some(direct) = direct {
            match tl {
                Some(tl) => tl.direct = direct,
                None => *tl = Some(TracedLegs::new(direct)),
            }
        }
    }

    /// Compares one operation's per-index stats between the engine leg
    /// (`before` → `after`) and the direct leg. A mismatch counts in
    /// `engine.stats_mismatch` and fails an output check.
    fn compare(
        &mut self,
        before: &[UpdateStats; 2],
        after: &[UpdateStats; 2],
        direct: [&UpdateStats; 2],
        checks: &mut Checks,
    ) {
        let bad = (0..2).any(|i| differs(&before[i], &after[i], direct[i]));
        self.mismatches += u64::from(bad);
        checks.check(!bad, || {
            "UpdateStats differ between the engine and the direct leg".into()
        });
    }

    /// Writes the `graph`, `engine`, `oneindex` and `akindex` maintenance
    /// metrics, `view.cow_clones_per_update`, the index memory of `ix` and
    /// the tracing overhead against `untraced_ns` for the same operations.
    pub fn report(&self, m: &mut Metrics, ix: &Indexed, untraced_ns: u64) {
        let t = &self.trace;
        let one = t.samples("oneindex.update");
        let ak = t.samples("akindex.update");
        m.set("graph.mutate_ns_p50", t.samples("graph.mutate").p50(), "ns");
        m.set(
            "engine.residual_ns_p50",
            t.samples("engine.residual").p50(),
            "ns",
        );
        m.set("engine.stats_mismatch", self.mismatches as f64, "count");
        m.set("oneindex.update_ns_p50", one.p50(), "ns");
        m.set("oneindex.update_ns_p99", one.p99(), "ns");
        m.set(
            "oneindex.split_ns_p50",
            t.samples("oneindex.split").p50(),
            "ns",
        );
        m.set(
            "oneindex.merge_ns_p50",
            t.samples("oneindex.merge").p50(),
            "ns",
        );
        let n = self.one.updates.max(1) as f64;
        m.set(
            "oneindex.splits_per_update",
            self.one.splits as f64 / n,
            "count",
        );
        m.set(
            "oneindex.merges_per_update",
            self.one.merges as f64 / n,
            "count",
        );
        m.set(
            "oneindex.intermediate_blocks_max",
            self.one.intermediate_max as f64,
            "count",
        );
        m.set(
            "oneindex.queue_peak_max",
            self.one.queue_peak_max as f64,
            "count",
        );
        m.set("oneindex.noop_frac", self.one.no_ops as f64 / n, "ratio");
        m.set("akindex.update_ns_p50", ak.p50(), "ns");
        m.set("akindex.update_ns_p99", ak.p99(), "ns");
        let n = self.ak.updates.max(1) as f64;
        m.set(
            "akindex.splits_per_update",
            self.ak.splits as f64 / n,
            "count",
        );
        m.set(
            "akindex.merges_per_update",
            self.ak.merges as f64 / n,
            "count",
        );
        m.set(
            "akindex.levels_touched_mean",
            self.ak.levels as f64 / n,
            "count",
        );
        m.set(
            "view.cow_clones_per_update",
            self.cow_clones as f64 / self.updates.max(1) as f64,
            "count",
        );
        let (one_mib, ak_mib) = ix.index_mib();
        m.set("mem.oneindex_mib", one_mib, "MiB");
        m.set("mem.akindex_mib", ak_mib, "MiB");
        m.set(
            "trace.overhead_frac",
            self.main_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
            "ratio",
        );
    }
}

/// Direct-leg `UpdateStats` folded over single-edge updates.
#[derive(Default)]
struct Fold {
    updates: u64,
    splits: u64,
    merges: u64,
    no_ops: u64,
    levels: u64,
    intermediate_max: usize,
    queue_peak_max: usize,
}

impl Fold {
    fn absorb(&mut self, s: &UpdateStats) {
        self.updates += 1;
        self.splits += s.splits as u64;
        self.merges += s.merges as u64;
        self.no_ops += u64::from(s.no_op);
        self.levels += s.levels_touched as u64;
        self.intermediate_max = self.intermediate_max.max(s.intermediate_blocks);
        self.queue_peak_max = self.queue_peak_max.max(s.queue_peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differs_compares_the_engine_delta_with_the_direct_stats() {
        let before = UpdateStats {
            splits: 4,
            merges: 2,
            final_blocks: 10,
            ..UpdateStats::default()
        };
        let after = UpdateStats {
            splits: 5,
            merges: 3,
            final_blocks: 10,
            ..UpdateStats::default()
        };
        let same = UpdateStats {
            splits: 1,
            merges: 1,
            final_blocks: 10,
            ..UpdateStats::default()
        };
        assert!(!differs(&before, &after, &same));
        for other in [
            UpdateStats { splits: 0, ..same },
            UpdateStats { merges: 2, ..same },
            UpdateStats {
                final_blocks: 11,
                ..same
            },
        ] {
            assert!(differs(&before, &after, &other));
        }
    }
}
