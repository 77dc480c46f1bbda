//! The single-writer [`UpdateEngine`] — one mutation pipeline for a
//! graph and every structural index over it.
//!
//! The paper's algorithms are described per index, but a system keeps
//! *several* indexes over one document (a 1-index for long paths, an
//! A(k) for short ones, a baseline for comparison …). Before the engine,
//! each caller had to mutate the graph once and remember to notify each
//! index in the right order — easy to get wrong (mutate twice, notify
//! before mutating, forget an index). The engine makes the invariant
//! structural:
//!
//! * it **owns** the [`Graph`] — the only `&mut` path to it goes through
//!   [`UpdateEngine::apply`] and friends, so every mutation is applied
//!   exactly once;
//! * registered [`StructuralIndex`] trait objects are notified in
//!   registration order, after the graph change (the hook contract of
//!   [`crate::index`]);
//! * per-index cumulative [`UpdateStats`] and engine-wide
//!   [`EngineStats`] (ops, splits, merges, touched blocks, latency) are
//!   collected on every operation;
//! * an optional per-index [`RebuildPolicy`] triggers the paper's
//!   5 %-growth reconstruction through [`StructuralIndex::rebuild`],
//!   with the time booked separately — exactly the accounting the
//!   Section 7 experiments need.
//!
//! Node removal is decomposed the way Section 1 prescribes ("based on"
//! edge deletion): the engine deletes each incident edge through the
//! normal fan-out, then runs `on_node_removing` on every index, then
//! removes the node from the graph.
//!
//! With the `paranoid` cargo feature the engine additionally re-runs the
//! trait-level consistency checker ([`UpdateEngine::check`]) and the
//! graph's own invariant check after every mutation, panicking on the
//! first violation — the conformance lab's and test suite's safety net
//! (see `crates/conformance`). The checks are compiled out entirely in
//! default builds.

use crate::batch::{self, BatchError, BatchResult, UpdateOp};
use crate::index::StructuralIndex;
use crate::obs::mem::{self, HeapUse};
use crate::obs::span::{IndexFamily, OpKind, SpanGuard, SpanKind};
use crate::obs::ObsHub;
use crate::rebuild::RebuildPolicy;
use crate::stats::UpdateStats;
use crate::view::IndexSnapshot;
use std::time::{Duration, Instant};
use xsi_graph::{EdgeKind, Graph, GraphError, NodeId};

/// Handle to an index registered with an [`UpdateEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexHandle(usize);

/// Engine-wide aggregate counters across all operations and indexes.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Graph mutations applied (an edge op counts 1; a node removal
    /// counts 1 plus one per incident edge deleted).
    pub ops: usize,
    /// Total block splits across all indexes.
    pub splits: usize,
    /// Total block merges across all indexes.
    pub merges: usize,
    /// Blocks touched by maintenance, summed over ops and indexes:
    /// every split and merge touches one block, plus the updated node's
    /// block for each non-no-op observation. (Derived from per-op
    /// [`UpdateStats`]; no-op fast paths touch nothing.)
    pub touched_blocks: usize,
    /// Wall-clock time inside index maintenance hooks.
    pub update_time: Duration,
    /// Wall-clock time inside policy-triggered reconstructions.
    pub rebuild_time: Duration,
    /// Number of policy-triggered reconstructions.
    pub rebuilds: usize,
}

impl EngineStats {
    fn absorb_op(&mut self, s: &UpdateStats) {
        self.splits += s.splits;
        self.merges += s.merges;
        self.touched_blocks += s.splits + s.merges + usize::from(!s.no_op);
    }

    /// The single instrumentation choke point for per-operation time
    /// bookkeeping (previously copy-pasted across `add_node`,
    /// `remove_node`, `apply_batch`, and the edge fan-out): books
    /// `elapsed` wall-clock time inside index-maintenance hooks and
    /// `ops` applied graph mutations.
    fn observe_op(&mut self, elapsed: Duration, ops: usize) {
        self.update_time += elapsed;
        self.ops += ops;
    }
}

struct Entry {
    index: Box<dyn StructuralIndex>,
    /// Cumulative stats since registration (absorbed per op).
    stats: UpdateStats,
    policy: Option<RebuildPolicy>,
    /// The index's [`IndexFamily`] handle in the engine's [`ObsHub`].
    family: IndexFamily,
}

/// Owns a [`Graph`] and fans every mutation out to its registered
/// indexes. See the module docs for the design rationale.
pub struct UpdateEngine {
    g: Graph,
    entries: Vec<Entry>,
    stats: EngineStats,
    /// The observability hub: family table + optional metrics registry
    /// (disabled by default — see [`crate::obs`]).
    obs: ObsHub,
}

impl UpdateEngine {
    /// Wraps a graph. Indexes are registered afterwards so they can be
    /// built against `engine.graph()`.
    pub fn new(g: Graph) -> Self {
        UpdateEngine {
            g,
            entries: Vec::new(),
            stats: EngineStats::default(),
            obs: ObsHub::disabled(),
        }
    }

    /// Read access to the observability hub.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Mutable access to the observability hub — enable metrics
    /// ([`ObsHub::enable_metrics`]) before applying updates.
    // xsi-lint: allow(span-coverage, accessor; applies no mutation)
    pub fn obs_mut(&mut self) -> &mut ObsHub {
        &mut self.obs
    }

    /// Registers an index (already built over this engine's graph).
    // xsi-lint: allow(span-coverage, registration applies no mutation; register_inner books the family in the obs hub)
    pub fn register(&mut self, index: Box<dyn StructuralIndex>) -> IndexHandle {
        self.register_inner(index, None)
    }

    /// Registers an index together with the 5 %-growth reconstruction
    /// policy: after any operation that leaves the index more than the
    /// threshold above its last-rebuilt size, the engine calls
    /// [`StructuralIndex::rebuild`] and books the time separately.
    // xsi-lint: allow(span-coverage, registration applies no mutation; register_inner books the family in the obs hub)
    pub fn register_with_policy(&mut self, index: Box<dyn StructuralIndex>) -> IndexHandle {
        let policy = RebuildPolicy::new(index.block_count());
        self.register_inner(index, Some(policy))
    }

    fn register_inner(
        &mut self,
        index: Box<dyn StructuralIndex>,
        policy: Option<RebuildPolicy>,
    ) -> IndexHandle {
        debug_assert!(
            index.check(&self.g).is_ok(),
            "registered index inconsistent with the engine's graph"
        );
        let family = self.obs.register_family(&index.describe());
        self.entries.push(Entry {
            index,
            // Cumulative per-index stats fold from the absorb identity so
            // `no_op` means "every op so far was a no-op" (satellite 1).
            stats: UpdateStats::identity(),
            policy,
            family,
        });
        IndexHandle(self.entries.len() - 1)
    }

    /// Read access to the graph. There is intentionally no `&mut Graph`
    /// accessor — mutations go through the engine.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Read access to a registered index.
    // `index(&self, handle)` is the natural name for handle-based lookup;
    // `std::ops::Index` cannot be implemented here because the return type
    // is an unsized trait object behind a `Box` we must not expose.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, h: IndexHandle) -> &dyn StructuralIndex {
        &*self.entries[h.0].index
    }

    /// Cumulative per-index statistics since registration.
    pub fn index_stats(&self, h: IndexHandle) -> &UpdateStats {
        &self.entries[h.0].stats
    }

    /// Engine-wide aggregate counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of registered indexes.
    pub fn index_count(&self) -> usize {
        self.entries.len()
    }

    /// Disassembles the engine, returning the graph and the indexes
    /// (registration order).
    pub fn into_parts(self) -> (Graph, Vec<Box<dyn StructuralIndex>>) {
        (self.g, self.entries.into_iter().map(|e| e.index).collect())
    }

    /// Adds a node and registers it with every index.
    pub fn add_node(&mut self, label: &str, value: Option<String>) -> NodeId {
        let n = self.g.add_node(label, value);
        if let Some(m) = self.obs.metrics_mut() {
            m.observe_op(OpKind::AddNode);
        }
        let op_span = SpanGuard::enter(SpanKind::Op);
        let t = Instant::now();
        for e in &mut self.entries {
            let dispatch = SpanGuard::enter_family(SpanKind::IndexDispatch, e.family);
            e.index.on_node_added(&self.g, n);
            drop(dispatch);
        }
        drop(op_span);
        self.stats.observe_op(t.elapsed(), 1);
        self.paranoid_check("add_node");
        n
    }

    /// Inserts an edge and fans the observation out. Returns the stats
    /// aggregated over all indexes for this one operation.
    // xsi-lint: allow(span-coverage, delegates to batch::fan_out_edge, which opens the Op span)
    pub fn insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        kind: EdgeKind,
    ) -> Result<UpdateStats, GraphError> {
        self.g.insert_edge(u, v, kind)?;
        Ok(self.observe_edge(u, v, true))
    }

    /// Deletes an edge and fans the observation out. Returns the removed
    /// edge's kind alongside the aggregated stats.
    // xsi-lint: allow(span-coverage, delegates to batch::fan_out_edge, which opens the Op span)
    pub fn delete_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<(UpdateStats, EdgeKind), GraphError> {
        let kind = self.g.delete_edge(u, v)?;
        Ok((self.observe_edge(u, v, false), kind))
    }

    /// Removes a node: deletes each incident edge through the normal
    /// fan-out (parents first, then children), notifies
    /// `on_node_removing`, then removes the node from the graph.
    pub fn remove_node(&mut self, n: NodeId) -> Result<UpdateStats, GraphError> {
        if !self.g.is_alive(n) {
            return Err(GraphError::DeadNode(n));
        }
        if n == self.g.root() {
            // Reject before touching anything: the graph would refuse the
            // final removal, and by then edges would already be gone.
            return Err(GraphError::RootViolation);
        }
        let mut total = UpdateStats {
            no_op: false,
            ..UpdateStats::default()
        };
        let parents: Vec<NodeId> = self.g.pred(n).collect();
        for p in parents {
            let (s, _) = self.delete_edge(p, n)?;
            total.absorb(&s);
        }
        let children: Vec<NodeId> = self.g.succ(n).collect();
        for c in children {
            let (s, _) = self.delete_edge(n, c)?;
            total.absorb(&s);
        }
        // The incident edge deletions above filed their own ops
        // (matching `EngineStats::ops` accounting); this one is for the
        // removal itself.
        if let Some(m) = self.obs.metrics_mut() {
            m.observe_op(OpKind::RemoveNode);
        }
        let op_span = SpanGuard::enter(SpanKind::Op);
        let t = Instant::now();
        for e in &mut self.entries {
            let dispatch = SpanGuard::enter_family(SpanKind::IndexDispatch, e.family);
            e.index.on_node_removing(&self.g, n);
            drop(dispatch);
        }
        let elapsed = t.elapsed();
        drop(op_span);
        self.g.remove_node(n)?;
        self.stats.observe_op(elapsed, 1);
        self.paranoid_check("remove_node");
        Ok(total)
    }

    /// Applies one [`UpdateOp`]. `AddNode` ids are returned through the
    /// result's `created`; use [`UpdateEngine::apply_batch`] when ops
    /// reference each other's new nodes.
    // xsi-lint: allow(span-coverage, one-op shim over apply_batch, which opens the batch-segment spans)
    pub fn apply(&mut self, op: &UpdateOp) -> Result<BatchResult, BatchError> {
        self.apply_batch(std::slice::from_ref(op))
    }

    /// Applies a batch through the shared phase-ordered batch machinery
    /// (validate → add nodes → insert edges → delete edges → remove
    /// nodes), fanning every mutation out to all registered indexes.
    // xsi-lint: allow(span-coverage, delegates to batch::apply_batch_observed, which opens the BatchSegment and Op spans)
    pub fn apply_batch(&mut self, ops: &[UpdateOp]) -> Result<BatchResult, BatchError> {
        // Split-borrow: the batch core needs &mut Graph plus the index
        // trait objects; reassemble the per-index stats afterwards.
        let t = Instant::now();
        let (result, per_index) = {
            let families: Vec<IndexFamily> = self.entries.iter().map(|e| e.family).collect();
            let mut views: Vec<&mut dyn StructuralIndex> = Vec::with_capacity(self.entries.len());
            for e in &mut self.entries {
                views.push(e.index.as_mut());
            }
            let metrics = self.obs.metrics_mut();
            batch::apply_batch_observed(&mut views, &families, &mut self.g, ops, metrics)?
        };
        self.stats.observe_op(t.elapsed(), result.ops_applied);
        for (e, s) in self.entries.iter_mut().zip(&per_index) {
            e.stats.absorb(s);
            self.stats.absorb_op(s);
        }
        self.run_policies();
        self.paranoid_check("apply_batch");
        Ok(result)
    }

    /// Files one store report per registered index that keeps dense
    /// iedge maps ([`StructuralIndex::store_report`]): inline vs spilled
    /// map populations, cumulative spill events, and probe lengths land
    /// in the metrics registry as `store_*` gauges plus the
    /// `store_probe_len` histogram. On-demand rather than per-op — the
    /// report walks every live block, so callers (bench drivers,
    /// exporters) sample it at export points. A no-op while metrics are
    /// off.
    // xsi-lint: allow(span-coverage, export-point report publisher; its series are pinned by the metrics golden test)
    pub fn publish_store_reports(&mut self) {
        let Some(m) = self.obs.metrics_mut() else {
            return;
        };
        for e in &self.entries {
            if let Some(r) = e.index.store_report() {
                m.observe_store_report(e.family, &r);
            }
        }
    }

    /// Files one mem report per registered index with memory accounting
    /// ([`StructuralIndex::mem_report`]): deep byte categories and the
    /// quality telemetry (live blocks vs the rebuild-to-minimum oracle)
    /// land as `mem_*`/`quality_*` gauges, and the report's
    /// extent-length and inline-occupancy histograms are transplanted
    /// into the registry bucket-for-bucket. On-demand, like
    /// [`UpdateEngine::publish_store_reports`]: the report walks every
    /// slot, and `minimum_block_count` *rebuilds* the index — this is an
    /// export-point operation, never a per-op one. A no-op while metrics
    /// are off.
    // xsi-lint: allow(span-coverage, export-point report publisher; its series are pinned by the metrics golden test)
    pub fn publish_mem_reports(&mut self) {
        let Some(m) = self.obs.metrics_mut() else {
            return;
        };
        for e in &self.entries {
            if let Some(r) = e.index.mem_report() {
                let blocks = e.index.block_count();
                let minimum = e.index.minimum_block_count(&self.g);
                m.observe_mem_report(e.family, &r, blocks, minimum);
            }
        }
    }

    /// One-stop metrics export: publishes store and mem reports first
    /// (so the `store_probe_len`/spill telemetry the ROADMAP IedgeMap
    /// sweep needs — and the `mem_*`/`quality_*` attribution — is
    /// always current, not only when a caller remembered the publish
    /// calls), then renders the metrics registry as JSON. Returns
    /// `None` when metrics were never enabled.
    // xsi-lint: allow(span-coverage, export point; delegates to the publish_* report publishers)
    pub fn export_metrics_json(&mut self) -> Option<String> {
        self.obs.metrics()?;
        self.publish_store_reports();
        self.publish_mem_reports();
        Some(self.obs.metrics_json())
    }

    /// Freezes every registered index into an immutable
    /// [`IndexSnapshot`] (registration order; `None` for families that
    /// cannot freeze). O(blocks) per index: extent runs are
    /// `Arc`-shared, not copied — the writer's next mutation of a
    /// frozen block clones only that block's run. With metrics on, each
    /// frozen index is filed (→ `snapshots_total`,
    /// `snapshot_freeze_nanos`, `snapshot_cow_clones`,
    /// `snapshot_retained_bytes`); snapshots are returned either way.
    pub fn freeze(&mut self) -> Vec<Option<IndexSnapshot>> {
        let mut out = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            // Family-attributed wrapper; the view-level block walk opens
            // its own (nested) Freeze span carrying the block counter.
            let sp = SpanGuard::enter_family(SpanKind::Freeze, e.family);
            let t = self.obs.is_active().then(Instant::now);
            let snap = e.index.freeze(&self.g);
            sp.add_cow_clones(e.index.cow_clones());
            if let Some(s) = snap.as_ref() {
                sp.add_blocks(s.block_count() as u64);
            }
            drop(sp);
            if let (Some(m), Some(t), Some(s)) = (self.obs.metrics_mut(), t, snap.as_ref()) {
                // Snapshot retention is attributed to the snapshot side
                // (the live index's MemReport reports the same runs as
                // "shared").
                let nanos = t.elapsed().as_nanos() as u64;
                m.observe_freeze(
                    e.family,
                    s.block_count(),
                    e.index.cow_clones(),
                    nanos,
                    s.heap_use(),
                );
            }
            out.push(snap);
        }
        out
    }

    /// Consistency check of every registered index against the graph.
    pub fn check(&self) -> Result<(), String> {
        for e in &self.entries {
            e.index
                .check(&self.g)
                .map_err(|err| format!("{}: {err}", e.index.describe()))?;
        }
        Ok(())
    }

    /// Fan-out for an edge observation already applied to the graph:
    /// the shared [`batch::fan_out_edge`] over every entry, with no
    /// per-call allocation.
    fn observe_edge(&mut self, u: NodeId, v: NodeId, inserted: bool) -> UpdateStats {
        let t = Instant::now();
        // Fold from the absorb identity (satellite 1): the aggregate's
        // `no_op` is true iff every index took its no-op fast path.
        let mut total = UpdateStats::identity();
        let engine_stats = &mut self.stats;
        let targets = self
            .entries
            .iter_mut()
            .map(|e| -> batch::FanOutTarget<'_> { (e.index.as_mut(), e.family, &mut e.stats) });
        batch::fan_out_edge(
            &self.g,
            (u, v),
            inserted,
            targets,
            self.obs.metrics_mut(),
            |s| {
                engine_stats.absorb_op(s);
                total.absorb(s);
            },
        );
        self.stats.observe_op(t.elapsed(), 1);
        self.run_policies();
        self.paranoid_check("edge op");
        total
    }

    /// `paranoid` feature: full self-check after every mutation. Panics
    /// on the first violation so the failing operation is caught at the
    /// op that corrupted state, not at the end of a long sequence. A
    /// no-op (compiled out) without the feature.
    #[inline]
    fn paranoid_check(&self, _context: &str) {
        #[cfg(feature = "paranoid")]
        {
            if let Err(e) = self.g.check_consistency() {
                panic!("paranoid ({_context}): graph inconsistent: {e}");
            }
            if let Err(e) = self.check() {
                panic!("paranoid ({_context}): index check failed: {e}");
            }
        }
    }

    /// Triggers policy-driven reconstructions where the growth threshold
    /// is exceeded.
    fn run_policies(&mut self) {
        for e in &mut self.entries {
            if let Some(policy) = &mut e.policy {
                if policy.should_rebuild(e.index.block_count()) {
                    let before = e.index.block_count();
                    let sp = SpanGuard::enter_family(SpanKind::Rebuild, e.family);
                    sp.add_blocks(before as u64);
                    let t = Instant::now();
                    e.index.rebuild(&self.g);
                    let elapsed = t.elapsed();
                    drop(sp);
                    self.stats.rebuild_time += elapsed;
                    self.stats.rebuilds += 1;
                    let after = e.index.block_count();
                    policy.on_rebuilt(after);
                    if let Some(m) = self.obs.metrics_mut() {
                        m.observe_rebuild(e.family, after, elapsed.as_nanos() as u64);
                    }
                }
            }
        }
    }
}

impl HeapUse for UpdateEngine {
    /// The registration-table shell plus each registered index's deep
    /// bytes (via its mem report). The graph, per-index stats and the
    /// obs hub itself are deliberately uncounted — see DESIGN.md §13.
    fn heap_use(&self) -> usize {
        let Self {
            g: _,
            entries,
            stats: _,
            obs: _,
        } = self;
        mem::vec_cap_heap(entries)
            + entries
                .iter()
                .filter_map(|e| e.index.mem_report())
                .map(|r| r.total_bytes() as usize)
                .sum::<usize>()
    }
}

impl std::fmt::Debug for UpdateEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateEngine")
            .field("nodes", &self.g.node_count())
            .field("edges", &self.g.edge_count())
            .field(
                "indexes",
                &self
                    .entries
                    .iter()
                    .map(|e| e.index.describe())
                    .collect::<Vec<_>>(),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_minimal_1index;
    use crate::index::PropagateOneIndex;
    use crate::{AkIndex, OneIndex, SimpleAkIndex};
    use xsi_graph::GraphBuilder;

    fn host() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "person"), (3, "person"), (4, "auction")])
            .edges(&[(1, 2), (1, 3), (1, 4)])
            .idref_edges(&[(4, 2)])
            .root_to(1)
            .build_with_ids()
    }

    #[test]
    fn engine_maintains_two_index_families_at_once() {
        let (g, ids) = host();
        let one = OneIndex::build(&g);
        let ak = AkIndex::build(&g, 2);
        let mut engine = UpdateEngine::new(g);
        let h1 = engine.register(Box::new(one));
        let h2 = engine.register(Box::new(ak));
        assert_eq!(engine.index_count(), 2);

        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        engine
            .insert_edge(ids[&4], ids[&3], EdgeKind::IdRef)
            .unwrap();
        let n = engine.add_node("bid", None);
        engine.insert_edge(ids[&4], n, EdgeKind::Child).unwrap();
        engine.check().unwrap();

        // Both indexes land exactly on a from-scratch rebuild, and the
        // engine collected aggregate stats across both families.
        assert_eq!(
            engine.index(h1).block_count(),
            OneIndex::build(engine.graph()).block_count()
        );
        assert_eq!(
            engine.index(h2).block_count(),
            AkIndex::build(engine.graph(), 2).block_count()
        );
        assert_eq!(engine.stats().ops, 4);
        assert!(engine.stats().touched_blocks > 0);
    }

    #[test]
    fn engine_equals_sequential_per_index_maintenance() {
        let (g0, ids) = host();
        // Engine path.
        let mut engine = UpdateEngine::new(g0.clone());
        let h_one = engine.register(Box::new(OneIndex::build(&g0)));
        let h_ak = engine.register(Box::new(AkIndex::build(&g0, 2)));
        // Sequential path.
        let mut g = g0.clone();
        let mut one = OneIndex::build(&g);
        let mut ak = AkIndex::build(&g, 2);

        let steps = [(4u64, 3u64, true), (4, 2, false), (1, 2, false)];
        for &(a, b, insert) in &steps {
            if insert {
                engine
                    .insert_edge(ids[&a], ids[&b], EdgeKind::IdRef)
                    .unwrap();
                g.insert_edge(ids[&a], ids[&b], EdgeKind::IdRef).unwrap();
                one.notify_edge_inserted(&g, ids[&a], ids[&b]);
                ak.notify_edge_inserted(&g, ids[&a], ids[&b]);
            } else {
                engine.delete_edge(ids[&a], ids[&b]).unwrap();
                g.delete_edge(ids[&a], ids[&b]).unwrap();
                one.notify_edge_deleted(&g, ids[&a], ids[&b]);
                ak.notify_edge_deleted(&g, ids[&a], ids[&b]);
            }
        }
        engine.check().unwrap();
        assert_eq!(engine.index(h_one).block_count(), one.block_count());
        assert_eq!(engine.index(h_ak).block_count(), ak.block_count());
        assert!(is_minimal_1index(engine.graph(), one.partition()));
    }

    #[test]
    fn node_removal_decomposes_into_edge_deletions() {
        let (g, ids) = host();
        let edges_of_2 = g.in_degree(ids[&2]) + g.out_degree(ids[&2]);
        let mut engine = UpdateEngine::new(g);
        let h = engine.register(Box::new(OneIndex::build(engine.graph())));
        let ops_before = engine.stats().ops;
        engine.remove_node(ids[&2]).unwrap();
        // One op per incident edge + the removal itself.
        assert_eq!(engine.stats().ops - ops_before, edges_of_2 + 1);
        engine.check().unwrap();
        assert!(!engine.graph().is_alive(ids[&2]));
        assert_eq!(
            engine.index(h).block_count(),
            OneIndex::build(engine.graph()).block_count()
        );
    }

    #[test]
    fn policy_rebuild_bounds_baseline_drift() {
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        let h = engine.register_with_policy(Box::new(PropagateOneIndex::build(engine.graph())));
        // Toggle edges until propagate drift would exceed 5 %.
        for _ in 0..6 {
            engine.delete_edge(ids[&4], ids[&2]).unwrap();
            engine
                .insert_edge(ids[&4], ids[&2], EdgeKind::IdRef)
                .unwrap();
        }
        let minimum = engine.index(h).minimum_block_count(engine.graph());
        let size = engine.index(h).block_count();
        assert!(
            (size as f64) <= (minimum as f64) * 1.05 + 1.0,
            "policy failed to bound drift: {size} vs minimum {minimum}"
        );
        engine.check().unwrap();
    }

    #[test]
    fn store_reports_land_in_metrics() {
        use crate::obs::IndexFamily;
        use crate::obs::MetricKey;
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        engine.obs_mut().enable_metrics();
        let _h_one = engine.register(Box::new(OneIndex::build(engine.graph())));
        let _h_sim = engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        engine.publish_store_reports();
        let m = engine.obs().metrics().unwrap();
        // The 1-index (family 0) keeps iedge maps and reports them.
        let one = IndexFamily(0);
        let inline = m
            .gauge_value(&MetricKey::named("store_inline_maps").family(one))
            .expect("1-index publishes a store report");
        assert!(inline > 0.0, "a tiny graph's maps are all inline");
        assert_eq!(
            m.gauge_value(&MetricKey::named("store_spilled_maps").family(one)),
            Some(0.0)
        );
        let probe = m
            .histogram(&MetricKey::named("store_probe_len").family(one))
            .expect("probe-length histogram recorded");
        assert_eq!(probe.count, 1);
        // The simple baseline keeps no iedge maps: no series for family 1.
        let sim = IndexFamily(1);
        assert_eq!(
            m.gauge_value(&MetricKey::named("store_inline_maps").family(sim)),
            None
        );
        // Publishing with the hub inactive is a no-op.
        let mut silent = UpdateEngine::new(host().0);
        silent.register(Box::new(OneIndex::build(silent.graph())));
        silent.publish_store_reports();
        assert!(silent.obs().metrics().is_none());
    }

    #[test]
    fn mem_reports_land_in_metrics() {
        use crate::obs::IndexFamily;
        use crate::obs::MetricKey;
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        engine.obs_mut().enable_metrics();
        engine.register(Box::new(OneIndex::build(engine.graph())));
        engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        engine.publish_mem_reports();
        let m = engine.obs().metrics().unwrap();
        for fam in [IndexFamily(0), IndexFamily(1)] {
            let total = m
                .gauge_value(&MetricKey::named("mem_total_bytes").family(fam))
                .expect("every registered family publishes a mem report");
            assert!(total > 0.0);
            let blocks = m
                .gauge_value(&MetricKey::named("mem_blocks").family(fam))
                .unwrap();
            let minimum = m
                .gauge_value(&MetricKey::named("quality_minimum_blocks").family(fam))
                .unwrap();
            let over = m
                .gauge_value(&MetricKey::named("quality_blocks_over_minimum").family(fam))
                .unwrap();
            assert!(minimum > 0.0);
            assert_eq!(over, (blocks - minimum).max(0.0));
            let hist = m
                .histogram(&MetricKey::named("mem_extent_len").family(fam))
                .expect("extent-length histogram transplanted");
            assert_eq!(hist.count, blocks as u64, "one sample per live block");
        }
        // Only the 1-index keeps iedge maps; its inline-occupancy
        // histogram has one sample per live map (2 maps per block).
        let one = IndexFamily(0);
        let occ = m
            .histogram(&MetricKey::named("mem_iedge_inline_occupancy").family(one))
            .unwrap();
        let inline = m
            .gauge_value(&MetricKey::named("mem_iedge_inline_maps").family(one))
            .unwrap();
        assert_eq!(occ.count, inline as u64);
        assert!(m
            .gauge_value(&MetricKey::named("mem_iedge_inline_occupancy").family(IndexFamily(1)))
            .is_none());
        // Engine-level accounting sums the per-index totals.
        let t0 = m
            .gauge_value(&MetricKey::named("mem_total_bytes").family(IndexFamily(0)))
            .unwrap();
        let t1 = m
            .gauge_value(&MetricKey::named("mem_total_bytes").family(IndexFamily(1)))
            .unwrap();
        assert_eq!(
            engine.heap_use(),
            mem::vec_cap_heap(&engine.entries) + t0 as usize + t1 as usize
        );
        // Publishing with the hub inactive is a no-op.
        let mut silent = UpdateEngine::new(host().0);
        silent.register(Box::new(OneIndex::build(silent.graph())));
        silent.publish_mem_reports();
        assert!(silent.obs().metrics().is_none());
    }

    #[test]
    fn freeze_returns_snapshots_and_lands_in_metrics() {
        use crate::obs::IndexFamily;
        use crate::obs::MetricKey;
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        engine.obs_mut().enable_metrics();
        engine.register(Box::new(OneIndex::build(engine.graph())));
        engine.register(Box::new(AkIndex::build(engine.graph(), 2)));
        let snaps = engine.freeze();
        assert_eq!(snaps.len(), 2);
        for (snap, expected) in snaps.iter().zip(["1-index", "A(2)-index"]) {
            let snap = snap.as_ref().expect("both families freeze");
            assert_eq!(snap.family(), expected);
            assert!(snap.block_count() > 0);
        }
        // The frozen 1-index view answers while the writer churns.
        use crate::index::IndexQueryView;
        let frozen = snaps[0].as_ref().unwrap();
        let root_extent: Vec<NodeId> = frozen.extent(frozen.start_block()).to_vec();
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        assert_eq!(frozen.extent(frozen.start_block()), &root_extent[..]);

        let m = engine.obs().metrics().unwrap();
        for fam in [IndexFamily(0), IndexFamily(1)] {
            assert_eq!(
                m.counter_value(&MetricKey::named("snapshots_total").family(fam)),
                1
            );
            let h = m
                .histogram(&MetricKey::named("snapshot_freeze_nanos").family(fam))
                .expect("freeze timing histogram recorded");
            assert_eq!(h.count, 1);
            assert_eq!(
                m.gauge_value(&MetricKey::named("snapshot_cow_clones").family(fam)),
                Some(0.0),
                "freeze copies no extent runs up front"
            );
            let retained = m
                .gauge_value(&MetricKey::named("snapshot_retained_bytes").family(fam))
                .expect("snapshot retention gauge recorded");
            assert!(retained > 0.0);
        }
        // Freezing with the hub inactive still returns snapshots.
        let mut silent = UpdateEngine::new(host().0);
        silent.register(Box::new(OneIndex::build(silent.graph())));
        let snaps = silent.freeze();
        assert!(snaps[0].is_some());
    }

    #[test]
    fn node_removal_files_one_op_per_incident_edge_and_one_for_itself() {
        use crate::obs::MetricKey;
        let (g, ids) = host();
        let incident = g.in_degree(ids[&2]) + g.out_degree(ids[&2]);
        let mut engine = UpdateEngine::new(g);
        engine.obs_mut().enable_metrics();
        engine.register(Box::new(OneIndex::build(engine.graph())));
        engine.remove_node(ids[&2]).unwrap();
        let m = engine.obs().metrics().unwrap();
        let ops = |op| m.counter_value(&MetricKey::named("ops_total").op(op));
        assert_eq!(ops("delete-edge"), incident as u64);
        assert_eq!(ops("remove-node"), 1);
        assert_eq!(
            ops("delete-edge") + ops("remove-node"),
            engine.stats().ops as u64
        );
        // A rejected removal files nothing.
        assert!(engine.remove_node(ids[&2]).is_err());
        let m = engine.obs().metrics().unwrap();
        assert_eq!(
            m.counter_value(&MetricKey::named("ops_total").op("remove-node")),
            1
        );
    }

    #[test]
    fn policy_rebuilds_land_in_metrics() {
        use crate::obs::MetricKey;
        // Without the host's IDREF the two persons share a block; each
        // insert splits them and propagate never merges them back.
        let (g, ids) = GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "person"), (3, "person"), (4, "auction")])
            .edges(&[(1, 2), (1, 3), (1, 4)])
            .root_to(1)
            .build_with_ids();
        let mut engine = UpdateEngine::new(g);
        engine.obs_mut().enable_metrics();
        let h = engine.register_with_policy(Box::new(PropagateOneIndex::build(engine.graph())));
        for _ in 0..3 {
            engine
                .insert_edge(ids[&4], ids[&2], EdgeKind::IdRef)
                .unwrap();
            engine.delete_edge(ids[&4], ids[&2]).unwrap();
        }
        let rebuilds = engine.stats().rebuilds;
        assert!(rebuilds > 0, "the drift fired the policy");
        let m = engine.obs().metrics().unwrap();
        let fam = |name| MetricKey::named(name).family(IndexFamily(0));
        assert_eq!(m.counter_value(&fam("rebuilds_total")), rebuilds as u64);
        assert_eq!(
            m.histogram(&fam("rebuild_nanos")).unwrap().count,
            rebuilds as u64
        );
        // The last filing of `final_blocks` is the latest rebuild or
        // merge phase, so it tracks the live index.
        assert_eq!(
            m.gauge_value(&fam("final_blocks")),
            Some(engine.index(h).block_count() as f64)
        );
    }

    #[test]
    fn stats_accumulate_across_indexes() {
        let (g, ids) = host();
        let mut engine = UpdateEngine::new(g);
        let h_one = engine.register(Box::new(OneIndex::build(engine.graph())));
        let _h_sim = engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));
        engine.delete_edge(ids[&4], ids[&2]).unwrap();
        engine
            .insert_edge(ids[&4], ids[&3], EdgeKind::IdRef)
            .unwrap();
        assert_eq!(engine.stats().ops, 2);
        assert!(engine.stats().update_time > Duration::ZERO);
        // Per-index stats recorded (the 1-index split on the asymmetric
        // IDREF change).
        assert!(engine.index_stats(h_one).splits + engine.index_stats(h_one).merges > 0);
        assert!(engine.stats().touched_blocks > 0);
    }
}
