//! Batched update application.
//!
//! Applications rarely see one edge at a time — an XML document change
//! arrives as a group of node and edge operations. [`UpdateOp`] describes
//! one operation; [`apply_batch`] applies a group through incremental
//! maintenance in dependency-safe order (node additions first, then edge
//! insertions, then edge deletions, then node removals), validating that
//! the batch is internally consistent before touching anything.
//!
//! Each operation still runs through the split/merge machinery, so the
//! minimality/minimum guarantees hold at every intermediate step; the
//! batch layer adds ordering, atomic pre-validation, and aggregate
//! statistics. (True batching that defers the merge phase across a group
//! is what Figure 6 does for subgraphs — use
//! [`crate::OneIndex::add_subgraph`] for that case.)
//!
//! Since the [`StructuralIndex`] refactor there is exactly **one**
//! application path: [`apply_batch_traced`] drives any set of trait-object
//! indexes over one graph (this is what [`crate::UpdateEngine`] calls),
//! and [`apply_batch`] / [`apply_batch_1index`] / [`apply_batch_ak`] are
//! thin single-index wrappers over it. The per-index-type macro that used
//! to stamp out parallel copies of this logic is gone.

use crate::akindex::AkIndex;
use crate::index::StructuralIndex;
use crate::obs::span::{BatchSegment, IndexFamily, OpKind, SpanGuard, SpanKind};
use crate::obs::MetricsRegistry;
use crate::oneindex::OneIndex;
use crate::stats::UpdateStats;
use std::collections::HashSet;
use std::time::Instant;
use xsi_graph::{EdgeKind, Graph, GraphError, NodeId};

/// One update in a batch. Node handles for `AddNode` results are
/// positional: the i-th `AddNode` of the batch is referred to by
/// [`NodeRef::New`]`(i)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Create a node with this label.
    AddNode { label: String },
    /// Insert a dedge.
    InsertEdge {
        from: NodeRef,
        to: NodeRef,
        kind: EdgeKind,
    },
    /// Delete a dedge (between existing nodes).
    DeleteEdge { from: NodeId, to: NodeId },
    /// Remove a node and all of its remaining edges.
    RemoveNode { node: NodeId },
}

/// A node reference inside a batch: either an existing node or the
/// result of the batch's i-th `AddNode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRef {
    /// An existing node in the graph.
    Existing(NodeId),
    /// The i-th `AddNode` of this batch (0-based).
    New(usize),
}

/// Errors from batch validation and application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// A `NodeRef::New(i)` referred to a non-existent `AddNode`.
    BadNewRef(usize),
    /// A node operation referenced a node that is not alive.
    DeadNode(NodeId),
    /// The underlying graph rejected an operation (duplicate edge, …).
    Graph(GraphError),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::BadNewRef(i) => write!(f, "NodeRef::New({i}) out of range"),
            BatchError::DeadNode(n) => write!(f, "node {n} is not alive"),
            BatchError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<GraphError> for BatchError {
    fn from(e: GraphError) -> Self {
        BatchError::Graph(e)
    }
}

/// The result of a batch: created node ids (in `AddNode` order) and
/// aggregate statistics.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// Host ids of the batch's `AddNode`s, in order.
    pub created: Vec<NodeId>,
    /// Aggregate per-operation statistics (absorbed across every applied
    /// operation and every index).
    pub stats: UpdateStats,
    /// Number of primitive graph mutations applied: one per node added,
    /// edge inserted, edge explicitly deleted, plus — for each node
    /// removal — one per incident edge implicitly deleted and one for the
    /// removal itself.
    pub ops_applied: usize,
}

fn validate(g: &Graph, batch: &[UpdateOp]) -> Result<(), BatchError> {
    let new_count = batch
        .iter()
        .filter(|op| matches!(op, UpdateOp::AddNode { .. }))
        .count();
    let check_ref = |r: &NodeRef| match r {
        NodeRef::New(i) if *i >= new_count => Err(BatchError::BadNewRef(*i)),
        NodeRef::Existing(n) if !g.is_alive(*n) => Err(BatchError::DeadNode(*n)),
        _ => Ok(()),
    };
    let mut removed: HashSet<NodeId> = HashSet::new();
    for op in batch {
        match op {
            UpdateOp::AddNode { .. } => {}
            UpdateOp::InsertEdge { from, to, .. } => {
                check_ref(from)?;
                check_ref(to)?;
            }
            UpdateOp::DeleteEdge { from, to } => {
                if !g.is_alive(*from) {
                    return Err(BatchError::DeadNode(*from));
                }
                if !g.is_alive(*to) {
                    return Err(BatchError::DeadNode(*to));
                }
            }
            UpdateOp::RemoveNode { node } => {
                if !g.is_alive(*node) || !removed.insert(*node) {
                    return Err(BatchError::DeadNode(*node));
                }
                if *node == g.root() {
                    // Reject up front: the graph would refuse the removal
                    // in phase 4, after the node's edges were already
                    // swept — breaking the leave-untouched contract.
                    return Err(BatchError::Graph(GraphError::RootViolation));
                }
            }
        }
    }
    Ok(())
}

/// The single batch-application core: applies a batch to `g` and fans
/// every mutation out to all `indexes`, returning the combined
/// [`BatchResult`] plus the per-index aggregate [`UpdateStats`] (same
/// order as `indexes`).
///
/// Operations are applied in phase order (add-node → insert-edge →
/// delete-edge → remove-node); within a phase, batch order is preserved.
/// A node removal first deletes the node's *remaining* incident edges
/// (incoming first, then outgoing) through the regular edge-deletion
/// fan-out — so a batch may freely mix explicit `DeleteEdge`s on a node's
/// edges with a `RemoveNode` of that node — then notifies
/// [`StructuralIndex::on_node_removing`], then removes the node from the
/// graph.
///
/// The batch is validated up front — a structurally invalid batch leaves
/// graph and indexes untouched. Graph-level failures mid-application
/// (e.g. duplicate edge inserts) abort with the error; operations already
/// applied remain applied, and every index is consistent with the graph
/// at every step.
pub fn apply_batch_traced(
    indexes: &mut [&mut dyn StructuralIndex],
    g: &mut Graph,
    batch: &[UpdateOp],
) -> Result<(BatchResult, Vec<UpdateStats>), BatchError> {
    apply_batch_observed(indexes, &[], g, batch, None)
}

/// One index the edge fan-out drives: the index, its family handle, and
/// the accumulator its per-op stats are absorbed into.
pub(crate) type FanOutTarget<'a> = (
    &'a mut dyn StructuralIndex,
    IndexFamily,
    &'a mut UpdateStats,
);

/// The one edge fan-out, shared by the engine's single-edge path and the
/// batch core: every target index observes the (already applied)
/// mutation `u → v` under one `Op` span, each inside its own
/// `IndexDispatch` span carrying the blocks it touched and its
/// work-queue peak. Each index's stats are absorbed into its accumulator
/// and handed to `on_stats`. With `metrics`, the op and every (timed)
/// dispatch are filed from those stats.
pub(crate) fn fan_out_edge<'a>(
    g: &Graph,
    (u, v): (NodeId, NodeId),
    inserted: bool,
    targets: impl Iterator<Item = FanOutTarget<'a>>,
    mut metrics: Option<&mut MetricsRegistry>,
    mut on_stats: impl FnMut(&UpdateStats),
) {
    let op = if inserted {
        OpKind::InsertEdge
    } else {
        OpKind::DeleteEdge
    };
    if let Some(m) = metrics.as_deref_mut() {
        m.observe_op(op);
    }
    let op_span = SpanGuard::enter(SpanKind::Op);
    for (index, family, acc) in targets {
        let t = metrics.is_some().then(Instant::now);
        let dispatch = SpanGuard::enter_family(SpanKind::IndexDispatch, family);
        let s = if inserted {
            index.on_edge_inserted(g, u, v)
        } else {
            index.on_edge_deleted(g, u, v)
        };
        dispatch.add_blocks(s.splits as u64 + s.merges as u64);
        dispatch.set_queue_depth(s.queue_peak as u64);
        drop(dispatch);
        if let (Some(m), Some(t)) = (metrics.as_deref_mut(), t) {
            m.observe_dispatch(family, op, &s, t.elapsed().as_nanos() as u64);
        }
        acc.absorb(&s);
        on_stats(&s);
    }
    drop(op_span);
}

/// The batch core's running state: the target indexes with their family
/// handles and per-index accumulators, the combined result, and the
/// optional metrics sink.
struct BatchRun<'a, 'b> {
    indexes: &'a mut [&'b mut dyn StructuralIndex],
    families: &'a [IndexFamily],
    metrics: Option<&'a mut MetricsRegistry>,
    per_index: Vec<UpdateStats>,
    result: BatchResult,
}

impl BatchRun<'_, '_> {
    /// Files one primitive op entering the pipeline.
    fn observe_op(&mut self, op: OpKind) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.observe_op(op);
        }
    }

    /// Fans one applied edge mutation out through [`fan_out_edge`].
    fn edge(&mut self, g: &Graph, u: NodeId, v: NodeId, inserted: bool) {
        let BatchRun {
            indexes,
            families,
            metrics,
            per_index,
            result,
        } = self;
        let targets = indexes
            .iter_mut()
            .zip(per_index.iter_mut())
            .enumerate()
            .map(|(i, (index, acc))| -> FanOutTarget<'_> {
                let family = families.get(i).copied().unwrap_or(IndexFamily::NONE);
                (&mut **index, family, acc)
            });
        fan_out_edge(g, (u, v), inserted, targets, metrics.as_deref_mut(), |s| {
            result.stats.absorb(s)
        });
        result.ops_applied += 1;
    }

    /// Closes one phase segment: its span carries the segment's op
    /// count, and a non-empty segment is filed.
    fn end_segment(&mut self, span: SpanGuard, segment: BatchSegment, ops: usize) {
        span.add_elems(ops as u64);
        drop(span);
        if let (Some(m), true) = (self.metrics.as_deref_mut(), ops > 0) {
            m.observe_batch_segment(segment, ops);
        }
    }
}

/// [`apply_batch_traced`] with the engine's observability: the same
/// phase-ordered core, additionally attributing each index's spans to
/// its [`IndexFamily`] handle (`families` in `indexes` order; may be
/// empty) and filing ops, dispatches and batch segments into `metrics`.
pub(crate) fn apply_batch_observed(
    indexes: &mut [&mut dyn StructuralIndex],
    families: &[IndexFamily],
    g: &mut Graph,
    batch: &[UpdateOp],
    metrics: Option<&mut MetricsRegistry>,
) -> Result<(BatchResult, Vec<UpdateStats>), BatchError> {
    validate(g, batch)?;
    debug_assert!(families.is_empty() || families.len() == indexes.len());
    // Accumulators fold from the absorb identity (`no_op: true`), so a
    // batch of pure no-ops reports `no_op = true` — the satellite-1 fix.
    let mut run = BatchRun {
        per_index: vec![UpdateStats::identity(); indexes.len()],
        indexes,
        families,
        metrics,
        result: BatchResult {
            stats: UpdateStats::identity(),
            ..BatchResult::default()
        },
    };

    // Phase 1: node additions.
    let seg_span = SpanGuard::enter(SpanKind::BatchSegment);
    let mut seg_ops = 0usize;
    for op in batch {
        if let UpdateOp::AddNode { label } = op {
            run.observe_op(OpKind::AddNode);
            let n = g.add_node(label, None);
            for idx in run.indexes.iter_mut() {
                idx.on_node_added(g, n);
            }
            run.result.created.push(n);
            run.result.ops_applied += 1;
            seg_ops += 1;
        }
    }
    run.end_segment(seg_span, BatchSegment::AddNodes, seg_ops);
    let resolve = |r: &NodeRef, created: &[NodeId]| match r {
        NodeRef::Existing(n) => *n,
        NodeRef::New(i) => created[*i],
    };
    // Phase 2: edge insertions.
    let seg_span = SpanGuard::enter(SpanKind::BatchSegment);
    let mut seg_ops = 0usize;
    for op in batch {
        if let UpdateOp::InsertEdge { from, to, kind } = op {
            let created = &run.result.created;
            let (u, v) = (resolve(from, created), resolve(to, created));
            g.insert_edge(u, v, *kind)?;
            run.edge(g, u, v, true);
            seg_ops += 1;
        }
    }
    run.end_segment(seg_span, BatchSegment::InsertEdges, seg_ops);
    // Phase 3: edge deletions.
    let seg_span = SpanGuard::enter(SpanKind::BatchSegment);
    let mut seg_ops = 0usize;
    for op in batch {
        if let UpdateOp::DeleteEdge { from, to } = op {
            g.delete_edge(*from, *to)?;
            run.edge(g, *from, *to, false);
            seg_ops += 1;
        }
    }
    run.end_segment(seg_span, BatchSegment::DeleteEdges, seg_ops);
    // Phase 4: node removals (after explicit edge deletions, so edges
    // already deleted in phase 3 are not double-processed; any edges the
    // node still has are deleted here through the same fan-out).
    let seg_span = SpanGuard::enter(SpanKind::BatchSegment);
    let mut seg_ops = 0usize;
    for op in batch {
        if let UpdateOp::RemoveNode { node } = op {
            run.observe_op(OpKind::RemoveNode);
            let parents: Vec<NodeId> = g.pred(*node).collect();
            for p in parents {
                g.delete_edge(p, *node)?;
                run.edge(g, p, *node, false);
                seg_ops += 1;
            }
            let children: Vec<NodeId> = g.succ(*node).collect();
            for c in children {
                g.delete_edge(*node, c)?;
                run.edge(g, *node, c, false);
                seg_ops += 1;
            }
            for idx in run.indexes.iter_mut() {
                idx.on_node_removing(g, *node);
            }
            g.remove_node(*node)?;
            run.result.ops_applied += 1;
            seg_ops += 1;
        }
    }
    run.end_segment(seg_span, BatchSegment::RemoveNodes, seg_ops);
    Ok((run.result, run.per_index))
}

/// Applies a batch of updates through any [`StructuralIndex`]'s
/// incremental maintenance. See [`apply_batch_traced`] for ordering and
/// failure semantics.
pub fn apply_batch(
    idx: &mut dyn StructuralIndex,
    g: &mut Graph,
    batch: &[UpdateOp],
) -> Result<BatchResult, BatchError> {
    let mut views: [&mut dyn StructuralIndex; 1] = [idx];
    apply_batch_traced(&mut views, g, batch).map(|(result, _)| result)
}

/// Applies a batch of updates through 1-index split/merge maintenance.
/// (Thin wrapper over [`apply_batch`], kept for source compatibility.)
pub fn apply_batch_1index(
    idx: &mut OneIndex,
    g: &mut Graph,
    batch: &[UpdateOp],
) -> Result<BatchResult, BatchError> {
    apply_batch(idx, g, batch)
}

/// Applies a batch of updates through A(k) split/merge maintenance.
/// (Thin wrapper over [`apply_batch`], kept for source compatibility.)
pub fn apply_batch_ak(
    idx: &mut AkIndex,
    g: &mut Graph,
    batch: &[UpdateOp],
) -> Result<BatchResult, BatchError> {
    apply_batch(idx, g, batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_minimal_1index;
    use xsi_graph::GraphBuilder;

    fn host() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        GraphBuilder::new()
            .nodes(&[(1, "site"), (2, "person"), (3, "auction")])
            .edges(&[(1, 2), (1, 3)])
            .root_to(1)
            .build_with_ids()
    }

    #[test]
    fn batch_with_new_nodes_and_edges() {
        let (mut g, ids) = host();
        let mut idx = OneIndex::build(&g);
        let batch = vec![
            UpdateOp::AddNode {
                label: "person".into(),
            },
            UpdateOp::AddNode {
                label: "watch".into(),
            },
            UpdateOp::InsertEdge {
                from: NodeRef::Existing(ids[&1]),
                to: NodeRef::New(0),
                kind: EdgeKind::Child,
            },
            UpdateOp::InsertEdge {
                from: NodeRef::New(0),
                to: NodeRef::New(1),
                kind: EdgeKind::Child,
            },
            UpdateOp::InsertEdge {
                from: NodeRef::New(1),
                to: NodeRef::Existing(ids[&3]),
                kind: EdgeKind::IdRef,
            },
        ];
        let result = apply_batch_1index(&mut idx, &mut g, &batch).unwrap();
        assert_eq!(result.created.len(), 2);
        assert_eq!(result.ops_applied, 5);
        idx.partition().check_consistency(&g).unwrap();
        assert!(is_minimal_1index(&g, idx.partition()));
        assert_eq!(idx.block_count(), OneIndex::build(&g).block_count());
    }

    #[test]
    fn batch_round_trip_removal() {
        let (mut g, ids) = host();
        let mut idx = OneIndex::build(&g);
        let before = idx.canonical();
        let add = vec![
            UpdateOp::AddNode {
                label: "note".into(),
            },
            UpdateOp::InsertEdge {
                from: NodeRef::Existing(ids[&2]),
                to: NodeRef::New(0),
                kind: EdgeKind::Child,
            },
        ];
        let result = apply_batch_1index(&mut idx, &mut g, &add).unwrap();
        let remove = vec![UpdateOp::RemoveNode {
            node: result.created[0],
        }];
        let rr = apply_batch_1index(&mut idx, &mut g, &remove).unwrap();
        // One implicit edge deletion + the node removal itself.
        assert_eq!(rr.ops_applied, 2);
        assert_eq!(idx.canonical(), before);
    }

    #[test]
    fn invalid_batch_leaves_state_untouched() {
        let (mut g, _) = host();
        let mut idx = OneIndex::build(&g);
        let before = idx.canonical();
        let nodes_before = g.node_count();
        let bad = vec![
            UpdateOp::AddNode { label: "x".into() },
            UpdateOp::InsertEdge {
                from: NodeRef::New(0),
                to: NodeRef::New(7), // out of range
                kind: EdgeKind::Child,
            },
        ];
        assert_eq!(
            apply_batch_1index(&mut idx, &mut g, &bad).unwrap_err(),
            BatchError::BadNewRef(7)
        );
        assert_eq!(g.node_count(), nodes_before);
        assert_eq!(idx.canonical(), before);
    }

    #[test]
    fn ak_batch_maintains_minimum_chain() {
        let (mut g, ids) = host();
        let mut idx = AkIndex::build(&g, 2);
        let batch = vec![
            UpdateOp::AddNode {
                label: "person".into(),
            },
            UpdateOp::InsertEdge {
                from: NodeRef::Existing(ids[&1]),
                to: NodeRef::New(0),
                kind: EdgeKind::Child,
            },
            UpdateOp::DeleteEdge {
                from: ids[&1],
                to: ids[&2],
            },
        ];
        apply_batch_ak(&mut idx, &mut g, &batch).unwrap();
        idx.check_consistency(&g).unwrap();
        assert_eq!(idx.canonical(), AkIndex::build(&g, 2).canonical());
    }

    #[test]
    fn duplicate_remove_rejected() {
        let (mut g, ids) = host();
        let mut idx = OneIndex::build(&g);
        let bad = vec![
            UpdateOp::RemoveNode { node: ids[&2] },
            UpdateOp::RemoveNode { node: ids[&2] },
        ];
        assert_eq!(
            apply_batch_1index(&mut idx, &mut g, &bad).unwrap_err(),
            BatchError::DeadNode(ids[&2])
        );
    }

    /// Regression (satellite 6): a batch that removes a node *and*
    /// explicitly deletes that node's edges must apply the explicit
    /// deletions first (phase 3), then remove the node without
    /// double-deleting — previously a risk because `RemoveNode` eagerly
    /// swept all incident edges.
    #[test]
    fn remove_node_after_explicit_edge_deletions_in_same_batch() {
        let (mut g, ids) = host();
        // Give node 2 a second incident edge so the removal still has
        // work to do after the explicit deletion.
        let extra = g.add_node("watch", None);
        g.insert_edge(ids[&2], extra, EdgeKind::Child).unwrap();
        let mut idx = OneIndex::build(&g);
        let batch = vec![
            UpdateOp::DeleteEdge {
                from: ids[&1],
                to: ids[&2],
            },
            UpdateOp::RemoveNode { node: ids[&2] },
        ];
        let result = apply_batch_1index(&mut idx, &mut g, &batch).unwrap();
        // Explicit deletion (1) + implicit deletion of (2, extra) (1) +
        // node removal (1).
        assert_eq!(result.ops_applied, 3);
        assert!(!g.is_alive(ids[&2]));
        idx.partition().check_consistency(&g).unwrap();
        assert!(is_minimal_1index(&g, idx.partition()));
        assert_eq!(idx.canonical(), OneIndex::build(&g).canonical());
    }

    /// The engine's single-edge path and its batch path share one
    /// fan-out: the same edge insertion files identical dispatch series
    /// and the same span shape under its `Op` span either way.
    #[test]
    fn engine_and_batch_paths_share_the_edge_fan_out() {
        use crate::obs::{span, MetricKey};
        use crate::UpdateEngine;
        let run = |batched: bool| {
            let (g, ids) = host();
            let mut engine = UpdateEngine::new(g);
            engine.obs_mut().enable_metrics();
            engine.register(Box::new(OneIndex::build(engine.graph())));
            engine.register(Box::new(AkIndex::build(engine.graph(), 2)));
            span::begin_collection();
            if batched {
                let op = UpdateOp::InsertEdge {
                    from: NodeRef::Existing(ids[&3]),
                    to: NodeRef::Existing(ids[&2]),
                    kind: EdgeKind::IdRef,
                };
                engine.apply(&op).unwrap();
            } else {
                engine
                    .insert_edge(ids[&3], ids[&2], EdgeKind::IdRef)
                    .unwrap();
            }
            let tree = span::end_collection();
            let op = tree
                .spans
                .iter()
                .find(|s| s.kind == SpanKind::Op)
                .expect("the fan-out opens an Op span");
            let dispatches: Vec<_> = tree
                .children_of(op.id)
                .map(|s| (s.kind, s.family, s.counters))
                .collect();
            let m = engine.obs().metrics().expect("metrics enabled above");
            let mut series = vec![format!(
                "{:?}",
                m.counter_value(&MetricKey::named("ops_total").op("insert-edge"))
            )];
            for fam in [IndexFamily(0), IndexFamily(1)] {
                for name in ["splits_total", "merges_total", "no_ops_total"] {
                    let key = MetricKey::named(name).family(fam).op("insert-edge");
                    series.push(format!("{name} {:?}", m.counter_value(&key)));
                }
                for name in ["intermediate_blocks", "queue_peak"] {
                    let key = MetricKey::named(name).family(fam).phase("split");
                    series.push(format!("{name} {:?}", m.histogram(&key)));
                }
            }
            (dispatches, series)
        };
        let (direct_spans, direct_metrics) = run(false);
        let (batch_spans, batch_metrics) = run(true);
        assert_eq!(direct_spans.len(), 2, "one dispatch per index");
        assert_eq!(direct_spans, batch_spans);
        assert_eq!(direct_metrics, batch_metrics);
    }

    /// The traced core drives several indexes over one graph in lockstep
    /// and reports per-index stats in registration order.
    #[test]
    fn traced_core_fans_out_to_multiple_indexes() {
        let (mut g, ids) = host();
        let mut one = OneIndex::build(&g);
        let mut ak = AkIndex::build(&g, 2);
        let batch = vec![
            UpdateOp::AddNode {
                label: "person".into(),
            },
            UpdateOp::InsertEdge {
                from: NodeRef::Existing(ids[&1]),
                to: NodeRef::New(0),
                kind: EdgeKind::Child,
            },
            UpdateOp::InsertEdge {
                from: NodeRef::New(0),
                to: NodeRef::Existing(ids[&3]),
                kind: EdgeKind::IdRef,
            },
        ];
        let per_index = {
            let mut views: [&mut dyn StructuralIndex; 2] = [&mut one, &mut ak];
            let (_, per_index) = apply_batch_traced(&mut views, &mut g, &batch).unwrap();
            per_index
        };
        assert_eq!(per_index.len(), 2);
        assert_eq!(one.canonical(), OneIndex::build(&g).canonical());
        assert_eq!(ak.canonical(), AkIndex::build(&g, 2).canonical());
    }
}
