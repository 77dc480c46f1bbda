//! The *simple* A(k)-index update algorithm the paper compares against in
//! Section 7.2 — "obtained by fixing a minor mistake in the one mentioned
//! at the end of [Qun et al., SIGMOD'03]":
//!
//! after a dedge `(u, v)` is inserted or deleted, BFS from `v` to depth
//! `k−1` to find the potentially affected dnodes, and re-partition every
//! inode containing one of them according to true k-bisimilarity, computed
//! from the data graph by definition. Affected inodes are only ever
//! *refined* — the algorithm has no merge step and never coalesces nodes
//! across inodes — so the index size grows monotonically between
//! reconstructions, which is exactly the blow-up Figure 13 plots.
//!
//! Note on cost: the paper observes the recomputation is exponential in
//! `k` when done naively. By default we memoize signatures per update
//! (same scan structure, polynomial constants) so the experiment harness
//! finishes in reasonable time; [`SimpleAkIndex::with_memoization`] turns
//! the memo off to reproduce the paper's exponential-in-k cost exactly
//! (see EXPERIMENTS.md). Quality behaviour is identical either way.

use crate::stats::UpdateStats;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use xsi_graph::{bfs_descendants, EdgeKind, Graph, GraphError, NodeId};

/// A stand-alone A(k)-index (level-k partition only) maintained by the
/// simple BFS-repartition algorithm. Quality must be measured externally
/// against a freshly built [`super::AkIndex`].
#[derive(Clone, Debug)]
pub struct SimpleAkIndex {
    k: usize,
    /// dnode → block id (dense per index instance, never reused).
    node_block: Vec<u32>,
    /// block id → extent. Whole extents are rewritten on repartition, so
    /// no per-node position table is needed. Fixed-key hashing: the
    /// table's `capacity()` depends on where removals leave tombstones,
    /// and it feeds the mem report, which must be replay-stable.
    members: HashMap<u32, Vec<NodeId>, BuildHasherDefault<DefaultHasher>>,
    next_block: u32,
    /// Whether signature computation memoizes per (node, level) — `false`
    /// reproduces the paper's exponential-in-k baseline cost.
    memoize: bool,
}

const UNASSIGNED: u32 = u32::MAX;

impl SimpleAkIndex {
    /// Builds the minimum A(k)-index partition from scratch (also used as
    /// the baseline's periodic "reconstruction"). Internally reuses the
    /// production O(km) construction and keeps only the level-k partition.
    pub fn build(g: &Graph, k: usize) -> Self {
        let exact = crate::akindex::AkIndex::build(g, k);
        let classes = exact.assignment(g, k);
        let mut idx = SimpleAkIndex {
            k,
            node_block: vec![UNASSIGNED; g.capacity()],
            members: HashMap::default(),
            next_block: 0,
            memoize: true,
        };
        let mut remap: HashMap<u32, u32> = HashMap::new();
        for n in g.nodes() {
            let c = classes[n.index()];
            let b = match remap.get(&c) {
                Some(&b) => b,
                None => {
                    let b = idx.next_block;
                    idx.next_block += 1;
                    remap.insert(c, b);
                    b
                }
            };
            idx.node_block[n.index()] = b;
            idx.members.entry(b).or_default().push(n);
        }
        idx
    }

    /// The `k` of this index.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Switches per-update signature memoization on or off (builder
    /// style). Off reproduces the paper's exponential-in-k update cost;
    /// results are identical either way.
    pub fn with_memoization(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Whether per-update signature memoization is enabled.
    pub fn memoize(&self) -> bool {
        self.memoize
    }

    /// Number of inodes.
    pub fn block_count(&self) -> usize {
        self.members.len()
    }

    /// The block id of a node.
    pub fn block_of(&self, n: NodeId) -> u32 {
        self.node_block[n.index()]
    }

    /// Inserts a dedge and repairs the index with the simple algorithm.
    pub fn insert_edge(
        &mut self,
        g: &mut Graph,
        u: NodeId,
        v: NodeId,
        kind: EdgeKind,
    ) -> Result<(), GraphError> {
        g.insert_edge(u, v, kind)?;
        self.repartition_affected(g, v);
        Ok(())
    }

    /// Deletes a dedge and repairs the index with the simple algorithm.
    pub fn delete_edge(
        &mut self,
        g: &mut Graph,
        u: NodeId,
        v: NodeId,
    ) -> Result<EdgeKind, GraphError> {
        let kind = g.delete_edge(u, v)?;
        self.repartition_affected(g, v);
        Ok(kind)
    }

    /// Maintenance hook for an edge insertion already applied to `g` by
    /// the caller — for running several indexes over one graph (the
    /// [`crate::StructuralIndex`] fan-out convention). Equivalent to
    /// [`SimpleAkIndex::insert_edge`] minus the graph mutation.
    pub fn notify_edge_inserted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        debug_assert!(g.has_edge(u, v), "notify before mutating the graph");
        let _ = u;
        self.repair(g, v)
    }

    /// Maintenance hook for an edge deletion already applied to `g` by
    /// the caller; see [`SimpleAkIndex::notify_edge_inserted`].
    pub fn notify_edge_deleted(&mut self, g: &Graph, u: NodeId, v: NodeId) -> UpdateStats {
        debug_assert!(!g.has_edge(u, v), "notify after mutating the graph");
        let _ = u;
        self.repair(g, v)
    }

    /// Registers a freshly added node (no edges yet): a parentless node's
    /// k-bisim class is determined by its label alone, so it joins an
    /// existing block of parentless label-twins if one exists, else gets
    /// a fresh singleton block. (Refinement-safety is preserved either
    /// way; joining twins keeps the index from fragmenting on add-heavy
    /// workloads exactly like a reconstruction would.)
    ///
    /// When several candidate twin blocks exist (the split-only algorithm
    /// never re-merges them) the one with the smallest id is chosen, so
    /// two instances fed the same update stream stay bit-identical —
    /// `HashMap` iteration order must not leak into index state (the
    /// conformance lab's deterministic replay depends on this).
    pub fn on_node_added(&mut self, g: &Graph, n: NodeId) {
        if self.node_block.len() < g.capacity() {
            self.node_block.resize(g.capacity(), UNASSIGNED);
        }
        debug_assert_eq!(g.in_degree(n) + g.out_degree(n), 0);
        let label = g.label(n);
        let twin = self
            .members
            .iter()
            .filter_map(|(&b, extent)| {
                let &rep = extent.first()?;
                (g.label(rep) == label && extent.iter().all(|&m| g.in_degree(m) == 0)).then_some(b)
            })
            .min();
        let b = twin.unwrap_or_else(|| {
            let b = self.next_block;
            self.next_block += 1;
            b
        });
        self.node_block[n.index()] = b;
        self.members.entry(b).or_default().push(n);
    }

    /// Unregisters a node about to be removed (all of its edges must have
    /// been deleted already). Call *before* `Graph::remove_node`.
    pub fn on_node_removing(&mut self, g: &Graph, n: NodeId) {
        debug_assert_eq!(g.in_degree(n) + g.out_degree(n), 0);
        let b = self.node_block[n.index()];
        self.node_block[n.index()] = UNASSIGNED;
        if let Some(extent) = self.members.get_mut(&b) {
            extent.retain(|&m| m != n);
            if extent.is_empty() {
                self.members.remove(&b);
            }
        }
    }

    /// Runs the repartition repair and reports what it did in the common
    /// [`UpdateStats`] currency (the simple algorithm only ever splits).
    fn repair(&mut self, g: &Graph, v: NodeId) -> UpdateStats {
        let before = self.block_count();
        self.repartition_affected(g, v);
        let after = self.block_count();
        UpdateStats {
            splits: after - before,
            merges: 0,
            intermediate_blocks: after,
            final_blocks: after,
            no_op: after == before,
            ..UpdateStats::default()
        }
    }

    /// Internal consistency check: the recorded partition covers exactly
    /// the live nodes, block ids agree between the two tables, and no
    /// extent is empty.
    pub fn check_consistency(&self, g: &Graph) -> Result<(), String> {
        let mut seen = 0usize;
        // xsi-lint: allow(hash-iter, consistency check: every block is verified, pass/fail is order-free)
        for (&b, extent) in &self.members {
            if extent.is_empty() {
                return Err(format!("block {b} has an empty extent"));
            }
            for &n in extent {
                if !g.is_alive(n) {
                    return Err(format!("block {b} contains dead node {n}"));
                }
                if self.node_block[n.index()] != b {
                    return Err(format!(
                        "node {n}: node_block says {}, members say {b}",
                        self.node_block[n.index()]
                    ));
                }
                seen += 1;
            }
        }
        if seen != g.node_count() {
            return Err(format!(
                "partition covers {seen} nodes, graph has {}",
                g.node_count()
            ));
        }
        Ok(())
    }

    /// BFS from `v` to depth k−1, then re-partition each inode containing
    /// an affected node by true k-bisimilarity. Refinement only: each
    /// affected inode keeps its id for the largest resulting group and
    /// spawns fresh ids for the others.
    ///
    /// Touched blocks are processed in ascending id order and group-size
    /// ties broken by smallest member, so fresh-id allocation — and with
    /// it the whole index state — is a pure function of the update
    /// stream, never of `HashMap`/`HashSet` iteration order. Determinism
    /// here is what makes conformance-lab reproducers replay exactly.
    fn repartition_affected(&mut self, g: &Graph, v: NodeId) {
        if self.node_block.len() < g.capacity() {
            self.node_block.resize(g.capacity(), UNASSIGNED);
        }
        let affected = bfs_descendants(g, v, self.k.saturating_sub(1));
        let mut touched: Vec<u32> = affected
            .iter()
            .map(|w| self.node_block[w.index()])
            .collect();
        touched.sort_unstable();
        touched.dedup();
        // Re-partition each touched inode by k-bisim signature.
        let mut memo = SignatureMemo::new(g.capacity(), self.k, self.memoize);
        for block in touched {
            let extent = self
                .members
                .get(&block)
                .expect("invariant: touched ids came from the members table");
            if extent.len() == 1 {
                continue;
            }
            let mut groups: HashMap<u32, Vec<NodeId>> = HashMap::new();
            for &m in extent {
                groups
                    .entry(memo.signature(g, m, self.k))
                    .or_default()
                    .push(m);
            }
            if groups.len() <= 1 {
                continue;
            }
            // Largest group keeps the old id; the rest get fresh ids in
            // deterministic (size, then smallest-member) order.
            let mut groups: Vec<Vec<NodeId>> = groups.into_values().collect();
            groups.sort_by_key(|grp| (std::cmp::Reverse(grp.len()), grp.iter().min().copied()));
            // xsi-lint: allow(hash-iter, `groups` was re-bound to the Vec sorted on the line above; drain order is deterministic)
            for grp in groups.drain(1..) {
                let fresh = self.next_block;
                self.next_block += 1;
                for &m in &grp {
                    self.node_block[m.index()] = fresh;
                }
                self.members.insert(fresh, grp);
            }
            self.members.insert(
                block,
                groups
                    .pop()
                    .expect("checked: groups.len() > 1 on this branch"),
            );
        }
    }

    /// Deep heap bytes (capacity-based); the decomposed view is
    /// [`SimpleAkIndex::mem_report`]. The per-update [`SignatureMemo`]
    /// is transient and deliberately uncounted (DESIGN.md §13).
    pub fn heap_use(&self) -> usize {
        use crate::obs::mem::{hash_map_heap, vec_cap_heap};
        let Self {
            k: _,
            node_block,
            members,
            next_block: _,
            memoize: _,
        } = self;
        vec_cap_heap(node_block)
            + hash_map_heap::<u32, Vec<NodeId>>(members.capacity())
            + members.values().map(vec_cap_heap).sum::<usize>()
    }

    /// Deep-memory attribution for the baseline: every extent is a plain
    /// owned `Vec` (this index never freezes shared runs), the hash-map
    /// shell goes to `other_bytes`, and the node→block table is the one
    /// side table. [`MemReport::total_bytes`] equals
    /// [`SimpleAkIndex::heap_use`] exactly.
    pub fn mem_report(&self) -> crate::obs::mem::MemReport {
        use crate::obs::mem::{hash_map_heap, vec_cap_heap, MemReport};
        let mut r = MemReport::default();
        let mut ids: Vec<u32> = self.members.keys().copied().collect();
        ids.sort_unstable();
        for b in ids {
            let extent = &self.members[&b];
            r.blocks += 1;
            r.record_extent(extent.len(), vec_cap_heap(extent), false);
        }
        r.side_table_bytes = vec_cap_heap(&self.node_block) as u64;
        r.other_bytes = hash_map_heap::<u32, Vec<NodeId>>(self.members.capacity()) as u64;
        r
    }

    /// The partition in canonical form (for validity checks in tests).
    pub fn canonical(&self, _g: &Graph) -> Vec<Vec<NodeId>> {
        let mut out: Vec<Vec<NodeId>> = self.members.values().cloned().collect();
        for e in &mut out {
            e.sort_unstable();
        }
        out.sort();
        out
    }

    /// The partition as a class assignment (for the A(k) chain checker;
    /// levels below k are not maintained by this baseline).
    pub fn assignment(&self, g: &Graph) -> Vec<u32> {
        let mut out = vec![u32::MAX; g.capacity()];
        for n in g.nodes() {
            out[n.index()] = self.node_block[n.index()];
        }
        out
    }
}

/// Per-update memoized k-bisimulation signatures computed from the data
/// graph by definition: `sig₀(w) = label(w)`,
/// `sigᵢ(w) = ⟨sigᵢ₋₁(w), {sigᵢ₋₁(p) : p ∈ Pred(w)}⟩`, hash-consed per
/// level so equal signatures get equal dense ids.
struct SignatureMemo {
    /// memo[level][node] = dense signature id + 1 (0 = unset).
    memo: Vec<Vec<u32>>,
    /// Hash-consing tables, one per level ≥ 1 (always shared, so equal
    /// signatures always compare equal even with the memo off).
    interned: Vec<HashMap<(u32, Vec<u32>), u32>>,
    memoize: bool,
}

impl SignatureMemo {
    fn new(capacity: usize, k: usize, memoize: bool) -> Self {
        SignatureMemo {
            memo: vec![vec![0; capacity]; k + 1],
            interned: vec![HashMap::new(); k + 1],
            memoize,
        }
    }

    fn signature(&mut self, g: &Graph, w: NodeId, level: usize) -> u32 {
        let cached = self.memo[level][w.index()];
        if cached != 0 {
            return cached - 1;
        }
        let sig = if level == 0 {
            g.label(w).index() as u32
        } else {
            let own = self.signature(g, w, level - 1);
            let mut parents: Vec<u32> =
                g.pred(w).map(|p| self.signature(g, p, level - 1)).collect();
            parents.sort_unstable();
            parents.dedup();
            let table = &mut self.interned[level];
            let next = table.len() as u32;
            *table.entry((own, parents)).or_insert(next)
        };
        if self.memoize {
            self.memo[level][w.index()] = sig + 1;
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::akindex::AkIndex;
    use crate::reference;
    use xsi_graph::GraphBuilder;

    fn graph() -> (Graph, std::collections::BTreeMap<u64, NodeId>) {
        GraphBuilder::new()
            .nodes(&[(1, "A"), (2, "B"), (3, "C"), (4, "B"), (5, "C"), (6, "C")])
            .edges(&[(1, 2), (2, 3), (4, 5), (1, 6)])
            .root_to(1)
            .root_to(4)
            .build_with_ids()
    }

    #[test]
    fn build_matches_minimum() {
        let (g, _) = graph();
        for k in 0..=3 {
            let simple = SimpleAkIndex::build(&g, k);
            let exact = AkIndex::build(&g, k);
            assert_eq!(simple.block_count(), exact.block_count(), "k={k}");
            assert_eq!(simple.canonical(&g), exact.canonical());
        }
    }

    #[test]
    fn updates_stay_safe_but_grow() {
        // Random-ish toggles: the simple index must always be a
        // *refinement* of the true minimum (safe for queries), and its
        // size must never be smaller.
        let (mut g, ids) = graph();
        let mut simple = SimpleAkIndex::build(&g, 2);
        let pairs = [(3u64, 4u64), (5, 1), (6, 4), (3, 4), (5, 1)];
        for &(a, b) in &pairs {
            if g.has_edge(ids[&a], ids[&b]) {
                simple.delete_edge(&mut g, ids[&a], ids[&b]).unwrap();
            } else {
                simple
                    .insert_edge(&mut g, ids[&a], ids[&b], EdgeKind::IdRef)
                    .unwrap();
            }
            let exact = AkIndex::build(&g, 2);
            assert!(simple.block_count() >= exact.block_count());
            // Refinement: same simple-block ⇒ same exact-block.
            let sa = simple.assignment(&g);
            let ea = exact.assignment(&g, 2);
            let mut map: HashMap<u32, u32> = HashMap::new();
            for n in g.nodes() {
                let e = map.entry(sa[n.index()]).or_insert(ea[n.index()]);
                assert_eq!(*e, ea[n.index()], "simple index not a refinement");
            }
        }
    }

    #[test]
    fn signature_memo_consistent_with_reference() {
        let (g, _) = graph();
        for k in 0..=3 {
            let mut memo = SignatureMemo::new(g.capacity(), k, true);
            let chain = reference::k_bisim_chain(&g, k);
            // Equal reference classes ⇔ equal signatures.
            let mut sig_of_class: HashMap<u32, u32> = HashMap::new();
            let mut class_of_sig: HashMap<u32, u32> = HashMap::new();
            for n in g.nodes() {
                let s = memo.signature(&g, n, k);
                let c = chain[k][n.index()];
                assert_eq!(*sig_of_class.entry(c).or_insert(s), s);
                assert_eq!(*class_of_sig.entry(s).or_insert(c), c);
            }
        }
    }

    #[test]
    fn memoization_does_not_change_results() {
        let (mut g1, ids) = graph();
        let mut g2 = g1.clone();
        let mut memo = SimpleAkIndex::build(&g1, 3);
        let mut exact = SimpleAkIndex::build(&g2, 3).with_memoization(false);
        for &(a, b) in &[(3u64, 4u64), (5, 1), (6, 4)] {
            memo.insert_edge(&mut g1, ids[&a], ids[&b], EdgeKind::IdRef)
                .unwrap();
            exact
                .insert_edge(&mut g2, ids[&a], ids[&b], EdgeKind::IdRef)
                .unwrap();
            assert_eq!(memo.canonical(&g1), exact.canonical(&g2));
        }
    }

    #[test]
    fn rebuild_restores_minimum() {
        let (mut g, ids) = graph();
        let mut simple = SimpleAkIndex::build(&g, 2);
        simple
            .insert_edge(&mut g, ids[&3], ids[&4], EdgeKind::IdRef)
            .unwrap();
        simple
            .insert_edge(&mut g, ids[&5], ids[&1], EdgeKind::IdRef)
            .unwrap();
        let rebuilt = SimpleAkIndex::build(&g, 2);
        let exact = AkIndex::build(&g, 2);
        assert_eq!(rebuilt.block_count(), exact.block_count());
        assert!(simple.block_count() >= rebuilt.block_count());
    }
}
