//! Shape-regression tests: hand-built graph families that stress
//! distinct code paths of the split and merge phases, each verified
//! against the oracle after every update.
//!
//! The property suites explore random graphs; these pin down named
//! structures — stars, bipartite layers, deep chains, diamond lattices,
//! cycle chains — where specific behaviours (huge sibling fan-out,
//! cascading splits to depth n, simultaneous multi-block merges,
//! self-iedge blocks) must hold.
//!
//! The construction tests at the end build the 1-index of deep shapes
//! from scratch, check it against the reference bisimulation, and bound
//! the Paige–Tarjan solver's work by doubling sweeps over its
//! `KernelScan` counters.

use xsi_core::check::{is_minimal_1index, minimality_violation};
use xsi_core::obs::span::{self, SpanKind};
use xsi_core::{apply_batch_traced, reference, AkIndex, NodeRef, OneIndex, UpdateOp};
use xsi_graph::{DetachedSubgraph, EdgeKind, Graph, NodeId};

fn assert_one_index_minimum(g: &Graph, idx: &OneIndex) {
    idx.partition().check_consistency(g).unwrap();
    assert!(
        is_minimal_1index(g, idx.partition()),
        "{:?}",
        minimality_violation(g, idx.partition())
    );
    let classes = reference::bisim_classes(g);
    assert_eq!(idx.canonical(), reference::canonical_partition(g, &classes));
}

fn assert_ak_minimum(g: &Graph, idx: &AkIndex) {
    idx.check_consistency(g).unwrap();
    let oracle = reference::k_bisim_chain(g, idx.k());
    let chain = idx.chain_assignments(g);
    for level in 0..=idx.k() {
        assert_eq!(
            reference::canonical_partition(g, &chain[level]),
            reference::canonical_partition(g, &oracle[level]),
            "level {level}"
        );
    }
}

/// Star: one hub with 200 leaves in one inode. Toggling extra edges into
/// single leaves exercises the split-out-of-a-huge-block path and the
/// sibling search across a large merge-candidate set.
#[test]
fn star_split_and_remerge() {
    let mut g = Graph::new();
    let hub = g.add_node("hub", None);
    g.insert_edge(g.root(), hub, EdgeKind::Child).unwrap();
    let witness = g.add_node("w", None);
    g.insert_edge(g.root(), witness, EdgeKind::Child).unwrap();
    let leaves: Vec<NodeId> = (0..200)
        .map(|_| {
            let l = g.add_node("leaf", None);
            g.insert_edge(hub, l, EdgeKind::Child).unwrap();
            l
        })
        .collect();
    let mut idx = OneIndex::build(&g);
    assert_eq!(idx.block_count(), 4); // ROOT, hub, w, {leaves}
                                      // Single out three leaves, one at a time.
    for &l in &leaves[..3] {
        idx.insert_edge(&mut g, witness, l, EdgeKind::IdRef)
            .unwrap();
        assert_one_index_minimum(&g, &idx);
    }
    // The three singled-out leaves share one inode (same parents).
    assert_eq!(idx.block_of(leaves[0]), idx.block_of(leaves[1]));
    assert_eq!(idx.block_count(), 5);
    // Put them back.
    for &l in &leaves[..3] {
        idx.delete_edge(&mut g, witness, l).unwrap();
        assert_one_index_minimum(&g, &idx);
    }
    assert_eq!(idx.block_count(), 4);
}

/// Bipartite layers: L1 (20 a-nodes) all pointing at L2 (20 b-nodes).
/// Deleting one cross edge must not split anything (the iedge survives
/// with multiplicity 399); deleting *all* edges from one a-node splits
/// the b-side only when some b loses its last L1 parent.
#[test]
fn bipartite_multiplicity_resilience() {
    let mut g = Graph::new();
    let r = g.root();
    let l1: Vec<NodeId> = (0..20)
        .map(|_| {
            let n = g.add_node("a", None);
            g.insert_edge(r, n, EdgeKind::Child).unwrap();
            n
        })
        .collect();
    let l2: Vec<NodeId> = (0..20).map(|_| g.add_node("b", None)).collect();
    for &u in &l1 {
        for &v in &l2 {
            g.insert_edge(u, v, EdgeKind::Child).unwrap();
        }
    }
    let mut idx = OneIndex::build(&g);
    assert_eq!(idx.block_count(), 3);
    // Deleting one edge is a no-op for the index.
    let stats = idx.delete_edge(&mut g, l1[0], l2[0]).unwrap().0;
    assert!(stats.no_op);
    assert_eq!(idx.block_count(), 3);
    assert_one_index_minimum(&g, &idx);
    // Delete the remaining edges of l1[0]: b-nodes keep 19 other parents
    // in the same inode, so the index still never splits.
    for &v in &l2[1..] {
        idx.delete_edge(&mut g, l1[0], v).unwrap();
    }
    // ... but l1[0] itself now has different children (none), which does
    // not affect backward bisimulation: still 3 blocks.
    assert_eq!(idx.block_count(), 3);
    assert_one_index_minimum(&g, &idx);
}

/// Deep chain with identical labels: a 300-deep path of `n` nodes. Each
/// node is its own class (different depth ⇒ different incoming path), a
/// worst case for per-node blocks; adding a shortcut edge reshuffles a
/// suffix.
#[test]
fn deep_chain_shortcut() {
    let mut g = Graph::new();
    let mut prev = g.root();
    let mut chain = Vec::new();
    for _ in 0..300 {
        let n = g.add_node("n", None);
        g.insert_edge(prev, n, EdgeKind::Child).unwrap();
        chain.push(n);
        prev = n;
    }
    let mut idx = OneIndex::build(&g);
    assert_eq!(idx.block_count(), 301);
    idx.insert_edge(&mut g, chain[9], chain[200], EdgeKind::IdRef)
        .unwrap();
    assert_one_index_minimum(&g, &idx);
    idx.delete_edge(&mut g, chain[9], chain[200]).unwrap();
    assert_one_index_minimum(&g, &idx);
}

/// Diamond lattice: 2 layers of {a,b} pairs where both parents point at
/// both children — blocks with multiple parents and multiplicity-2
/// iedges throughout, merged across the lattice.
#[test]
fn diamond_lattice_updates() {
    let mut g = Graph::new();
    let r = g.root();
    let mut layer: Vec<NodeId> = (0..4)
        .map(|_| {
            let n = g.add_node("l0", None);
            g.insert_edge(r, n, EdgeKind::Child).unwrap();
            n
        })
        .collect();
    for depth in 1..6 {
        let next: Vec<NodeId> = (0..4)
            .map(|_| g.add_node(&format!("l{depth}"), None))
            .collect();
        for &u in &layer {
            for &v in &next {
                g.insert_edge(u, v, EdgeKind::Child).unwrap();
            }
        }
        layer = next;
    }
    let mut idx = OneIndex::build(&g);
    assert_eq!(idx.block_count(), 7); // ROOT + one block per layer
                                      // Single a bottom node out via a witness, then restore.
    let w = g.add_node("w", None);
    idx.on_node_added(&g, w);
    idx.insert_edge(&mut g, r, w, EdgeKind::Child).unwrap();
    idx.insert_edge(&mut g, w, layer[0], EdgeKind::IdRef)
        .unwrap();
    assert_one_index_minimum(&g, &idx);
    assert_eq!(idx.block_count(), 9); // + {w}, bottom layer split in two
    idx.delete_edge(&mut g, w, layer[0]).unwrap();
    assert_one_index_minimum(&g, &idx);
    assert_eq!(idx.block_count(), 8); // diamond layers + {w}
}

/// A chain of 2-cycles for the A(k)-index: each pair (p_i, o_i) forms a
/// cycle, and consecutive pairs are linked. Exercises level-ordered
/// splits through cyclic structure for every k.
#[test]
fn cycle_chain_ak_maintenance() {
    for k in 1..=4 {
        let mut g = Graph::new();
        let r = g.root();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..6 {
            let p = g.add_node("p", None);
            let o = g.add_node("o", None);
            g.insert_edge(p, o, EdgeKind::Child).unwrap();
            g.insert_edge(o, p, EdgeKind::IdRef).unwrap();
            pairs.push((p, o));
        }
        g.insert_edge(r, pairs[0].0, EdgeKind::Child).unwrap();
        for w in pairs.windows(2) {
            g.insert_edge(w[0].1, w[1].0, EdgeKind::Child).unwrap();
        }
        let mut idx = AkIndex::build(&g, k);
        assert_ak_minimum(&g, &idx);
        // Cross-link the last pair back to the second: a long cycle.
        let (p1, _) = pairs[1];
        let (_, o5) = pairs[5];
        idx.insert_edge(&mut g, o5, p1, EdgeKind::IdRef).unwrap();
        assert_ak_minimum(&g, &idx);
        idx.delete_edge(&mut g, o5, p1).unwrap();
        assert_ak_minimum(&g, &idx);
    }
}

/// Self-iedge block: sibling nodes with edges among them (same label) so
/// the inode has an iedge to itself; splits and merges must keep the
/// self-counts straight.
///
/// This is also a live Figure 4 specimen: breaking the ring fragments the
/// block into per-position singletons (the true minimum — each node has a
/// distinct incoming path), but *closing* it again leaves the singletons
/// pairwise unmergeable (each has a different predecessor block), so the
/// maintained index is **minimal yet not minimum** — merging all six at
/// once would be needed, the Θ(n) simultaneous merge the paper proves
/// too expensive to chase. Theorem 1's cyclic clause promises exactly
/// minimality here, and that is what we assert.
#[test]
fn self_iedge_block_updates() {
    let mut g = Graph::new();
    let r = g.root();
    let hub = g.add_node("hub", None);
    g.insert_edge(r, hub, EdgeKind::Child).unwrap();
    let xs: Vec<NodeId> = (0..6)
        .map(|_| {
            let n = g.add_node("x", None);
            g.insert_edge(hub, n, EdgeKind::Child).unwrap();
            n
        })
        .collect();
    // Ring among the x's: every x has an x-parent and the hub.
    for i in 0..6 {
        g.insert_edge(xs[i], xs[(i + 1) % 6], EdgeKind::IdRef)
            .unwrap();
    }
    let mut idx = OneIndex::build(&g);
    assert_one_index_minimum(&g, &idx);
    let bx = idx.block_of(xs[0]);
    assert!(idx.has_iedge(bx, bx), "ring makes a self-iedge");
    // Break the ring at one point: every position gets its own incoming
    // path, so the minimum fragments into singletons — and the maintained
    // index follows exactly.
    idx.delete_edge(&mut g, xs[0], xs[1]).unwrap();
    assert_one_index_minimum(&g, &idx);
    assert_eq!(idx.block_count(), 8);
    // Restore the ring: the positions become bisimilar again, but no
    // *pairwise* merge is legal (distinct predecessor blocks) — the index
    // stays minimal (Theorem 1, cyclic clause) while the minimum drops
    // back to 3. The quality gap is the Figure 4 phenomenon.
    idx.insert_edge(&mut g, xs[0], xs[1], EdgeKind::IdRef)
        .unwrap();
    idx.partition().check_consistency(&g).unwrap();
    assert!(
        is_minimal_1index(&g, idx.partition()),
        "{:?}",
        minimality_violation(&g, idx.partition())
    );
    assert_eq!(idx.block_count(), 8, "minimal, stuck above the minimum");
    let min = reference::partition_size(&g, &reference::bisim_classes(&g));
    assert_eq!(min, 3, "the minimum re-coarsens once the ring closes");
    // Reconstruction is the escape hatch the paper prescribes.
    let rebuilt = xsi_core::rebuild::reconstruct_1index(&g, &idx);
    assert_eq!(rebuilt.block_count(), 3);
}

/// Adds a `label` child under `parent`.
fn child(g: &mut Graph, parent: NodeId, label: &str) -> NodeId {
    let n = g.add_node(label, None);
    g.insert_edge(parent, n, EdgeKind::Child).unwrap();
    n
}

/// A chain of `n` elements under the root, labelled cyclically from
/// `labels`; returns the graph and the chain in order.
fn chain(labels: &[&str], n: usize) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new();
    let mut prev = g.root();
    let nodes = (0..n)
        .map(|i| {
            prev = child(&mut g, prev, labels[i % labels.len()]);
            prev
        })
        .collect();
    (g, nodes)
}

/// `teeth` single-label chains of `depth` under one `comb` element: one
/// class per depth, plus the root and the comb.
fn comb(teeth: usize, depth: usize) -> Graph {
    let mut g = Graph::new();
    let root = g.root();
    let comb = child(&mut g, root, "comb");
    for _ in 0..teeth {
        let mut prev = comb;
        for _ in 0..depth {
            prev = child(&mut g, prev, "t");
        }
    }
    g
}

/// Builds the 1-index of `g` and checks it is the minimum: equal to the
/// reference bisimulation, and minimal.
fn build_checked(g: &Graph) -> OneIndex {
    let idx = OneIndex::build(g);
    assert_one_index_minimum(g, &idx);
    idx
}

#[test]
fn build_single_label_chain() {
    let (g, _) = chain(&["a"], 1000);
    assert_eq!(build_checked(&g).block_count(), 1001);
}

#[test]
fn build_alternating_chain() {
    let (g, _) = chain(&["a", "b"], 1000);
    assert_eq!(build_checked(&g).block_count(), 1001);
}

#[test]
fn build_comb_of_deep_teeth() {
    let g = comb(30, 50);
    assert_eq!(build_checked(&g).block_count(), 2 + 50);
}

/// A single-label chain whose tail references its head by IDREF: the
/// head is the only node with two parents, so every node is its own
/// class.
#[test]
fn build_long_idref_cycle() {
    let (mut g, nodes) = chain(&["c"], 1000);
    g.insert_edge(nodes[999], nodes[0], EdgeKind::IdRef)
        .unwrap();
    assert_eq!(build_checked(&g).block_count(), 1001);
}

/// IDREF fan-in star: `hub` has 300 `p` parents spread over five blocks
/// (the `p`s hang under anchors at five depths), `other` has the `p`s of
/// four of them. The refinement has to tell the two apart by the count
/// of parents left in the rest of a compound, not by a parent in the
/// splitter alone.
#[test]
fn build_idref_fan_in_star() {
    let mut g = Graph::new();
    let root = g.root();
    let hub = child(&mut g, root, "hub");
    let other = child(&mut g, root, "hub");
    for group in 0..5 {
        let mut anchor = root;
        for _ in 0..=group {
            anchor = child(&mut g, anchor, "g");
        }
        for _ in 0..60 {
            let p = child(&mut g, anchor, "p");
            g.insert_edge(p, hub, EdgeKind::IdRef).unwrap();
            if group < 4 {
                g.insert_edge(p, other, EdgeKind::IdRef).unwrap();
            }
        }
    }
    child(&mut g, hub, "leaf");
    child(&mut g, other, "leaf");
    let idx = build_checked(&g);
    assert_ne!(idx.block_of(hub), idx.block_of(other));
    // ROOT, 2 hubs, 5 anchors, 5 p-blocks, 2 leaves.
    assert_eq!(idx.block_count(), 15);
}

/// Diamond lattice: 500 layers of an {a, b} pair, each node pointing at
/// both nodes of the next layer — one class per (layer, label).
#[test]
fn build_diamond_lattice() {
    let mut g = Graph::new();
    let mut layer = vec![g.root()];
    for _ in 0..500 {
        let next = [g.add_node("a", None), g.add_node("b", None)];
        for &u in &layer {
            for &v in &next {
                g.insert_edge(u, v, EdgeKind::Child).unwrap();
            }
        }
        layer = next.to_vec();
    }
    assert_eq!(build_checked(&g).block_count(), 1 + 2 * 500);
}

/// Figure 6 on a deep graft: an 800-deep chain (with a side leaf every
/// tenth node and an IDREF out of its tail) hung under a host chain. The
/// maintained index must end equal to a fresh build of the final graph.
#[test]
fn add_subgraph_grafts_a_deep_chain() {
    let (mut g, host) = chain(&["a"], 200);
    let mut idx = OneIndex::build(&g);
    let mut sub = DetachedSubgraph::new();
    let mut prev = sub.add_node("a", None);
    let top = prev;
    for i in 1..800 {
        let n = sub.add_node("a", None);
        sub.add_edge(prev, n, EdgeKind::Child);
        if i % 10 == 0 {
            let leaf = sub.add_node("leaf", None);
            sub.add_edge(n, leaf, EdgeKind::Child);
        }
        prev = n;
    }
    sub.incoming.push((host[49], top, EdgeKind::Child));
    sub.outgoing.push((prev, host[150], EdgeKind::IdRef));
    idx.add_subgraph(&mut g, &sub).unwrap();
    assert_one_index_minimum(&g, &idx);
    assert_eq!(idx.canonical(), OneIndex::build(&g).canonical());
}

/// The `elems` (dedges scanned) of the `KernelScan` spans one
/// `OneIndex::build` of `g` opens.
fn build_scan_elems(g: &Graph) -> u64 {
    span::begin_collection();
    let idx = OneIndex::build(g);
    let elems = span::end_collection()
        .kind_counters(SpanKind::KernelScan)
        .elems;
    assert!(idx.block_count() > 1);
    elems
}

/// Paige–Tarjan scans O(m log n) dedges; the old worklist scanned Θ(n²)
/// on a chain (ratio 4 per doubling). Doubling the input must at most
/// about double the scanned dedges — checked on counters, not timings.
#[test]
fn build_scan_work_doubles_with_size() {
    let chains: Vec<u64> = [5_000, 10_000, 20_000]
        .iter()
        .map(|&n| build_scan_elems(&chain(&["a"], n).0))
        .collect();
    let combs: Vec<u64> = [50, 100]
        .iter()
        .map(|&teeth| build_scan_elems(&comb(teeth, 100)))
        .collect();
    for sweep in [&chains, &combs] {
        for w in sweep.windows(2) {
            let ratio = w[1] as f64 / w[0] as f64;
            assert!(ratio <= 2.3, "scan work ratio {ratio:.2} on {sweep:?}");
        }
    }
}

/// Both index families over one graph, driven as the engine drives them.
struct Both {
    one: OneIndex,
    ak: AkIndex,
}

impl Both {
    fn build(g: &Graph) -> Self {
        Both {
            one: OneIndex::build(g),
            ak: AkIndex::build(g, 2),
        }
    }

    /// Applies `batch` to both indexes through `apply_batch_traced` and
    /// returns the `elems` of the `KernelScan` spans it opened.
    fn apply(&mut self, g: &mut Graph, batch: &[UpdateOp]) -> u64 {
        span::begin_collection();
        apply_batch_traced(&mut [&mut self.one, &mut self.ak], g, batch).unwrap();
        span::end_collection()
            .kind_counters(SpanKind::KernelScan)
            .elems
    }

    /// The 1-index is the reference bisimulation (the minimum a fresh
    /// build gives) and the A(2) chain equals a fresh build of `g`.
    fn assert_fresh(&self, g: &Graph) {
        assert_one_index_minimum(g, &self.one);
        self.ak.check_consistency(g).unwrap();
        let fresh = AkIndex::build(g, self.ak.k()).chain_assignments(g);
        for (level, (got, want)) in self.ak.chain_assignments(g).iter().zip(&fresh).enumerate() {
            assert_eq!(
                reference::canonical_partition(g, got),
                reference::canonical_partition(g, want),
                "A(2) level {level}"
            );
        }
    }
}

/// `n` same-label `movie` subtrees (a `title` and a `year` each) under
/// the root, so one inode holds all `n` movies; returns the movies.
fn wide_siblings(n: usize) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new();
    let root = g.root();
    let movies = (0..n)
        .map(|_| {
            let m = child(&mut g, root, "movie");
            child(&mut g, m, "title");
            child(&mut g, m, "year");
            m
        })
        .collect();
    (g, movies)
}

/// Removes movie `m`'s subtree and adds one of the same shape back, as
/// two batches over both indexes; returns the pair's `KernelScan` elems.
fn remove_and_readd_subtree(g: &mut Graph, idx: &mut Both, m: NodeId) -> u64 {
    let remove: Vec<UpdateOp> = std::iter::once(m)
        .chain(g.succ(m))
        .map(|node| UpdateOp::RemoveNode { node })
        .collect();
    let mut elems = idx.apply(g, &remove);
    idx.assert_fresh(g);
    let edge = |from, to| UpdateOp::InsertEdge {
        from,
        to,
        kind: EdgeKind::Child,
    };
    let add = [
        UpdateOp::AddNode {
            label: "movie".into(),
        },
        UpdateOp::AddNode {
            label: "title".into(),
        },
        UpdateOp::AddNode {
            label: "year".into(),
        },
        edge(NodeRef::Existing(g.root()), NodeRef::New(0)),
        edge(NodeRef::New(0), NodeRef::New(1)),
        edge(NodeRef::New(0), NodeRef::New(2)),
    ];
    elems += idx.apply(g, &add);
    idx.assert_fresh(g);
    elems
}

/// Removing one subtree singles its movie out of an inode of `n`. The
/// three-way split scans `Succ` of the singled-out movie only, so the
/// work per remove/re-add pair stays flat as `n` doubles; rescanning
/// `Succ` of the rest of the inode doubled it (ratio 2.0).
#[test]
fn subtree_remove_work_is_flat_in_sibling_count() {
    let elems: Vec<u64> = [2_500, 5_000, 10_000]
        .iter()
        .map(|&n| {
            let (mut g, movies) = wide_siblings(n);
            let mut idx = Both::build(&g);
            remove_and_readd_subtree(&mut g, &mut idx, movies[n / 2])
        })
        .collect();
    for w in elems.windows(2) {
        let ratio = w[1] as f64 / w[0] as f64;
        assert!(ratio <= 1.2, "scan work ratio {ratio:.2} on {elems:?}");
    }
}

/// The nodes of [`fan_in_hub`] the toggles use.
struct Hub {
    hub: NodeId,
    leaf: NodeId,
    q: NodeId,
    s: NodeId,
}

/// A `hub` under the root with `n` IDREF parents `x` (one inode), then
/// two more IDREF parents `q` (a two-node inode); a two-node inode of
/// `s` and one of four `leaf`s, all under the root.
fn fan_in_hub(n: usize) -> (Graph, Hub) {
    let mut g = Graph::new();
    let root = g.root();
    let hub = child(&mut g, root, "hub");
    for _ in 0..n {
        let x = child(&mut g, root, "x");
        g.insert_edge(x, hub, EdgeKind::IdRef).unwrap();
    }
    let qs = [child(&mut g, root, "q"), child(&mut g, root, "q")];
    for q in qs {
        g.insert_edge(q, hub, EdgeKind::IdRef).unwrap();
    }
    let s = child(&mut g, root, "s");
    child(&mut g, root, "s");
    let leaf = child(&mut g, root, "leaf");
    for _ in 0..3 {
        child(&mut g, root, "leaf");
    }
    (
        g,
        Hub {
            hub,
            leaf,
            q: qs[0],
            s,
        },
    )
}

/// Inserts then deletes the IDREF `u → v` through both indexes, checking
/// each against fresh builds; returns the `KernelScan` elems of each.
fn toggle_idref(g: &mut Graph, idx: &mut Both, u: NodeId, v: NodeId) -> [u64; 2] {
    let insert = idx.apply(
        g,
        &[UpdateOp::InsertEdge {
            from: NodeRef::Existing(u),
            to: NodeRef::Existing(v),
            kind: EdgeKind::IdRef,
        }],
    );
    idx.assert_fresh(g);
    let delete = idx.apply(g, &[UpdateOp::DeleteEdge { from: u, to: v }]);
    idx.assert_fresh(g);
    [insert, delete]
}

/// A hub with thousands of IDREF parents, alone in its inode. Toggling
/// an IDREF from a small-inode node to the hub, from the hub to a leaf,
/// and into one of the hub's two `q` parents (which puts the hub in the
/// splitter `Succ(I)` while its other `q` parent sits in the rest) must
/// keep both indexes equal to fresh builds, and the per-update scan work
/// must not grow with the hub's in-degree: a singleton block cannot
/// split, so its parents are never probed.
#[test]
fn fan_in_hub_toggles_cost_no_hub_in_degree() {
    let per_size: Vec<Vec<[u64; 2]>> = [5_000, 10_000, 20_000]
        .iter()
        .map(|&n| {
            let (mut g, h) = fan_in_hub(n);
            let mut idx = Both::build(&g);
            idx.assert_fresh(&g);
            [(h.s, h.hub), (h.hub, h.leaf), (h.s, h.q)]
                .iter()
                .map(|&(u, v)| toggle_idref(&mut g, &mut idx, u, v))
                .collect()
        })
        .collect();
    assert!(
        per_size.windows(2).all(|w| w[0] == w[1]),
        "per-update scan work grew with the hub's in-degree: {per_size:?}"
    );
}
