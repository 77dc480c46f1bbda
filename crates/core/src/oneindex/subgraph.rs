//! Subgraph addition (Figure 6) and removal for the 1-index.
//!
//! Addition follows the paper's batched algorithm: build the 1-index of
//! the detached subgraph in isolation (its blocks are simply unioned into
//! the host index — no cross edges exist yet), insert *all* incoming
//! dedges to the subgraph root and run the merge phase just once, then
//! feed every remaining boundary edge through the ordinary edge-insertion
//! algorithm. Corollary 1: the result is minimal (minimum on DAGs).
//!
//! Removal is the inverse workload of Section 7.1's subgraph experiment:
//! boundary and internal edges are deleted through the maintained
//! edge-deletion algorithm and the isolated nodes are then detached, so
//! the index stays minimal throughout.

use crate::stats::UpdateStats;
use xsi_graph::{DetachedSubgraph, Graph, GraphError, NodeId};

use super::OneIndex;

impl OneIndex {
    /// Adds a detached subgraph: materializes its nodes and internal edges
    /// in `g`, extends the index minimally, and connects all boundary
    /// edges recorded in `sub.incoming` / `sub.outgoing` (host node ids
    /// must be alive in `g`). Returns the local→host node mapping and the
    /// accumulated statistics.
    pub fn add_subgraph(
        &mut self,
        g: &mut Graph,
        sub: &DetachedSubgraph,
    ) -> Result<(Vec<NodeId>, UpdateStats), GraphError> {
        self.add_subgraph_impl(g, sub, true)
    }

    /// The Figure 12 baseline variant: same batched subgraph addition but
    /// boundary edges are inserted with the *propagate* algorithm (no
    /// merge phases), so the index stays correct but drifts from minimal.
    pub fn propagate_add_subgraph(
        &mut self,
        g: &mut Graph,
        sub: &DetachedSubgraph,
    ) -> Result<(Vec<NodeId>, UpdateStats), GraphError> {
        self.add_subgraph_impl(g, sub, false)
    }

    fn add_subgraph_impl(
        &mut self,
        g: &mut Graph,
        sub: &DetachedSubgraph,
        do_merge: bool,
    ) -> Result<(Vec<NodeId>, UpdateStats), GraphError> {
        // Materialize nodes + internal edges in the host graph.
        let map = sub.instantiate(g)?;
        self.p.ensure_capacity(g);

        // Build the 1-index of the new subgraph in place: solve its
        // internal edges alone, attach one fresh block per class, then
        // register the internal-edge counts. With no boundary edges yet,
        // this is exactly "build Φ'(G') and union it with Φ(G)", at
        // O(subgraph) cost.
        let mut edges: Vec<(u32, u32)> = sub
            .internal_edges()
            .iter()
            .map(|&(u, v, _)| (u, v))
            .collect();
        edges.sort_unstable();
        self.attach_bisim_classes(g, &map, &edges);
        for &(lu, lv, _) in sub.internal_edges() {
            self.p.on_edge_inserted(map[lu as usize], map[lv as usize]);
        }

        let mut stats = UpdateStats {
            no_op: false,
            ..UpdateStats::default()
        };

        // Insert all incoming edges to the subgraph root, then merge once
        // (the optimization of Section 5.2: each of these insertions can
        // only require singling the root out, which happens on the first).
        let root = map[sub.root_local() as usize];
        for &(host, local, kind) in &sub.incoming {
            if map[local as usize] != root {
                continue; // handled below with full maintenance
            }
            g.insert_edge(host, root, kind)?;
            self.p.on_edge_inserted(host, root);
            if self.p.size(self.p.block_of(root)) > 1 {
                self.split_phase(g, root, &mut stats);
            }
        }
        if do_merge {
            self.merge_phase(g, self.p.block_of(root), &mut stats);
        }

        // Every other boundary edge goes through insert_1_index_edge.
        for &(host, local, kind) in &sub.incoming {
            if map[local as usize] == root {
                continue;
            }
            g.insert_edge(host, map[local as usize], kind)?;
            stats.absorb(&self.apply_insert(g, host, map[local as usize], do_merge));
        }
        for &(local, host, kind) in &sub.outgoing {
            g.insert_edge(map[local as usize], host, kind)?;
            stats.absorb(&self.apply_insert(g, map[local as usize], host, do_merge));
        }
        stats.final_blocks = self.p.block_count();
        Ok((map, stats))
    }

    /// Removes the given member nodes (e.g. a previously extracted
    /// subtree) from graph and index: all boundary and internal edges are
    /// deleted through maintained edge deletion, then the isolated nodes
    /// are detached and removed from `g`. `members` must be closed under
    /// ... nothing — any node set works, but removal severs every edge
    /// touching it.
    pub fn remove_subgraph(
        &mut self,
        g: &mut Graph,
        members: &[NodeId],
    ) -> Result<UpdateStats, GraphError> {
        let mut stats = UpdateStats {
            no_op: false,
            ..UpdateStats::default()
        };
        let member_set: std::collections::HashSet<NodeId> = members.iter().copied().collect();
        // Boundary edges first (they tie the members to the host index),
        // then internal edges, then the bare nodes.
        for &m in members {
            let in_edges: Vec<NodeId> = g.pred(m).filter(|p| !member_set.contains(p)).collect();
            for p in in_edges {
                g.delete_edge(p, m)?;
                stats.absorb(&self.apply_delete(g, p, m, true));
            }
            let out_edges: Vec<NodeId> = g.succ(m).filter(|c| !member_set.contains(c)).collect();
            for c in out_edges {
                g.delete_edge(m, c)?;
                stats.absorb(&self.apply_delete(g, m, c, true));
            }
        }
        for &m in members {
            let internal: Vec<NodeId> = g.succ(m).collect();
            for c in internal {
                g.delete_edge(m, c)?;
                stats.absorb(&self.apply_delete(g, m, c, true));
            }
        }
        for &m in members {
            self.on_node_removing(g, m);
            g.remove_node(m)?;
        }
        stats.final_blocks = self.p.block_count();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::figure2_graph;
    use super::*;
    use crate::check::{is_minimal_1index, minimality_violation};
    use crate::reference;
    use xsi_graph::{extract_subtree, EdgeKind};

    fn assert_minimum(g: &Graph, idx: &OneIndex) {
        idx.partition().check_consistency(g).unwrap();
        assert!(
            is_minimal_1index(g, idx.partition()),
            "{:?}",
            minimality_violation(g, idx.partition())
        );
        let classes = reference::bisim_classes(g);
        assert_eq!(idx.canonical(), reference::canonical_partition(g, &classes));
    }

    #[test]
    fn add_detached_tree() {
        let (mut g, ids) = figure2_graph();
        let mut idx = OneIndex::build(&g);
        // New subgraph: C -> D (mirrors the existing 5→8 shape) hung
        // under node 2 — after addition it should merge with {5} and {8}.
        let mut sub = DetachedSubgraph::new();
        let c = sub.add_node("C", None);
        let d = sub.add_node("D", None);
        sub.add_edge(c, d, EdgeKind::Child);
        sub.incoming.push((ids[&1], c, EdgeKind::Child));
        sub.incoming.push((ids[&2], c, EdgeKind::Child));
        let (map, stats) = idx.add_subgraph(&mut g, &sub).unwrap();
        assert!(!stats.no_op);
        // New C has parents {1, 2} just like 5.
        assert_eq!(idx.block_of(map[0]), idx.block_of(ids[&5]));
        assert_eq!(idx.block_of(map[1]), idx.block_of(ids[&8]));
        assert_minimum(&g, &idx);
    }

    #[test]
    fn extract_remove_re_add_round_trip() {
        let (mut g, ids) = figure2_graph();
        let mut idx = OneIndex::build(&g);
        let nodes_before = g.node_count();
        let canon_before = idx.canonical();

        let (sub, members) = extract_subtree(&g, ids[&2]);
        assert_eq!(sub.node_count(), 7); // 2,3,4,5 and leaves 6,7,8
        idx.remove_subgraph(&mut g, &members).unwrap();
        assert_minimum(&g, &idx);
        assert_eq!(g.node_count(), nodes_before - sub.node_count());

        let (map, _) = idx.add_subgraph(&mut g, &sub).unwrap();
        assert_eq!(g.node_count(), nodes_before);
        assert_minimum(&g, &idx);
        // The re-added index must have the same shape (sizes) as before.
        let mut sizes_before: Vec<usize> = canon_before.iter().map(|e| e.len()).collect();
        sizes_before.sort_unstable();
        let canon_after = idx.canonical();
        let mut sizes_after: Vec<usize> = canon_after.iter().map(|e| e.len()).collect();
        sizes_after.sort_unstable();
        assert_eq!(sizes_before, sizes_after);
        let _ = map;
    }

    #[test]
    fn add_subgraph_with_outgoing_idrefs() {
        let (mut g, ids) = figure2_graph();
        let mut idx = OneIndex::build(&g);
        let mut sub = DetachedSubgraph::new();
        let a = sub.add_node("auction", None);
        let i = sub.add_node("itemref", None);
        sub.add_edge(a, i, EdgeKind::Child);
        sub.incoming.push((g.root(), a, EdgeKind::Child));
        sub.outgoing.push((i, ids[&6], EdgeKind::IdRef));
        let (map, _) = idx.add_subgraph(&mut g, &sub).unwrap();
        assert!(g.has_edge(map[1], ids[&6]));
        assert_minimum(&g, &idx);
    }

    #[test]
    fn removing_everything_leaves_root_index() {
        let (mut g, ids) = figure2_graph();
        let mut idx = OneIndex::build(&g);
        let (_, members) = extract_subtree(&g, ids[&1]);
        assert_eq!(members.len(), 8);
        idx.remove_subgraph(&mut g, &members).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(idx.block_count(), 1);
        assert_minimum(&g, &idx);
    }
}
