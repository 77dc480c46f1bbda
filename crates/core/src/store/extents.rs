//! Extent membership for the block arenas of both index families
//! (DESIGN.md §10–§11).
//!
//! Every split, merge, node insertion and node deletion moves dnodes
//! between inode extents. [`Extents`] is the one owner of that
//! bookkeeping: the node→block and node→position tables, one
//! copy-on-write run per block slot, and the count of runs cloned
//! because a frozen snapshot still shared them. Its fields are private
//! to this module, so the index facades and their maintainer child
//! modules can reach extent storage only through the operations below —
//! and no code outside `store` can name the run type at all.
//!
//! The runs table is indexed by *slot*, not by generation-checked
//! handle: the facades keep their stale-handle `debug_assert`s (via the
//! slot arena) before calling in. It grows one slot at a time in
//! lockstep with the slot arena ([`Extents::open`]), so its shell bytes
//! match the arena's slot growth exactly.
//!
//! Outside code reads extents through those operations:
//!
//! ```
//! use xsi_core::{store::Extents, BlockId};
//! fn size(e: &Extents<BlockId>, b: BlockId) -> usize {
//!     e.extent(b).len()
//! }
//! ```
//!
//! but cannot name the run type (see [`Extents`] for its fields):
//!
//! ```compile_fail,E0603
//! use xsi_core::store::cow::CowVec;
//! ```

use super::cow::CowVec;
use super::slot::SlotKey;
use crate::obs::mem::{vec_cap_heap, HeapUse, MemReport};
use std::sync::Arc;
use xsi_graph::NodeId;

/// Extent membership of one block arena: which block each dnode sits
/// in, where in that block's run, and the runs themselves.
///
/// Every field is private, so no code outside `store` can write a run
/// without the copy-on-write gate:
///
/// ```compile_fail,E0616
/// fn poke(e: &mut xsi_core::store::Extents<xsi_core::BlockId>) {
///     e.runs.clear();
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Extents<K: SlotKey> {
    /// dnode → block, `K::dangling()` when the node is not indexed.
    node_block: Vec<K>,
    /// dnode → position inside its block's run.
    node_pos: Vec<u32>,
    /// One run per slot index of the owning arena (dead slots keep an
    /// empty run whose capacity the slot's next block reuses),
    /// `Arc`-shared with frozen snapshots.
    runs: Vec<CowVec<NodeId>>,
    /// Cumulative count of runs cloned because a snapshot still shared
    /// them (exported as `snapshot_cow_clones`).
    cow_clones: u64,
}

impl<K: SlotKey> Extents<K> {
    /// Empty membership sized for node ids below `node_capacity`.
    pub fn new(node_capacity: usize) -> Self {
        Extents {
            node_block: vec![K::dangling(); node_capacity],
            node_pos: vec![0; node_capacity],
            runs: Vec::new(),
            cow_clones: 0,
        }
    }

    /// Grows the per-node tables to cover node ids below
    /// `node_capacity`.
    pub fn ensure_capacity(&mut self, node_capacity: usize) {
        if node_capacity > self.node_block.len() {
            self.node_block.resize(node_capacity, K::dangling());
            self.node_pos.resize(node_capacity, 0);
        }
    }

    /// Readies the run of a slot the arena just allocated. A brand-new
    /// slot index extends the runs table by one; a recycled slot keeps
    /// its (empty) run and that run's capacity.
    pub fn open(&mut self, b: K) {
        if b.index() >= self.runs.len() {
            self.runs.resize_with(b.index() + 1, CowVec::new);
        }
        debug_assert!(self.run(b).is_empty(), "recycled slot kept its extent");
    }

    /// Whether `n` is assigned to a block.
    #[inline]
    pub fn is_indexed(&self, n: NodeId) -> bool {
        self.node_block
            .get(n.index())
            .is_some_and(|&b| b != K::dangling())
    }

    /// The block containing `n`.
    ///
    /// # Panics
    /// Panics if `n` lies beyond the node tables; debug builds also
    /// panic if `n` is not indexed.
    #[inline]
    pub fn block_of(&self, n: NodeId) -> K {
        // xsi-lint: allow(slice-index, node tables cover every node id below the graph capacity the owner sized them to)
        let b = self.node_block[n.index()];
        debug_assert!(b != K::dangling(), "node {n:?} is not indexed");
        b
    }

    /// The run of slot `b`.
    #[inline]
    pub fn extent(&self, b: K) -> &[NodeId] {
        self.run(b)
    }

    /// `|b|`: the number of dnodes in block `b`.
    #[inline]
    pub fn len(&self, b: K) -> usize {
        self.run(b).len()
    }

    /// Shares block `b`'s run with a frozen snapshot: O(1), no node ids
    /// copied. The next write to `b` clones the run and counts it in
    /// [`Extents::cow_clones`]; the snapshot keeps this version.
    #[inline]
    pub fn share(&self, b: K) -> Arc<Vec<NodeId>> {
        self.run(b).share()
    }

    /// Cumulative count of runs cloned because a snapshot shared them.
    #[inline]
    pub fn cow_clones(&self) -> u64 {
        self.cow_clones
    }

    /// Appends the unindexed node `n` to block `b`'s run.
    pub fn attach(&mut self, n: NodeId, b: K) {
        debug_assert!(!self.is_indexed(n), "attach of already-indexed {n:?}");
        let run = self.run_mut(b);
        let pos = run.len() as u32;
        run.push(n);
        self.set_slot(n, b, pos);
    }

    /// Removes `n` from its block's run (swap-remove) and unindexes it.
    /// Returns the block it was removed from.
    pub fn detach(&mut self, n: NodeId) -> K {
        let b = self.block_of(n);
        self.remove_from_run(n, b);
        self.set_slot(n, K::dangling(), 0);
        b
    }

    /// Moves `n` from its current block to `to` and returns the block it
    /// left. Moving a node to the block it is already in writes nothing.
    pub fn move_to(&mut self, n: NodeId, to: K) -> K {
        let from = self.block_of(n);
        if from != to {
            self.remove_from_run(n, from);
            let run = self.run_mut(to);
            let pos = run.len() as u32;
            run.push(n);
            self.set_slot(n, to, pos);
        }
        from
    }

    /// Appends block `src`'s run to `dst`'s and leaves `src` empty. A
    /// drained run no snapshot shares keeps its allocation for the
    /// slot's next block; a shared one stays with the snapshot and
    /// `src` starts from a fresh empty run.
    ///
    /// # Panics
    /// Panics if `dst == src`: a self-merge would silently destroy the
    /// extent, so the guard survives into release builds.
    pub fn merge(&mut self, dst: K, src: K) {
        assert_ne!(dst, src, "merging a block with itself");
        let drained = std::mem::take(self.slot_mut(src));
        // An empty src writes nothing to dst, so it must not clone a
        // shared dst run either.
        if !drained.is_empty() {
            let Extents {
                node_block,
                node_pos,
                runs,
                cow_clones,
            } = self;
            let run = runs
                .get_mut(dst.index())
                .expect("invariant: merge targets an opened slot")
                .make_mut(cow_clones);
            for &n in drained.iter() {
                // xsi-lint: allow(slice-index, extent members are indexed nodes, so the node tables cover them)
                node_block[n.index()] = dst;
                // xsi-lint: allow(slice-index, extent members are indexed nodes, so the node tables cover them)
                node_pos[n.index()] = run.len() as u32;
                run.push(n);
            }
        }
        if let Some(mut recycled) = drained.take_unique() {
            recycled.clear();
            *self.slot_mut(src) = recycled.into();
        }
    }

    /// Attributes the runs and node tables to `r`. `live` lists the
    /// arena's live blocks, each with whether its run is a real extent
    /// (recorded in the extent-length histogram) or a placeholder
    /// (bytes only). Runs of every other slot count as dead retention,
    /// the runs table as slab shell, the node tables as side tables.
    pub fn record_mem(&self, r: &mut MemReport, live: impl IntoIterator<Item = (K, bool)>) {
        let mut live_bytes = 0usize;
        for (b, histogram) in live {
            let run = self.run(b);
            if histogram {
                r.record_extent(run.len(), run.heap_bytes(), run.is_shared());
            } else {
                r.add_extent_bytes(run.heap_bytes(), run.is_shared());
            }
            live_bytes += run.heap_bytes();
        }
        let all_bytes: usize = self.runs.iter().map(CowVec::heap_bytes).sum();
        r.dead_retained_bytes += (all_bytes - live_bytes) as u64;
        r.slab_bytes += vec_cap_heap(&self.runs) as u64;
        r.side_table_bytes +=
            (vec_cap_heap(&self.node_block) + vec_cap_heap(&self.node_pos)) as u64;
    }

    /// Verifies membership in both directions: every run of a block in
    /// `live` maps each member back to that block and position; every
    /// other slot's run is empty; and every set node→block entry names a
    /// block in `live` whose run holds the node at the recorded
    /// position. O(nodes + slots).
    pub fn check_consistency(&self, live: impl IntoIterator<Item = K>) -> Result<(), String> {
        let mut live_at: Vec<Option<K>> = vec![None; self.runs.len()];
        for b in live {
            match live_at.get_mut(b.index()) {
                Some(slot) => *slot = Some(b),
                None => return Err(format!("live block {b:?} has no run")),
            }
            for (pos, &n) in self.run(b).iter().enumerate() {
                if self.node_block.get(n.index()) != Some(&b) {
                    return Err(format!(
                        "node {n:?} in extent of {b:?} but mapped elsewhere"
                    ));
                }
                if self.node_pos.get(n.index()) != Some(&(pos as u32)) {
                    return Err(format!("node {n:?} position table out of sync"));
                }
            }
        }
        for (idx, (run, owner)) in self.runs.iter().zip(&live_at).enumerate() {
            if owner.is_none() && !run.is_empty() {
                return Err(format!(
                    "slot {idx} holds {} nodes but no live extent",
                    run.len()
                ));
            }
        }
        for (i, (&b, &pos)) in self.node_block.iter().zip(&self.node_pos).enumerate() {
            let n = NodeId(i as u32);
            if b == K::dangling() {
                continue;
            }
            if live_at.get(b.index()).copied().flatten() != Some(b) {
                return Err(format!(
                    "node {n:?} mapped to dead or placeholder block {b:?}"
                ));
            }
            if self.run(b).get(pos as usize) != Some(&n) {
                return Err(format!(
                    "node {n:?} mapped to {b:?} but absent from its extent"
                ));
            }
        }
        Ok(())
    }

    #[inline]
    fn run(&self, b: K) -> &CowVec<NodeId> {
        // xsi-lint: allow(slice-index, open() grows the runs table to cover every slot the arena allocates)
        &self.runs[b.index()]
    }

    /// Write access to `b`'s run through the copy-on-write gate.
    #[inline]
    fn run_mut(&mut self, b: K) -> &mut Vec<NodeId> {
        let Extents {
            runs, cow_clones, ..
        } = self;
        // xsi-lint: allow(slice-index, open() grows the runs table to cover every slot the arena allocates)
        runs[b.index()].make_mut(cow_clones)
    }

    /// The run handle itself, for the merge's take-and-recycle.
    #[inline]
    fn slot_mut(&mut self, b: K) -> &mut CowVec<NodeId> {
        // xsi-lint: allow(slice-index, open() grows the runs table to cover every slot the arena allocates)
        &mut self.runs[b.index()]
    }

    fn set_slot(&mut self, n: NodeId, b: K, pos: u32) {
        // xsi-lint: allow(slice-index, node tables cover every node id below the graph capacity the owner sized them to)
        self.node_block[n.index()] = b;
        // xsi-lint: allow(slice-index, node tables cover every node id below the graph capacity the owner sized them to)
        self.node_pos[n.index()] = pos;
    }

    fn remove_from_run(&mut self, n: NodeId, b: K) {
        // xsi-lint: allow(slice-index, n is indexed, so the node tables cover it)
        let pos = self.node_pos[n.index()] as usize;
        let run = self.run_mut(b);
        debug_assert_eq!(run.get(pos), Some(&n), "position table out of sync");
        run.swap_remove(pos);
        if let Some(&moved) = run.get(pos) {
            // xsi-lint: allow(slice-index, extent members are indexed nodes, so the node tables cover them)
            self.node_pos[moved.index()] = pos as u32;
        }
    }
}

impl<K: SlotKey> Default for Extents<K> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<K: SlotKey> HeapUse for Extents<K> {
    /// Both node tables, the runs table shell, and every run — dead
    /// slots included, since they retain capacity for reuse.
    fn heap_use(&self) -> usize {
        let Self {
            node_block,
            node_pos,
            runs,
            cow_clones: _,
        } = self;
        vec_cap_heap(node_block)
            + vec_cap_heap(node_pos)
            + vec_cap_heap(runs)
            + runs.iter().map(CowVec::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Key(u32);
    impl SlotKey for Key {
        fn from_raw_parts(idx: u32, _gen: u32) -> Self {
            Key(idx)
        }
        fn idx(self) -> u32 {
            self.0
        }
        fn gen(self) -> u32 {
            0
        }
    }

    const NODES: u32 = 40;
    const SLOTS: u32 = 6;

    /// Knuth's MMIX LCG; the high bits are the usable ones.
    struct Lcg(u64);
    impl Lcg {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % u64::from(n)) as u32
        }
    }

    /// The naive model: one plain `Vec` per slot with the same
    /// swap-remove and append semantics, plus which slots a snapshot
    /// shares and nothing has written since.
    struct Model {
        runs: Vec<Vec<NodeId>>,
        shared_unwritten: Vec<bool>,
        clones: u64,
    }

    impl Model {
        fn slot_of(&self, n: NodeId) -> Option<usize> {
            self.runs.iter().position(|r| r.contains(&n))
        }
        fn write(&mut self, s: usize) {
            if std::mem::take(&mut self.shared_unwritten[s]) {
                self.clones += 1;
            }
        }
        fn remove(&mut self, n: NodeId, s: usize) {
            self.write(s);
            let pos = self.runs[s].iter().position(|&m| m == n).unwrap();
            self.runs[s].swap_remove(pos);
        }
        fn push(&mut self, n: NodeId, s: usize) {
            self.write(s);
            self.runs[s].push(n);
        }
    }

    fn pick(rng: &mut Lcg, nodes: &[NodeId]) -> Option<NodeId> {
        (!nodes.is_empty()).then(|| nodes[rng.below(nodes.len() as u32) as usize])
    }

    #[test]
    fn random_sequences_match_the_naive_model() {
        for seed in 1..=40u64 {
            let mut rng = Lcg(seed);
            let mut ext: Extents<Key> = Extents::new(NODES as usize);
            for s in 0..SLOTS {
                ext.open(Key(s));
            }
            let mut model = Model {
                runs: vec![Vec::new(); SLOTS as usize],
                shared_unwritten: vec![false; SLOTS as usize],
                clones: 0,
            };
            let mut frozen: Vec<(Arc<Vec<NodeId>>, Vec<NodeId>)> = Vec::new();
            for step in 0..300 {
                let all: Vec<NodeId> = (0..NODES).map(NodeId).collect();
                let (indexed, free): (Vec<NodeId>, Vec<NodeId>) =
                    all.into_iter().partition(|&n| model.slot_of(n).is_some());
                let s = rng.below(SLOTS);
                match rng.below(6) {
                    0 | 1 => {
                        if let Some(n) = pick(&mut rng, &free) {
                            ext.attach(n, Key(s));
                            model.push(n, s as usize);
                        }
                    }
                    2 => {
                        if let Some(n) = pick(&mut rng, &indexed) {
                            let from = model.slot_of(n).unwrap();
                            assert_eq!(ext.detach(n), Key(from as u32));
                            model.remove(n, from);
                        }
                    }
                    3 => {
                        if let Some(n) = pick(&mut rng, &indexed) {
                            let from = model.slot_of(n).unwrap();
                            assert_eq!(ext.move_to(n, Key(s)), Key(from as u32));
                            if from != s as usize {
                                model.remove(n, from);
                                model.push(n, s as usize);
                            }
                        }
                    }
                    4 => {
                        let dst = (s + 1 + rng.below(SLOTS - 1)) % SLOTS;
                        let (src, dst) = (s as usize, dst as usize);
                        let unique = !ext.run(Key(src as u32)).is_shared();
                        let bytes = ext.run(Key(src as u32)).heap_bytes();
                        ext.merge(Key(dst as u32), Key(src as u32));
                        for n in std::mem::take(&mut model.runs[src]) {
                            model.push(n, dst);
                        }
                        // Draining hands src a run nobody shares.
                        model.shared_unwritten[src] = false;
                        if unique {
                            assert_eq!(
                                ext.run(Key(src as u32)).heap_bytes(),
                                bytes,
                                "seed {seed} step {step}: a drained unique run keeps its capacity"
                            );
                        }
                    }
                    _ => {
                        let arc = ext.share(Key(s));
                        frozen.push((arc, model.runs[s as usize].clone()));
                        model.shared_unwritten[s as usize] = true;
                    }
                }
                let ctx = format!("seed {seed} step {step}");
                ext.check_consistency((0..SLOTS).map(Key))
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                for s in 0..SLOTS {
                    assert_eq!(ext.extent(Key(s)), &model.runs[s as usize][..], "{ctx}");
                    assert_eq!(ext.len(Key(s)), model.runs[s as usize].len(), "{ctx}");
                }
                for n in (0..NODES).map(NodeId) {
                    assert_eq!(ext.is_indexed(n), model.slot_of(n).is_some(), "{ctx}");
                }
                assert_eq!(ext.cow_clones(), model.clones, "{ctx}: first writes only");
                for (arc, copy) in &frozen {
                    assert_eq!(&arc[..], &copy[..], "{ctx}: a shared run changed");
                }
            }
        }
    }

    fn populated() -> Extents<Key> {
        let mut ext: Extents<Key> = Extents::new(4);
        ext.open(Key(0));
        ext.open(Key(1));
        ext.attach(NodeId(0), Key(0));
        ext.attach(NodeId(1), Key(0));
        ext.attach(NodeId(2), Key(1));
        ext.check_consistency([Key(0), Key(1)]).unwrap();
        ext
    }

    #[test]
    fn check_catches_a_mapping_left_behind_by_its_run() {
        let mut ext = populated();
        // The run forgets node 1 but the node→block table still names it
        // — the state a removed node leaves when only the run is updated.
        ext.run_mut(Key(0)).truncate(1);
        let err = ext.check_consistency([Key(0), Key(1)]).unwrap_err();
        assert!(err.contains("absent from its extent"), "{err}");
    }

    #[test]
    fn check_catches_members_mapped_elsewhere_and_dead_slot_members() {
        let mut ext = populated();
        ext.set_slot(NodeId(2), Key(0), 0);
        let err = ext.check_consistency([Key(0), Key(1)]).unwrap_err();
        assert!(err.contains("mapped elsewhere"), "{err}");
        let ext = populated();
        let err = ext.check_consistency([Key(0)]).unwrap_err();
        assert!(err.contains("no live extent"), "{err}");
    }

    #[test]
    #[should_panic(expected = "merging a block with itself")]
    fn self_merge_panics_in_every_build() {
        let mut ext = populated();
        ext.merge(Key(0), Key(0));
    }

    #[test]
    fn heap_use_equals_the_mem_report_total() {
        let mut ext = populated();
        ext.open(Key(2));
        ext.merge(Key(1), Key(0));
        let _snapshot = ext.share(Key(1));
        let mut r = MemReport::default();
        ext.record_mem(&mut r, [(Key(1), true), (Key(2), false)]);
        assert_eq!(r.total_bytes() as usize, ext.heap_use());
        assert_eq!(r.shared_extents, 1);
        assert_eq!(r.extent_len_hist.iter().sum::<u64>(), 1);
        assert!(r.dead_retained_bytes > 0, "slot 0 keeps its drained run");
    }
}
