//! The shared refinement kernel (DESIGN.md §10.3): one implementation of
//! the Paige–Tarjan compound-queue split propagation and of the iterative
//! merge fold, driven by both index families, and the from-scratch
//! Paige–Tarjan solver that builds the 1-index.
//!
//! Before this module, `oneindex/maintain.rs` and `akindex/maintain.rs`
//! each carried a private compound queue, a private copy of the
//! propagation loop, and a private copy of the "group successors by
//! merge key, fold each group, requeue survivors" loop. The mechanics
//! were line-for-line parallel; only the primitive operations differed
//! (flat partition vs refinement tree). The kernel factors the mechanics
//! into two small traits:
//!
//! * [`SplitDriver`] — weights, the block holding a node at a level, the
//!   splitter scan `Succ(I)`, a block-slot flag table, and the
//!   family-specific stabilization primitive (`split_by_set` for the
//!   1-index, `split_levels_by` for the A(k) chain).
//!   [`process_compounds`] runs the propagation loop over a
//!   [`CompoundQueue`]: each step scans `Succ(I)` of the small member I
//!   only and splits three ways, never reading the rest's extents.
//! * [`MergeDriver`] — successor enumeration, the merge-equivalence key,
//!   and the family-specific group merge. [`merge_fold`] runs the
//!   worklist.
//!
//! Construction does not go through a driver: [`coarsest_stable_partition`]
//! runs Paige–Tarjan's three-way split over plain arrays of dense node
//! ids, in O(m log n), and returns one class per node. 1-index
//! construction and subgraph addition build their `Partition` once from
//! those classes.
//!
//! Everything here iterates in sorted or explicitly-queued order —
//! `CompoundQueue` tracks membership in a `BTreeMap`, `merge_fold`
//! groups in a `BTreeMap`, the solver works on arrays — so the kernel
//! adds no hash-order nondeterminism on top of the drivers.

use crate::obs::span::{SpanGuard, SpanKind};
use crate::stats::UpdateStats;
use crate::store::{ScratchTable, SlotKey};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;
use xsi_graph::{Graph, NodeId};

/// The Paige–Tarjan compound-block queue, level-tagged: groups of blocks
/// that resulted from splitting what used to be a single block, against
/// whose *union* the rest of the partition is still known to be stable.
/// `pop_lowest` serves the compound with the smallest level first (the
/// Figure 7 requirement); the 1-index instantiates it with a single
/// level, which degenerates to plain FIFO order.
///
/// A block belongs to at most one compound. When a member splits, its
/// new half joins the same compound ("replace K in 𝓙 with the inodes in
/// 𝓚"); when a block splits outside any compound, a fresh two-member
/// compound is enqueued.
#[derive(Debug)]
pub struct CompoundQueue<K: Copy + Ord + Debug> {
    slots: Vec<Option<(usize, Vec<K>)>>,
    by_level: Vec<VecDeque<usize>>,
    member: BTreeMap<K, usize>,
}

impl<K: Copy + Ord + Debug> CompoundQueue<K> {
    /// A queue over `levels` levels (use 1 for un-leveled families).
    pub fn new(levels: usize) -> Self {
        CompoundQueue {
            slots: Vec::new(),
            by_level: (0..levels.max(1)).map(|_| VecDeque::new()).collect(),
            member: BTreeMap::new(),
        }
    }

    /// Enqueues a compound of (≥2) blocks at `level`.
    pub fn push(&mut self, level: usize, compound: Vec<K>) {
        debug_assert!(compound.len() >= 2);
        let slot = self.slots.len();
        for &b in &compound {
            let prev = self.member.insert(b, slot);
            debug_assert!(prev.is_none(), "{b:?} already in a compound");
        }
        self.slots.push(Some((level, compound)));
        self.by_level[level].push_back(slot); // xsi-lint: allow(slice-index, push levels are bounded by the by_level vec built in new)
    }

    /// Current work-queue size: blocks enqueued in live compounds (peak
    /// recorded into [`UpdateStats::queue_peak`]).
    pub fn work_size(&self) -> usize {
        self.member.len()
    }

    /// True when no compound is queued.
    pub fn is_empty(&self) -> bool {
        self.member.is_empty()
    }

    /// Dequeues the lowest-level compound (FIFO within a level),
    /// unregistering its members.
    pub fn pop_lowest(&mut self) -> Option<(usize, Vec<K>)> {
        for level in 0..self.by_level.len() {
            // xsi-lint: allow(slice-index, level iterates 0..by_level.len)
            while let Some(slot) = self.by_level[level].pop_front() {
                // xsi-lint: allow(slice-index, queued slot indexes a pushed slots entry)
                if let Some((l, compound)) = self.slots[slot].take() {
                    debug_assert_eq!(l, level);
                    for b in &compound {
                        self.member.remove(b);
                    }
                    return Some((level, compound));
                }
            }
        }
        None
    }

    /// A real split of `old` produced `new` at `level`: grow `old`'s
    /// compound or open a fresh one.
    pub fn on_split(&mut self, level: usize, old: K, new: K) {
        match self.member.get(&old) {
            Some(&slot) => {
                self.slots[slot] // xsi-lint: allow(slice-index, member values index pushed slots entries)
                    .as_mut()
                    .expect("invariant: member lists only name occupied queue slots")
                    .1
                    .push(new);
                self.member.insert(new, slot);
            }
            None => self.push(level, vec![old, new]),
        }
    }

    /// `old` was wholly replaced by `new` (it is about to be released):
    /// swap the id inside its compound, if any.
    pub fn replace(&mut self, old: K, new: K) {
        if let Some(slot) = self.member.remove(&old) {
            let compound = &mut self.slots[slot] // xsi-lint: allow(slice-index, member values index pushed slots entries)
                .as_mut()
                .expect("invariant: member lists only name occupied queue slots")
                .1;
            let pos = compound
                .iter()
                .position(|&b| b == old)
                .expect("invariant: compound and member list stay in lockstep");
            compound[pos] = new; // xsi-lint: allow(slice-index, pos comes from position over the same compound)
            self.member.insert(new, slot);
        }
    }
}

/// The primitive operations [`process_compounds`] needs from an index
/// family. `stabilize` is the family's partition-splitting primitive: it
/// must split every block with a proper intersection against `marked`
/// and report the resulting splits back into the queue (`on_split` for a
/// partial split, `replace` when the original dies).
pub trait SplitDriver {
    /// The family's block handle.
    type Block: SlotKey;
    /// Number of dnodes under `b` (extent size or subtree weight).
    fn weight_of(&self, b: Self::Block) -> usize;
    /// The block holding dnode `n` at `level` (un-leveled families ignore
    /// `level`).
    fn block_at(&self, n: NodeId, level: usize) -> Self::Block;
    /// The deduplicated dnode successors of the extent under `b` — the
    /// splitter set `Succ(b)`.
    fn scan_succ(&mut self, g: &Graph, b: Self::Block) -> Vec<NodeId>;
    /// A flag table keyed by block slot that the kernel fills and reads
    /// between two `stabilize` calls; `stabilize` may reuse it.
    fn slot_marks(&mut self) -> &mut ScratchTable<bool>;
    /// Stabilizes the partition against `marked`, where `level` is the
    /// splitter's level (un-leveled families ignore it).
    fn stabilize(
        &mut self,
        g: &Graph,
        marked: &[NodeId],
        level: usize,
        cq: &mut CompoundQueue<Self::Block>,
        stats: &mut UpdateStats,
    );
}

/// The Paige–Tarjan propagation loop: repeatedly extract the
/// lowest-level compound, remove a small member `I`, re-enqueue the rest
/// if still compound, and split the partition three ways against
/// `Succ(I)` alone.
///
/// The loop invariant is that every block is stable w.r.t. the *union*
/// of each queued compound. So a block outside `Succ(I)` lies wholly
/// inside `Succ(rest)` or wholly outside it, and only blocks inside
/// `Succ(I)` can split: by `Succ(I)`, then by `Succ(I) ∩ Succ(rest)`
/// (the paper's K₁₁/K₁₂/K₂). The second set is found by probing the
/// parents of each `x ∈ Succ(I)` for one in rest, so a step costs
/// O(Σ_{x∈Succ(I)} indeg(x)) and never reads rest's extents. A node
/// alone in its block one level below the splitter (its 1-index inode,
/// its A(j+1) inode for a level-j compound) cannot split, and is not
/// probed.
///
/// One `KernelScan` span per step: `blocks` is 1 (I), `elems` counts
/// `Succ(I)` plus the parents probed.
pub fn process_compounds<D: SplitDriver>(
    d: &mut D,
    g: &Graph,
    cq: &mut CompoundQueue<D::Block>,
    stats: &mut UpdateStats,
) {
    stats.queue_peak = stats.queue_peak.max(cq.work_size());
    while let Some((level, mut compound)) = cq.pop_lowest() {
        // One CompoundProcess span per Fig. 7 iteration: the whole
        // extract/re-enqueue/three-way-split body is in-span so the span
        // sum accounts for (nearly) the whole split phase.
        let sp = SpanGuard::enter(SpanKind::CompoundProcess);
        sp.add_blocks(compound.len() as u64);
        sp.set_queue_depth(cq.work_size() as u64);
        // Pick I with |I| ≤ ½ Σ|J| — the smallest member qualifies.
        let (min_pos, _) = compound
            .iter()
            .enumerate()
            .min_by_key(|&(_, &b)| d.weight_of(b))
            .expect("invariant: compound splitters contain at least one block");
        let small = compound.swap_remove(min_pos);
        let rest = compound;
        let scan = SpanGuard::enter(SpanKind::KernelScan);
        let splitter = d.scan_succ(g, small);
        // Decided before either stabilize, while rest's blocks are still
        // the compound as popped: a 1-index stabilize can split them.
        let (both, probes) = succ_in_rest(d, g, &splitter, &rest, level);
        if rest.len() >= 2 {
            cq.push(level, rest);
        }
        let elems = (splitter.len() + probes) as u64;
        scan.add_blocks(1);
        scan.add_elems(elems);
        sp.add_elems(elems);
        d.stabilize(g, &splitter, level, cq, stats);
        d.stabilize(g, &both, level, cq, stats);
        stats.queue_peak = stats.queue_peak.max(cq.work_size());
    }
}

/// `Succ(I) ∩ Succ(rest)` for the splitter `succ_i = Succ(I)` and the
/// level-`level` blocks `rest`, plus the number of parents probed. A
/// node whose level-`level + 1` block holds only itself is left out
/// unprobed: no stabilization can split a singleton, so a high
/// in-degree hub alone in its block costs nothing here.
fn succ_in_rest<D: SplitDriver>(
    d: &mut D,
    g: &Graph,
    succ_i: &[NodeId],
    rest: &[D::Block],
    level: usize,
) -> (Vec<NodeId>, usize) {
    let marks = d.slot_marks();
    marks.begin();
    for &b in rest {
        marks.set(b.idx(), true);
    }
    let mut both = Vec::new();
    let mut probes = 0;
    for &x in succ_i {
        if d.weight_of(d.block_at(x, level + 1)) == 1 {
            continue;
        }
        for p in g.pred(x) {
            probes += 1;
            let b = d.block_at(p, level);
            if d.slot_marks().get(b.idx()) == Some(true) {
                both.push(x);
                break;
            }
        }
    }
    (both, probes)
}

/// "No block, no record" in the solver's `u32` tables.
const NONE: u32 = u32::MAX;

/// A block of the solver's current partition P: the segment
/// `elems[start..end]` of its node permutation, whose prefix
/// `start..mid` holds the nodes the split in progress marked, plus its
/// links in the member list of its X-block `x`.
#[derive(Clone, Copy)]
struct PBlock {
    start: u32,
    mid: u32,
    end: u32,
    x: u32,
    prev: u32,
    next: u32,
}

/// A block of the coarser partition X (a compound when `len ≥ 2`): the
/// head of its intrusive list of P-blocks, and the list's length. Every
/// P-block is stable with respect to the union of each X-block.
#[derive(Clone, Copy)]
struct XBlock {
    head: u32,
    len: u32,
}

/// The coarsest stable refinement of `init_class` (Paige–Tarjan
/// \[12\], O(m log n)): the coarsest partition of the nodes `0..n`,
/// `n = init_class.len()`, that refines the initial classes and in
/// which, for every pair of blocks B and D, D lies wholly inside or
/// wholly outside `Succ(B)`. On a data graph labelled by its labels this
/// is the bisimulation the 1-index is built from.
///
/// The graph is a CSR: node `u`'s successors are
/// `succ[succ_offsets[u]..succ_offsets[u + 1]]`. Returns each node's
/// class and the number of classes; class ids are dense, in no
/// particular order.
///
/// The solver works on plain arrays and opens one `KernelScan` span per
/// solve: `blocks` counts the splitter blocks processed, `elems` the
/// dedges scanned to process them. Each dedge is scanned only when its
/// source lies in a splitter at most half the size of the compound it
/// leaves, so `elems` is at most m·log₂ n.
///
/// # Panics
/// Panics if `succ_offsets` is not a non-decreasing sequence of `n + 1`
/// offsets ending at `succ.len()`, or a successor is not below `n`.
pub fn coarsest_stable_partition(
    init_class: &[u32],
    succ_offsets: &[u32],
    succ: &[u32],
) -> (Vec<u32>, usize) {
    let n = init_class.len();
    assert!(
        succ_offsets.len() == n + 1
            && succ_offsets.first() == Some(&0)
            && succ_offsets.last() == Some(&(succ.len() as u32))
            && succ_offsets.windows(2).all(|w| w.first() <= w.last())
            && succ.iter().all(|&x| (x as usize) < n),
        "coarsest_stable_partition: malformed CSR"
    );
    let span = SpanGuard::enter(SpanKind::KernelScan);
    let mut solver = Solver::new(init_class, succ_offsets, succ);
    solver.refine(&span);
    let classes = solver.pblocks.len();
    (solver.block, classes)
}

/// The solver's state. Ids are `u32`: nodes index `elems`/`pos`/`block`,
/// dedges index `succ`/`cnt_ref`, P-block ids index `pblocks` (only
/// pushes create them), X-block ids index `xblocks` (likewise), and
/// count records index `counts`.
struct Solver<'a> {
    succ_offsets: &'a [u32],
    succ: &'a [u32],
    /// The nodes, permuted so that every P-block is one segment.
    elems: Vec<u32>,
    /// Node → its index in `elems`.
    pos: Vec<u32>,
    /// Node → its P-block.
    block: Vec<u32>,
    pblocks: Vec<PBlock>,
    xblocks: Vec<XBlock>,
    /// The compound X-blocks, each once.
    compound: Vec<u32>,
    /// Count records: `counts[cnt_ref[e]]` is count(x, S), the number of
    /// dedges into `x = succ[e]` from the X-block S holding `e`'s source.
    counts: Vec<u32>,
    cnt_ref: Vec<u32>,
    /// Count records no dedge refers to any more.
    free: Vec<u32>,
    /// P-blocks holding marked nodes during one split.
    touched: Vec<u32>,
}

impl<'a> Solver<'a> {
    /// P starts as the initial classes split by "has a parent", so it is
    /// stable with respect to X's one block U, the set of all nodes.
    /// Record `x` is count(x, U) = indeg(x).
    fn new(init_class: &[u32], succ_offsets: &'a [u32], succ: &'a [u32]) -> Self {
        let n = init_class.len();
        let mut counts = vec![0u32; n];
        for &x in succ {
            // xsi-lint: allow(slice-index, successors are node ids below n, checked on entry)
            counts[x as usize] += 1;
        }
        let key = |x: &u32| {
            // xsi-lint: allow(slice-index, x ranges over the node ids 0..n that both tables cover)
            (init_class[*x as usize], counts[*x as usize] > 0)
        };
        let mut elems: Vec<u32> = (0..n as u32).collect();
        elems.sort_by_key(key);
        let mut pblocks = Vec::new();
        let mut block = vec![0u32; n];
        let mut pos = vec![0u32; n];
        let mut start = 0u32;
        for run in elems.chunk_by(|a, b| key(a) == key(b)) {
            let id = pblocks.len() as u32;
            for (i, &x) in (start..).zip(run) {
                // xsi-lint: allow(slice-index, elems is a permutation of the node ids 0..n)
                (block[x as usize], pos[x as usize]) = (id, i);
            }
            let end = start + run.len() as u32;
            pblocks.push(PBlock {
                start,
                mid: start,
                end,
                x: 0,
                prev: id.checked_sub(1).unwrap_or(NONE),
                next: id + 1,
            });
            start = end;
        }
        if let Some(last) = pblocks.last_mut() {
            last.next = NONE;
        }
        let len = pblocks.len() as u32;
        let free = (0..n as u32).filter(|&x| !key(&x).1).collect::<Vec<_>>();
        Solver {
            succ_offsets,
            succ,
            elems,
            pos,
            block,
            xblocks: vec![XBlock { head: 0, len }],
            compound: if len >= 2 { vec![0] } else { Vec::new() },
            pblocks,
            counts,
            cnt_ref: succ.to_vec(),
            free,
            touched: Vec::new(),
        }
    }

    /// Runs Paige–Tarjan to the fixpoint: while X has a compound S, move
    /// its smaller-of-two member B out into an X-block of its own and
    /// split P three ways — by Succ(B), then by Succ(B) ∖ Succ(S ∖ B),
    /// the nodes whose every parent in S lies in B.
    fn refine(&mut self, span: &SpanGuard) {
        let mut splitter: Vec<u32> = Vec::new();
        // Succ(B) as (x, record of count(x, B), record of count(x, S)),
        // each node once, and node → its count(x, B) record.
        let mut hit: Vec<(u32, u32, u32)> = Vec::new();
        let mut rec_b = vec![NONE; self.block.len()];
        let mut marked: Vec<u32> = Vec::new();
        while let Some(s) = self.compound.pop() {
            let b = self.take_splitter(s);
            let PBlock { start, end, .. } = self.pblock(b);
            // B's own nodes may move while P splits, so copy them first.
            splitter.clear();
            // xsi-lint: allow(slice-index, a P-block's segment lies within elems, which holds all n nodes)
            splitter.extend_from_slice(&self.elems[start as usize..end as usize]);
            let mut scanned = 0;
            for &y in &splitter {
                for e in self.out_edges(y) {
                    let (x, rs) = self.edge(e);
                    // xsi-lint: allow(slice-index, successors are node ids below n, the length of rec_b)
                    let rb = &mut rec_b[x as usize];
                    if *rb == NONE {
                        *rb = match self.free.pop() {
                            Some(r) => r,
                            None => {
                                self.counts.push(0);
                                self.counts.len() as u32 - 1
                            }
                        };
                        hit.push((x, *rb, rs));
                    }
                    *self.count_mut(*rb) += 1;
                }
                scanned += self.out_edges(y).len() as u64;
            }
            span.add_blocks(1);
            span.add_elems(scanned);
            marked.clear();
            marked.extend(hit.iter().map(|h| h.0));
            self.split(&marked);
            marked.clear();
            marked.extend(
                hit.iter()
                    .filter(|&&(_, rb, rs)| self.count(rb) == self.count(rs))
                    .map(|h| h.0),
            );
            self.split(&marked);
            // B leaves S: count(x, S ∖ B) = count(x, S) − count(x, B), and
            // B's dedges now refer to the count(x, B) records.
            for &y in &splitter {
                for e in self.out_edges(y) {
                    let (x, _) = self.edge(e);
                    // xsi-lint: allow(slice-index, dedge ids index cnt_ref and successors index rec_b)
                    self.cnt_ref[e] = rec_b[x as usize];
                }
            }
            for &(x, rb, rs) in &hit {
                let c = self.count(rb);
                let left = self.count_mut(rs);
                *left -= c;
                if *left == 0 {
                    self.free.push(rs);
                }
                // xsi-lint: allow(slice-index, successors are node ids below n, the length of rec_b)
                rec_b[x as usize] = NONE;
            }
            hit.clear();
        }
    }

    /// Dedge `e`'s target and the record of count(target, S) for the
    /// X-block S holding its source.
    fn edge(&self, e: usize) -> (u32, u32) {
        // xsi-lint: allow(slice-index, dedge ids come from out_edges, below m = succ.len() = cnt_ref.len())
        (self.succ[e], self.cnt_ref[e])
    }

    fn count(&self, r: u32) -> u32 {
        // xsi-lint: allow(slice-index, records are node ids below n or pushed onto counts, and counts starts n long)
        self.counts[r as usize]
    }

    fn count_mut(&mut self, r: u32) -> &mut u32 {
        // xsi-lint: allow(slice-index, records are node ids below n or pushed onto counts, and counts starts n long)
        &mut self.counts[r as usize]
    }

    /// The dedge ids out of node `y`.
    fn out_edges(&self, y: u32) -> std::ops::Range<usize> {
        let y = y as usize;
        // xsi-lint: allow(slice-index, y is a node id below n and succ_offsets holds n + 1 entries)
        self.succ_offsets[y] as usize..self.succ_offsets[y + 1] as usize
    }

    fn pblock(&self, b: u32) -> PBlock {
        // xsi-lint: allow(slice-index, P-block ids are pblocks indices: only pushes create them)
        self.pblocks[b as usize]
    }

    fn pblock_mut(&mut self, b: u32) -> &mut PBlock {
        // xsi-lint: allow(slice-index, P-block ids are pblocks indices: only pushes create them)
        &mut self.pblocks[b as usize]
    }

    fn xblock_mut(&mut self, x: u32) -> &mut XBlock {
        // xsi-lint: allow(slice-index, X-block ids are xblocks indices: only pushes create them)
        &mut self.xblocks[x as usize]
    }

    /// Unlinks the smaller of compound `s`'s first two P-blocks (at most
    /// half of `s`), requeues `s` if it is still compound, and gives the
    /// P-block an X-block of its own.
    fn take_splitter(&mut self, s: u32) -> u32 {
        let size = |p: PBlock| p.end - p.start;
        let b1 = self.xblock_mut(s).head;
        let p1 = self.pblock(b1);
        let b = if size(p1) <= size(self.pblock(p1.next)) {
            b1
        } else {
            p1.next
        };
        let PBlock { prev, next, .. } = self.pblock(b);
        match prev {
            NONE => self.xblock_mut(s).head = next,
            _ => self.pblock_mut(prev).next = next,
        }
        if next != NONE {
            self.pblock_mut(next).prev = prev;
        }
        let xs = self.xblock_mut(s);
        xs.len -= 1;
        if xs.len >= 2 {
            self.compound.push(s);
        }
        let x = self.xblocks.len() as u32;
        self.xblocks.push(XBlock { head: b, len: 1 });
        let p = self.pblock_mut(b);
        (p.x, p.prev, p.next) = (x, NONE, NONE);
        b
    }

    /// Splits every P-block that `marked` (distinct nodes) properly
    /// intersects: the marked nodes are swapped to the front of their
    /// segment and leave as a new P-block in the same X-block. O(|marked|).
    fn split(&mut self, marked: &[u32]) {
        for &x in marked {
            let x = x as usize;
            // xsi-lint: allow(slice-index, marked nodes are node ids below n)
            let (b, i) = (self.block[x], self.pos[x]);
            let p = self.pblock_mut(b);
            let (j, first) = (p.mid, p.mid == p.start);
            p.mid += 1;
            if first {
                self.touched.push(b);
            }
            // xsi-lint: allow(slice-index, i and j lie in b's segment of elems)
            let y = self.elems[j as usize];
            self.elems.swap(i as usize, j as usize);
            // xsi-lint: allow(slice-index, x and y are node ids below n)
            (self.pos[x], self.pos[y as usize]) = (j, i);
        }
        let mut touched = std::mem::take(&mut self.touched);
        for b in touched.drain(..) {
            let p = self.pblock(b);
            if p.mid == p.end {
                // Wholly marked: nothing splits.
                self.pblock_mut(b).mid = p.start;
                continue;
            }
            let nb = self.pblocks.len() as u32;
            // xsi-lint: allow(slice-index, a P-block's segment lies within elems, which holds all n nodes)
            for &x in &self.elems[p.start as usize..p.mid as usize] {
                // xsi-lint: allow(slice-index, elems holds node ids below n)
                self.block[x as usize] = nb;
            }
            self.pblock_mut(b).start = p.mid;
            let xb = self.xblock_mut(p.x);
            let head = xb.head;
            (xb.head, xb.len) = (nb, xb.len + 1);
            if xb.len == 2 {
                self.compound.push(p.x);
            }
            self.pblock_mut(head).prev = nb;
            self.pblocks.push(PBlock {
                start: p.start,
                mid: p.start,
                end: p.mid,
                x: p.x,
                prev: NONE,
                next: head,
            });
        }
        self.touched = touched;
    }
}

/// The primitive operations [`merge_fold`] needs from an index family.
pub trait MergeDriver {
    /// The family's block handle.
    type Block: Copy + Ord + Debug;
    /// Merge-equivalence key: two successors merge iff their keys are
    /// equal (label + index-parent set for the 1-index; tree parent +
    /// cross-parent set for the A(k) chain).
    type GroupKey: Ord;
    /// The index successors of `b` to consider for merging.
    fn merge_successors(&self, b: Self::Block) -> Vec<Self::Block>;
    /// The merge-equivalence key of `b`.
    fn merge_key(&self, b: Self::Block) -> Self::GroupKey;
    /// Whether `b` is still a live, current handle (queued blocks can be
    /// merged away before they are served).
    fn is_live(&self, b: Self::Block) -> bool;
    /// Merges a group of (≥2, sorted) equivalent blocks, returning the
    /// survivor and accounting the merges in `stats`.
    fn merge_group(&mut self, group: &[Self::Block], stats: &mut UpdateStats) -> Self::Block;
    /// Whether the survivor's own successors should be reconsidered.
    fn requeue(&self, survivor: Self::Block) -> bool;
}

/// The iterative merge fold: starting from `seed`, group each served
/// block's successors by merge key, fold every group of ≥2 into one
/// survivor, and requeue survivors whose successors may now merge in
/// turn. Grouping is a `BTreeMap`, so merge order — and therefore
/// surviving block ids — is deterministic.
pub fn merge_fold<D: MergeDriver>(d: &mut D, seed: D::Block, stats: &mut UpdateStats) {
    let mut queue: VecDeque<D::Block> = VecDeque::new();
    let mut queued: BTreeSet<D::Block> = BTreeSet::new();
    queue.push_back(seed);
    queued.insert(seed);
    while let Some(i) = queue.pop_front() {
        queued.remove(&i);
        if !d.is_live(i) {
            continue; // merged away after being enqueued
        }
        // One CompoundProcess span per served work item (the merge-side
        // analogue of the split loop's compound iteration), with one
        // Merge child per folded group.
        let sp = SpanGuard::enter(SpanKind::CompoundProcess);
        sp.set_queue_depth(queue.len() as u64 + 1);
        let mut groups: BTreeMap<D::GroupKey, Vec<D::Block>> = BTreeMap::new();
        for c in d.merge_successors(i) {
            groups.entry(d.merge_key(c)).or_default().push(c);
        }
        for (_, mut group) in groups {
            if group.len() < 2 {
                continue;
            }
            group.sort_unstable();
            let m = SpanGuard::enter(SpanKind::Merge);
            m.add_blocks(group.len() as u64);
            sp.add_blocks(group.len() as u64);
            let survivor = d.merge_group(&group, stats);
            drop(m);
            if d.requeue(survivor) && queued.insert(survivor) {
                queue.push_back(survivor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compound_queue_grow_and_replace_semantics() {
        let mut cq: CompoundQueue<u32> = CompoundQueue::new(1);
        cq.push(0, vec![1, 2]);
        cq.on_split(0, 1, 3); // 1 in a compound → same compound grows
        cq.on_split(0, 4, 5); // 4 not in a compound → new compound
        assert_eq!(cq.work_size(), 5);
        let (_, first) = cq.pop_lowest().unwrap();
        assert_eq!(first, vec![1, 2, 3]);
        cq.replace(4, 9); // 4 dies, 9 takes its place in the compound
        let (_, second) = cq.pop_lowest().unwrap();
        assert_eq!(second, vec![9, 5]);
        assert!(cq.pop_lowest().is_none());
        assert!(cq.is_empty());
    }

    #[test]
    fn pop_lowest_serves_levels_ascending_fifo_within() {
        let mut cq: CompoundQueue<u32> = CompoundQueue::new(3);
        cq.push(2, vec![10, 11]);
        cq.push(0, vec![1, 2]);
        cq.push(2, vec![20, 21]);
        cq.push(1, vec![5, 6]);
        let order: Vec<usize> = std::iter::from_fn(|| cq.pop_lowest().map(|(l, _)| l)).collect();
        assert_eq!(order, vec![0, 1, 2, 2]);
    }

    /// The solver's classes as sorted node lists, sorted.
    fn classes(init: &[u32], offsets: &[u32], succ: &[u32]) -> Vec<Vec<u32>> {
        let (class_of, n) = coarsest_stable_partition(init, offsets, succ);
        let mut out = vec![Vec::new(); n];
        for (x, &c) in (0u32..).zip(&class_of) {
            out[c as usize].push(x);
        }
        out.sort();
        out
    }

    #[test]
    fn solver_on_empty_input() {
        assert_eq!(coarsest_stable_partition(&[], &[0], &[]), (vec![], 0));
    }

    /// r → a1, a2, c; c → a3; a1 → y1, y3; a3 → y2, y3. The y's have
    /// a-parents {a1}, {a3} and {a1, a3}; whichever a-block serves as
    /// splitter B, the y with parents in both is told apart from the
    /// one with parents in B alone only by the count split.
    #[test]
    fn solver_splits_by_remaining_parent_counts() {
        let (r, a, c, y) = (0, 1, 2, 3);
        let init = [r, a, a, c, a, y, y, y];
        let offsets = [0, 3, 5, 5, 6, 8, 8, 8, 8];
        let succ = [1, 2, 3, 5, 7, 4, 6, 7];
        assert_eq!(
            classes(&init, &offsets, &succ),
            vec![
                vec![0],
                vec![1, 2],
                vec![3],
                vec![4],
                vec![5],
                vec![6],
                vec![7]
            ]
        );
    }

    #[test]
    #[should_panic(expected = "malformed CSR")]
    fn solver_rejects_a_successor_out_of_range() {
        coarsest_stable_partition(&[0, 0], &[0, 1, 1], &[2]);
    }

    #[test]
    fn replace_outside_any_compound_is_a_noop() {
        let mut cq: CompoundQueue<u32> = CompoundQueue::new(1);
        cq.replace(7, 8);
        assert!(cq.is_empty());
    }
}
