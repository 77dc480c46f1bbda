//! Hierarchical causal spans over the update pipeline — with the
//! [`crate::stats::UpdateStats`] each index dispatch returns, the only
//! instrumentation fact the pipeline records (DESIGN.md §8).
//!
//! RAII [`SpanGuard`]s with parent ids and typed [`SpanKind`]s form a
//! proper tree (`Op` → `IndexDispatch` → `Split` → `CompoundProcess` →
//! `KernelScan`, …) with close-time attached [`SpanCounters`]. Every
//! trace format is derived from the closed [`SpanRecord`]s: Chrome
//! trace-event JSON, folded stacks, and the deterministic stable lines
//! that conformance reproducers and the postmortem black box embed
//! (see [`crate::obs::export`]).
//!
//! # Single-writer span stack
//!
//! The pipeline's write side is single-writer by design (one
//! `UpdateEngine` owns the graph), so span collection is a *thread
//! local* stack: `begin_collection` arms the current thread,
//! [`SpanGuard::enter`] pushes, `Drop` pops, `end_collection` hands the
//! finished [`SpanTree`] back. Thread locality is what lets the kernel's
//! free functions ([`crate::kernel::process_compounds`] and friends) and
//! the maintainers open spans without threading an `&mut ObsHub` through
//! every signature — the hub stays the metrics sink, the span stack is
//! ambient.
//!
//! # Self-overhead contract
//!
//! A span callsite with collection disabled must cost *one thread-local
//! flag read and a branch* — no clock read, no allocation, no record
//! construction. [`SpanGuard::enter`] checks the flag first and returns
//! an inert guard (`id == 0`) whose `Drop` and counter methods are
//! no-ops. `benches/obs_overhead.rs` holds this to "within noise".
//!
//! # Panic balance
//!
//! Guards close in `Drop`, so unwinding through an instrumented region
//! still closes every open span (durations are stamped at unwind time).
//! A guard that is dropped out of open order (stashed in a struct,
//! leaked child) closes every span opened after it as well, so the
//! stack can never wedge. `end_collection` with guards still open
//! simply detaches them: a stale guard holds a generation tag and will
//! not touch a newer collection.
//!
//! # Overflow policy
//!
//! Collections are capped (default [`DEFAULT_CAP`]). When full,
//! `enter` counts the span as dropped and returns an inert guard —
//! drop-*newest*, so every recorded parent id stays valid and the open
//! stack stays balanced. [`SpanTree::dropped`] reports the loss.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Compact handle to a registered index family (slot order of
/// [`crate::obs::ObsHub::register_family`]). `NONE` marks spans and
/// metric series that are not about any particular index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexFamily(pub u16);

impl IndexFamily {
    /// "No family": engine- and kernel-level spans.
    pub const NONE: IndexFamily = IndexFamily(u16::MAX);
}

/// The kind of update operation flowing through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A node addition.
    AddNode,
    /// An edge insertion.
    InsertEdge,
    /// An edge deletion.
    DeleteEdge,
    /// A node removal (decomposes into edge deletions).
    RemoveNode,
}

impl OpKind {
    /// Stable kebab-case label (the metrics `op` label).
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::AddNode => "add-node",
            OpKind::InsertEdge => "insert-edge",
            OpKind::DeleteEdge => "delete-edge",
            OpKind::RemoveNode => "remove-node",
        }
    }
}

/// One phase segment of [`crate::batch::apply_batch_traced`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSegment {
    /// Phase 1: node additions.
    AddNodes,
    /// Phase 2: edge insertions.
    InsertEdges,
    /// Phase 3: explicit edge deletions.
    DeleteEdges,
    /// Phase 4: node removals (incl. implicit edge sweeps).
    RemoveNodes,
}

impl BatchSegment {
    /// Stable kebab-case label (the metrics `phase` label).
    pub fn as_str(self) -> &'static str {
        match self {
            BatchSegment::AddNodes => "add-nodes",
            BatchSegment::InsertEdges => "insert-edges",
            BatchSegment::DeleteEdges => "delete-edges",
            BatchSegment::RemoveNodes => "remove-nodes",
        }
    }
}

/// Typed span kinds, one per causal layer of the update pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One update operation entering the engine.
    Op,
    /// One registered index observing a mutation (per-family).
    IndexDispatch,
    /// One compound-block iteration of the paper's Fig. 7 loop
    /// (`process_compounds`), or one served work item of a merge fold.
    CompoundProcess,
    /// One splitter scan over `Succ(extent)` (or a whole
    /// `refine_to_fixpoint` run during builds).
    KernelScan,
    /// The split phase of one index's maintenance (wraps exactly the
    /// region timed into `UpdateStats::split_nanos`).
    Split,
    /// The merge phase of one index's maintenance (wraps exactly the
    /// region timed into `UpdateStats::merge_nanos`), and each
    /// individual block-group merge inside it.
    Merge,
    /// One phase segment of a batch application.
    BatchSegment,
    /// A policy-triggered index rebuild.
    Rebuild,
    /// An index being frozen into an in-memory snapshot.
    Freeze,
}

impl SpanKind {
    /// Stable name (Chrome-trace `name` field, folded-stack frame).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "Op",
            SpanKind::IndexDispatch => "IndexDispatch",
            SpanKind::CompoundProcess => "CompoundProcess",
            SpanKind::KernelScan => "KernelScan",
            SpanKind::Split => "Split",
            SpanKind::Merge => "Merge",
            SpanKind::BatchSegment => "BatchSegment",
            SpanKind::Rebuild => "Rebuild",
            SpanKind::Freeze => "Freeze",
        }
    }
}

/// Counters attached to a span at close time. All additive; zero means
/// "not applicable to this kind".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanCounters {
    /// Blocks touched (compound members, merge-group sizes, frozen
    /// blocks).
    pub blocks: u64,
    /// Extent elements scanned (splitter-scan result sizes).
    pub elems: u64,
    /// Compound work-queue depth observed at the span's open (peak over
    /// `set_queue_depth` calls).
    pub queue_depth: u64,
    /// Copy-on-write extent clones attributed to the span.
    pub cow_clones: u64,
}

impl SpanCounters {
    /// Elementwise sum (`queue_depth` takes the max — it is a level,
    /// not a volume).
    pub fn absorb(&mut self, other: &SpanCounters) {
        self.blocks += other.blocks;
        self.elems += other.elems;
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.cow_clones += other.cow_clones;
    }
}

/// One closed span. Ids are 1-based in open order; `parent == 0` marks
/// a root. Children always appear after their parent in
/// [`SpanTree::spans`], and close before it (RAII), so `dur_nanos` of a
/// parent always covers the sum of its children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// 1-based id in open order.
    pub id: u32,
    /// Parent id, or 0 for a root span.
    pub parent: u32,
    /// What layer of the pipeline this span covers.
    pub kind: SpanKind,
    /// Index family, or [`IndexFamily::NONE`] for engine/kernel-level
    /// spans (which inherit the family of their nearest ancestor).
    pub family: IndexFamily,
    /// Open time, nanos since the collection began.
    pub ts_nanos: u64,
    /// Close − open, nanos (≥ 1 once closed; 0 only if never closed).
    pub dur_nanos: u64,
    /// Close-time attached counters.
    pub counters: SpanCounters,
}

/// A finished collection: the span forest plus the overflow count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// All spans in open order (parents before children).
    pub spans: Vec<SpanRecord>,
    /// Spans not recorded because the collection cap was hit.
    pub dropped: u64,
}

impl SpanTree {
    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The span with the given 1-based id.
    pub fn get(&self, id: u32) -> Option<&SpanRecord> {
        if id == 0 {
            return None;
        }
        self.spans.get((id - 1) as usize)
    }

    /// How many spans of `kind` were recorded.
    pub fn kind_count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Total duration (self + children, since parents cover children)
    /// over all spans of `kind`. Note nested same-kind spans are each
    /// counted, so only compare against kinds that do not self-nest.
    pub fn kind_nanos(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_nanos)
            .sum()
    }

    /// Counter totals over all spans of `kind`.
    pub fn kind_counters(&self, kind: SpanKind) -> SpanCounters {
        let mut acc = SpanCounters::default();
        for s in self.spans.iter().filter(|s| s.kind == kind) {
            acc.absorb(&s.counters);
        }
        acc
    }

    /// The direct children of span `id` (0 = the roots).
    pub fn children_of(&self, id: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == id)
    }

    /// The family in effect for span `id`: its own, or the nearest
    /// ancestor's (kernel spans are opened below the per-family
    /// `IndexDispatch` span and carry `NONE` themselves).
    pub fn effective_family(&self, id: u32) -> IndexFamily {
        let mut cur = id;
        // Parents have strictly smaller ids, so this walk terminates.
        while let Some(s) = self.get(cur) {
            if s.family != IndexFamily::NONE {
                return s.family;
            }
            cur = s.parent;
        }
        IndexFamily::NONE
    }

    /// True iff every span closed (nonzero duration) and every parent
    /// link points at an earlier span.
    pub fn is_well_formed(&self) -> bool {
        self.spans
            .iter()
            .enumerate()
            .all(|(i, s)| s.id == (i + 1) as u32 && s.parent < s.id && s.dur_nanos > 0)
    }
}

/// Default collection cap: ~64 MiB of span records, far above any
/// single benchmark run while still bounding a runaway loop.
pub const DEFAULT_CAP: usize = 1 << 20;

struct Collector {
    epoch: Instant,
    generation: u32,
    spans: Vec<SpanRecord>,
    stack: Vec<u32>,
    cap: usize,
    dropped: u64,
}

thread_local! {
    /// Hot-path gate: one read + branch when collection is off.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static GENERATION: Cell<u32> = const { Cell::new(0) };
}

/// Arm span collection on the current thread (default cap).
pub fn begin_collection() {
    begin_collection_with_cap(DEFAULT_CAP)
}

/// Arm span collection on the current thread with an explicit span cap
/// (drop-newest past the cap). Replaces any in-progress collection;
/// guards from the replaced collection become inert.
pub fn begin_collection_with_cap(cap: usize) {
    let generation = GENERATION.with(|g| {
        let next = g.get().wrapping_add(1);
        g.set(next);
        next
    });
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            epoch: Instant::now(),
            generation,
            spans: Vec::new(),
            stack: Vec::new(),
            cap: cap.max(1),
            dropped: 0,
        });
    });
    ACTIVE.with(|a| a.set(true));
}

/// Disarm collection and hand back the finished tree. Returns an empty
/// tree when no collection was active.
pub fn end_collection() -> SpanTree {
    ACTIVE.with(|a| a.set(false));
    COLLECTOR
        .with(|c| c.borrow_mut().take())
        .map(|col| SpanTree {
            spans: col.spans,
            dropped: col.dropped,
        })
        .unwrap_or_default()
}

/// True while the current thread is collecting spans.
#[inline]
pub fn is_collecting() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Number of currently-open spans (test hook for panic-balance checks).
pub fn open_depth() -> usize {
    COLLECTOR.with(|c| c.borrow().as_ref().map_or(0, |col| col.stack.len()))
}

/// The currently-open span stack, outermost first, rendered as stable
/// `Kind` / `Kind[family-id]` frames. Empty when collection is off.
///
/// This is the postmortem hook's view: a panic hook runs *before*
/// unwinding drops the open [`SpanGuard`]s, so calling this from a
/// `std::panic` hook captures exactly where in the pipeline the panic
/// fired (see [`crate::obs::postmortem`]).
pub fn open_spans() -> Vec<String> {
    COLLECTOR.with(|c| {
        let borrow = c.borrow();
        let Some(col) = borrow.as_ref() else {
            return Vec::new();
        };
        col.stack
            .iter()
            .filter_map(|&id| col.spans.get((id - 1) as usize))
            .map(|s| {
                if s.family == IndexFamily::NONE {
                    s.kind.name().to_string()
                } else {
                    format!("{}[{}]", s.kind.name(), s.family.0)
                }
            })
            .collect()
    })
}

/// RAII handle to one open span. Obtained from [`SpanGuard::enter`];
/// the span closes (duration stamped, stack popped) when the guard
/// drops. Inert (all methods no-ops) when collection is off.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard {
    /// 0 = inert (collection off, cap hit, or stale generation).
    id: u32,
    generation: u32,
}

impl SpanGuard {
    /// Open a span with no family attribution. One flag read + branch
    /// when collection is off — no clock read, no allocation.
    #[inline]
    pub fn enter(kind: SpanKind) -> SpanGuard {
        if !is_collecting() {
            return SpanGuard {
                id: 0,
                generation: 0,
            };
        }
        Self::enter_slow(kind, IndexFamily::NONE)
    }

    /// Open a span attributed to an index family.
    #[inline]
    pub fn enter_family(kind: SpanKind, family: IndexFamily) -> SpanGuard {
        if !is_collecting() {
            return SpanGuard {
                id: 0,
                generation: 0,
            };
        }
        Self::enter_slow(kind, family)
    }

    #[cold]
    fn enter_slow(kind: SpanKind, family: IndexFamily) -> SpanGuard {
        COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let Some(col) = slot.as_mut() else {
                return SpanGuard {
                    id: 0,
                    generation: 0,
                };
            };
            if col.spans.len() >= col.cap {
                col.dropped += 1;
                return SpanGuard {
                    id: 0,
                    generation: 0,
                };
            }
            let id = clamp_id(col.spans.len() + 1);
            let parent = col.stack.last().copied().unwrap_or(0);
            let ts_nanos = nanos_since(col.epoch);
            col.spans.push(SpanRecord {
                id,
                parent,
                kind,
                family,
                ts_nanos,
                dur_nanos: 0,
                counters: SpanCounters::default(),
            });
            col.stack.push(id);
            SpanGuard {
                id,
                generation: col.generation,
            }
        })
    }

    /// True when this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.id != 0
    }

    /// Add to the blocks-touched counter.
    #[inline]
    pub fn add_blocks(&self, n: u64) {
        self.update(|c| c.blocks += n);
    }

    /// Add to the extent-elements-scanned counter.
    #[inline]
    pub fn add_elems(&self, n: u64) {
        self.update(|c| c.elems += n);
    }

    /// Record the compound work-queue depth (peak is kept).
    #[inline]
    pub fn set_queue_depth(&self, depth: u64) {
        self.update(|c| c.queue_depth = c.queue_depth.max(depth));
    }

    /// Add to the copy-on-write clone counter.
    #[inline]
    pub fn add_cow_clones(&self, n: u64) {
        self.update(|c| c.cow_clones += n);
    }

    fn update(&self, f: impl FnOnce(&mut SpanCounters)) {
        if self.id == 0 {
            return;
        }
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                if col.generation != self.generation {
                    return;
                }
                if let Some(rec) = col.spans.get_mut((self.id - 1) as usize) {
                    f(&mut rec.counters);
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        // try_with: a guard dropped during thread teardown must not
        // re-initialize (or panic on) a destroyed thread local.
        let _ = COLLECTOR.try_with(|c| {
            let mut slot = c.borrow_mut();
            let Some(col) = slot.as_mut() else { return };
            if col.generation != self.generation {
                return; // stale guard from a replaced collection
            }
            if !col.stack.contains(&self.id) {
                return; // already closed by an out-of-order ancestor drop
            }
            let now = nanos_since(col.epoch);
            // Close everything opened after us too (leaked children,
            // unwind in odd orders): the stack stays balanced.
            while let Some(top) = col.stack.pop() {
                if let Some(rec) = col.spans.get_mut((top - 1) as usize) {
                    if rec.dur_nanos == 0 {
                        rec.dur_nanos = now.saturating_sub(rec.ts_nanos).max(1);
                    }
                }
                if top == self.id {
                    break;
                }
            }
        });
    }
}

#[inline]
fn nanos_since(epoch: Instant) -> u64 {
    let n = epoch.elapsed().as_nanos();
    if n > u64::MAX as u128 {
        u64::MAX
    } else {
        n as u64
    }
}

#[inline]
fn clamp_id(n: usize) -> u32 {
    // The cap (≤ DEFAULT_CAP by construction in practice, and at most
    // the collector's configured cap) keeps ids far below u32::MAX;
    // saturate defensively rather than truncate.
    if n > u32::MAX as usize {
        u32::MAX
    } else {
        n as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_enter_is_inert() {
        assert!(!is_collecting());
        let g = SpanGuard::enter(SpanKind::Op);
        assert!(!g.is_recording());
        g.add_blocks(5);
        drop(g);
        assert_eq!(end_collection(), SpanTree::default());
    }

    #[test]
    fn nesting_records_parent_links() {
        begin_collection();
        {
            let op = SpanGuard::enter(SpanKind::Op);
            assert!(op.is_recording());
            {
                let d = SpanGuard::enter_family(SpanKind::IndexDispatch, IndexFamily(2));
                let s = SpanGuard::enter(SpanKind::Split);
                s.add_blocks(3);
                s.add_elems(7);
                drop(s);
                drop(d);
            }
        }
        let tree = end_collection();
        assert!(tree.is_well_formed());
        assert_eq!(tree.len(), 3);
        let op = &tree.spans[0];
        let disp = &tree.spans[1];
        let split = &tree.spans[2];
        assert_eq!((op.kind, op.parent), (SpanKind::Op, 0));
        assert_eq!((disp.kind, disp.parent), (SpanKind::IndexDispatch, op.id));
        assert_eq!((split.kind, split.parent), (SpanKind::Split, disp.id));
        assert_eq!(split.counters.blocks, 3);
        assert_eq!(split.counters.elems, 7);
        assert_eq!(tree.effective_family(split.id), IndexFamily(2));
        assert_eq!(tree.effective_family(op.id), IndexFamily::NONE);
        // RAII: children closed no later than their parent's close.
        assert!(split.ts_nanos >= disp.ts_nanos);
        assert!(split.ts_nanos + split.dur_nanos <= disp.ts_nanos + disp.dur_nanos);
    }

    #[test]
    fn panic_unwinding_closes_open_spans() {
        begin_collection();
        let caught = std::panic::catch_unwind(|| {
            let _op = SpanGuard::enter(SpanKind::Op);
            let _scan = SpanGuard::enter(SpanKind::KernelScan);
            panic!("boom");
        });
        assert!(caught.is_err());
        assert_eq!(open_depth(), 0, "unwind must pop every open span");
        let tree = end_collection();
        assert!(tree.is_well_formed(), "unwound spans still get durations");
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn cap_drops_newest_and_counts() {
        begin_collection_with_cap(2);
        let a = SpanGuard::enter(SpanKind::Op);
        let b = SpanGuard::enter(SpanKind::Split);
        let c = SpanGuard::enter(SpanKind::Merge);
        assert!(a.is_recording() && b.is_recording());
        assert!(!c.is_recording());
        drop(c);
        drop(b);
        drop(a);
        let tree = end_collection();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.dropped, 1);
        assert!(tree.is_well_formed());
    }

    #[test]
    fn stale_guard_from_replaced_collection_is_ignored() {
        begin_collection();
        let stale = SpanGuard::enter(SpanKind::Op);
        begin_collection(); // replaces the collection mid-span
        let fresh = SpanGuard::enter(SpanKind::Rebuild);
        stale.add_blocks(99); // must not touch the fresh collection
        drop(stale);
        drop(fresh);
        let tree = end_collection();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.spans[0].kind, SpanKind::Rebuild);
        assert_eq!(tree.spans[0].counters.blocks, 0);
    }

    #[test]
    fn out_of_order_drop_closes_descendants() {
        begin_collection();
        let outer = SpanGuard::enter(SpanKind::Op);
        let inner = SpanGuard::enter(SpanKind::KernelScan);
        drop(outer); // closes inner too
        assert_eq!(open_depth(), 0);
        drop(inner); // no-op: already closed
        let tree = end_collection();
        assert_eq!(tree.len(), 2);
        assert!(tree.is_well_formed());
    }

    #[test]
    fn queue_depth_keeps_peak() {
        begin_collection();
        let g = SpanGuard::enter(SpanKind::CompoundProcess);
        g.set_queue_depth(3);
        g.set_queue_depth(1);
        drop(g);
        let tree = end_collection();
        assert_eq!(tree.spans[0].counters.queue_depth, 3);
    }
}
