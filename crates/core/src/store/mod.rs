//! # `core::store` — the dense data plane (DESIGN.md §10)
//!
//! The paper's split/merge loops spend their time in exactly three
//! access patterns: *block-by-id* (extent moves, partner allocation),
//! *count-by-neighbor-block* (iedge multiplicities), and
//! *value-by-node* (assignment and position side tables). Before this
//! module those went through `Vec` + hand-rolled free lists and
//! `HashMap`s — the same structure class behind the PR 2/PR 4
//! nondeterminism bug family. The store gives each pattern a dedicated
//! dense structure:
//!
//! * [`SlotMap`] — generation-checked block storage. Recycled slots bump
//!   a generation counter, and every handle ([`SlotKey`]) carries the
//!   generation it was minted with, so a stale handle (held across a
//!   `release`) is caught by `debug_assert` instead of silently reading
//!   the block that reused the slot.
//! * [`IedgeMap`] — adaptive neighbor-count maps. Low-degree blocks (the
//!   overwhelmingly common case in XML block graphs) stay in an inline
//!   sorted array; above [`iedge::INLINE_CAP`] entries the map spills to
//!   a `BTreeMap`. Both representations iterate in sorted key order, so
//!   iteration order can never leak nondeterminism.
//! * [`ScratchTable`] — epoch-stamped dense maps over slot indexes for
//!   the transient per-operation tables (splitter counts, partner
//!   assignment) that used to be freshly allocated `HashMap`s on every
//!   `split_by_set` call.
//! * [`Extents`] — extent membership for both index families: the
//!   node→block and node→position tables and one `Arc`-shared,
//!   copy-on-write run per block slot. It is the storage contract behind
//!   [`crate::view::IndexSnapshot`]: a freeze shares every run in O(1)
//!   each, and the writer's next mutation of a frozen block clones only
//!   that block's run. The run type (`cow::CowVec`) is private to this
//!   module, so every extent write goes through `Extents`.
//!
//! The [`StoreReport`] summarizes iedge-map representation state for the
//! obs layer (inline vs spilled population, cumulative spill events,
//! probe lengths).

mod cow;
pub mod extents;
pub mod iedge;
pub mod scratch;
pub mod slot;

pub use extents::Extents;
pub use iedge::{IedgeMap, IedgeRepr};
pub use scratch::ScratchTable;
pub use slot::{SlotKey, SlotMap};

/// A point-in-time summary of every [`IedgeMap`] owned by one index
/// structure, cheap enough to compute on demand (one pass over the
/// block table) and exported through the obs layer as gauges plus a
/// probe-length histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Live maps currently in the inline representation.
    pub inline_maps: u64,
    /// Live maps currently spilled to the sorted-map representation.
    pub spilled_maps: u64,
    /// Cumulative inline→spilled transitions, including maps that have
    /// since been cleared or whose block was recycled.
    pub spill_events: u64,
    /// Total (block, neighbor) entries across live maps.
    pub entries: u64,
    /// Largest live map.
    pub max_entries: u64,
    /// Sum over live maps of the worst-case comparison count of one
    /// lookup (⌈log₂ len⌉ + 1); divide by the map population for a mean
    /// probe length.
    pub probe_total: u64,
    /// Live blocks scanned.
    pub blocks: u64,
}

impl StoreReport {
    /// Folds one *live* map's representation state into the report.
    /// Spill events are accounted separately (they survive in recycled
    /// slots): add [`IedgeMap::spill_count`] over **all** slots to
    /// `spill_events`.
    pub fn absorb<K: slot::SlotKey>(&mut self, m: &IedgeMap<K>) {
        match m.repr() {
            IedgeRepr::Inline => self.inline_maps += 1,
            IedgeRepr::Spilled => self.spilled_maps += 1,
        }
        let len = m.len() as u64;
        self.entries += len;
        self.max_entries = self.max_entries.max(len);
        self.probe_total += m.probe_len() as u64;
    }

    /// Merges another report (e.g. per-level or per-family shards).
    pub fn merge(&mut self, other: &StoreReport) {
        self.inline_maps += other.inline_maps;
        self.spilled_maps += other.spilled_maps;
        self.spill_events += other.spill_events;
        self.entries += other.entries;
        self.max_entries = self.max_entries.max(other.max_entries);
        self.probe_total += other.probe_total;
        self.blocks += other.blocks;
    }
}
