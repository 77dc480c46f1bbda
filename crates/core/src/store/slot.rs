//! Generation-checked slot map: dense block storage with stale-handle
//! detection.
//!
//! Block ids are recycled through a LIFO free list (so id assignment
//! stays deterministic and dense), which historically meant a handle
//! held across a `release` could silently alias whatever block reused
//! the slot. Here every slot carries a generation that is bumped on
//! release, and every handle carries the generation it was minted with;
//! `debug_assert`s on each access catch staleness in debug builds and
//! the `release-debug-asserts` CI job, while release builds pay a plain
//! array index.

use std::marker::PhantomData;

/// A typed handle into a [`SlotMap`]: a slot index plus the generation
/// the handle was minted with. Implemented by `BlockId` and `ABlockId`
/// so each index family keeps its own handle type.
pub trait SlotKey: Copy + Eq + Ord + std::fmt::Debug {
    /// Reassembles a handle from its parts. `gen` must come from the
    /// owning map (or a serialized snapshot of it).
    fn from_raw_parts(idx: u32, gen: u32) -> Self;
    /// The slot index.
    fn idx(self) -> u32;
    /// The generation this handle was minted with.
    fn gen(self) -> u32;
    /// The slot index as a `usize`, for table indexing.
    fn index(self) -> usize {
        self.idx() as usize
    }
    /// A never-valid handle, usable as an array filler / sentinel.
    fn dangling() -> Self {
        Self::from_raw_parts(u32::MAX, u32::MAX)
    }
}

#[derive(Clone)]
struct Slot<T> {
    /// Bumped every time the slot is released; a handle is current iff
    /// its generation matches.
    gen: u32,
    alive: bool,
    val: T,
}

/// Dense generational storage: values stay in place across recycling
/// (so `Vec` capacity inside them is reused), handles are checked
/// against the slot generation in debug builds.
#[derive(Clone)]
pub struct SlotMap<K: SlotKey, T> {
    slots: Vec<Slot<T>>,
    /// LIFO free list of slot indexes — deterministic reuse order.
    free: Vec<u32>,
    live: usize,
    _key: PhantomData<K>,
}

impl<K: SlotKey, T: Default> Default for SlotMap<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: SlotKey, T: Default> SlotMap<K, T> {
    /// An empty map.
    pub fn new() -> Self {
        SlotMap {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            _key: PhantomData,
        }
    }

    /// Allocates a slot, reusing the most recently released one if any.
    /// The returned value is whatever the slot last held (cleared by the
    /// caller at release time per the release contract) or `T::default()`
    /// for a brand-new slot; the caller re-initializes its fields.
    pub fn alloc(&mut self) -> (K, &mut T) {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let s = &mut self.slots[idx as usize]; // xsi-lint: allow(slice-index, free-list entries index previously pushed slots)
            debug_assert!(!s.alive, "free list entry must be dead");
            s.alive = true;
            (K::from_raw_parts(idx, s.gen), &mut s.val)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("invariant: < 2^32 slots");
            self.slots.push(Slot {
                gen: 0,
                alive: true,
                val: T::default(),
            });
            (K::from_raw_parts(idx, 0), &mut self.slots[idx as usize].val) // xsi-lint: allow(slice-index, idx was just pushed)
        }
    }

    /// Releases a slot: the handle (and every copy of it) becomes stale,
    /// the slot joins the free list, and the value stays in place for
    /// the next `alloc` to reuse.
    pub fn release(&mut self, k: K) {
        debug_assert!(self.is_current(k), "release of stale handle {k:?}");
        let s = &mut self.slots[k.index()]; // xsi-lint: allow(slice-index, release asserts the handle is current, so idx is in range)
        s.alive = false;
        s.gen = s.gen.wrapping_add(1);
        self.live -= 1;
        self.free.push(k.idx());
    }

    /// Is `k` a live, current-generation handle?
    pub fn is_current(&self, k: K) -> bool {
        self.slots
            .get(k.index())
            .is_some_and(|s| s.alive && s.gen == k.gen())
    }

    /// The live handle for slot `idx` (e.g. from a raw `u32` in a query
    /// view or a snapshot), or `None` if the slot is dead or out of
    /// range.
    pub fn handle_at(&self, idx: u32) -> Option<K> {
        self.slots
            .get(idx as usize)
            .filter(|s| s.alive)
            .map(|s| K::from_raw_parts(idx, s.gen))
    }

    /// Number of live slots.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no slot is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + free), i.e. the exclusive
    /// upper bound on slot indexes.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Pre-sizes the slot vector (no slots are allocated).
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Live entries in slot-index order — deterministic by construction.
    pub fn iter(&self) -> impl Iterator<Item = (K, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, s)| (K::from_raw_parts(i as u32, s.gen), &s.val))
    }

    /// Live handles in slot-index order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, s)| K::from_raw_parts(i as u32, s.gen))
    }

    /// Every slot (live or dead) in slot-index order — for storage
    /// reports that account for state retained in recycled slots.
    pub fn iter_all_slots(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|s| &s.val)
    }

    /// Read access without the liveness check (the generation must still
    /// be current) — for the narrow release-path case where a handle is
    /// inspected after `release`. Prefer indexing.
    pub fn get(&self, k: K) -> Option<&T> {
        self.slots
            .get(k.index())
            .filter(|s| s.alive && s.gen == k.gen())
            .map(|s| &s.val)
    }
}

impl<K: SlotKey, T> SlotMap<K, T> {
    /// Heap bytes of the slab shell itself: the slot vector (capacity,
    /// including the per-slot generation/liveness header) and the free
    /// list. Excludes whatever the payloads own — see the `HeapUse`
    /// impl, which adds those.
    pub fn shell_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

impl<K: SlotKey, T: Default + crate::obs::mem::HeapUse> crate::obs::mem::HeapUse for SlotMap<K, T> {
    /// Shell plus payload bytes over *all* slots, dead ones included —
    /// recycled slots deliberately retain their allocations, and this
    /// is where that retention is made visible.
    fn heap_use(&self) -> usize {
        let Self {
            slots,
            free,
            live: _,
            _key: _,
        } = self;
        crate::obs::mem::vec_cap_heap(slots)
            + crate::obs::mem::vec_cap_heap(free)
            + slots
                .iter()
                .map(|s| crate::obs::mem::HeapUse::heap_use(&s.val))
                .sum::<usize>()
    }
}

impl<K: SlotKey, T: Default> std::ops::Index<K> for SlotMap<K, T> {
    type Output = T;
    fn index(&self, k: K) -> &T {
        debug_assert!(
            self.is_current(k),
            "stale or dead handle {k:?} (slot gen {:?})",
            self.slots.get(k.index()).map(|s| s.gen)
        );
        &self.slots[k.index()].val // xsi-lint: allow(slice-index, a current handle indexes an existing slot; staleness is the callers bug and checked above)
    }
}

impl<K: SlotKey, T: Default> std::ops::IndexMut<K> for SlotMap<K, T> {
    fn index_mut(&mut self, k: K) -> &mut T {
        debug_assert!(
            self.is_current(k),
            "stale or dead handle {k:?} (slot gen {:?})",
            self.slots.get(k.index()).map(|s| s.gen)
        );
        &mut self.slots[k.index()].val // xsi-lint: allow(slice-index, a current handle indexes an existing slot; staleness is the callers bug and checked above)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Key(u32, u32);
    impl SlotKey for Key {
        fn from_raw_parts(idx: u32, gen: u32) -> Self {
            Key(idx, gen)
        }
        fn idx(self) -> u32 {
            self.0
        }
        fn gen(self) -> u32 {
            self.1
        }
    }

    #[test]
    fn alloc_release_recycles_lifo_with_fresh_generation() {
        let mut m: SlotMap<Key, u32> = SlotMap::new();
        let (a, va) = m.alloc();
        *va = 7;
        let (b, _) = m.alloc();
        assert_eq!((a.idx(), a.gen()), (0, 0));
        assert_eq!((b.idx(), b.gen()), (1, 0));
        m.release(a);
        assert!(!m.is_current(a));
        let (a2, va2) = m.alloc();
        assert_eq!(a2.idx(), 0, "LIFO reuse");
        assert_eq!(a2.gen(), 1, "generation bumped");
        assert_eq!(*va2, 7, "value retained for reuse");
        assert!(m.is_current(a2));
        assert!(!m.is_current(a), "old handle stays stale");
        assert_eq!(m.handle_at(0), Some(a2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale or dead handle")]
    fn stale_access_panics_in_debug() {
        let mut m: SlotMap<Key, u32> = SlotMap::new();
        let (a, _) = m.alloc();
        m.release(a);
        let (_b, _) = m.alloc(); // reuses the slot
        let _ = m[a];
    }

    #[test]
    fn iteration_is_index_ordered_over_live_slots() {
        let mut m: SlotMap<Key, u32> = SlotMap::new();
        let keys: Vec<Key> = (0..5)
            .map(|i| {
                let (k, v) = m.alloc();
                *v = i;
                k
            })
            .collect();
        m.release(keys[2]);
        let seen: Vec<u32> = m.iter().map(|(k, _)| k.idx()).collect();
        assert_eq!(seen, vec![0, 1, 3, 4]);
        assert_eq!(m.len(), 4);
        assert_eq!(m.capacity(), 5);
    }
}
