//! Copy-on-write extent runs for the freeze path (DESIGN.md §11).
//!
//! A [`CowVec`] is an `Arc`-backed `Vec` that dereferences to a slice,
//! so every *read* site of a block extent compiles unchanged, while
//! every *write* site goes through [`CowVec::make_mut`] and pays for a
//! clone only when the run is actually shared with a frozen
//! [`crate::view::IndexSnapshot`]. That is the whole freeze contract:
//! `freeze()` takes `Arc` clones of the live runs in O(blocks) without
//! copying a single node id, and the writer's next mutation of a frozen
//! block clones exactly that block's run — counted in the `clones`
//! out-parameter so the obs layer can export `snapshot_cow_clones`.
//!
//! The type is private to `core::store`: [`super::Extents`] is its only
//! user, so the "every write goes through `make_mut`" rule is a matter
//! of module privacy, not of discipline at each call site.
//!
//! Single-writer like everything else in the data plane: the live index
//! mutates through `&mut self`, so `make_mut` needs no locking —
//! `Arc::make_mut` alone decides between in-place mutation (unique) and
//! clone-first (shared with at least one snapshot).

use std::ops::Deref;
use std::sync::Arc;

/// An `Arc`-shared node run with copy-on-write mutation.
///
/// Reads deref to `&[T]`; writes must go through [`CowVec::make_mut`],
/// which clones the underlying `Vec` first iff a snapshot still shares
/// it (incrementing the caller's clone counter when it does).
#[derive(Clone, Debug)]
pub struct CowVec<T> {
    inner: Arc<Vec<T>>,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            inner: Arc::new(Vec::new()),
        }
    }
}

impl<T: Clone> CowVec<T> {
    /// An empty, uniquely owned run.
    pub fn new() -> Self {
        CowVec {
            inner: Arc::new(Vec::new()),
        }
    }

    /// Mutable access to the underlying `Vec`. If the run is shared
    /// (a frozen snapshot holds it), the run is cloned first and
    /// `clones` is incremented — the snapshot keeps the original.
    #[inline]
    pub fn make_mut(&mut self, clones: &mut u64) -> &mut Vec<T> {
        if Arc::strong_count(&self.inner) > 1 {
            *clones += 1;
        }
        Arc::make_mut(&mut self.inner)
    }

    /// Shares the run with a snapshot: an O(1) `Arc` clone, no node
    /// ids copied.
    #[inline]
    pub fn share(&self) -> Arc<Vec<T>> {
        Arc::clone(&self.inner)
    }

    /// Whether at least one snapshot still shares this run.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.inner) > 1
    }

    /// Consumes the run, returning the `Vec` iff it is uniquely owned
    /// — the allocation-recycling path in `merge_blocks`. Returns
    /// `None` when a snapshot shares the run (the snapshot keeps it;
    /// the caller starts fresh).
    pub fn take_unique(self) -> Option<Vec<T>> {
        Arc::try_unwrap(self.inner).ok()
    }
}

impl<T> CowVec<T> {
    /// Estimated heap bytes of the run: the `Arc<Vec<T>>` header
    /// allocation plus the element buffer (capacity-based). A shared
    /// run reports the same bytes from every holder — the attribution
    /// layer ([`crate::obs::mem::MemReport`]) decides who counts it.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        crate::obs::mem::ARC_VEC_HEADER + self.inner.capacity() * std::mem::size_of::<T>()
    }
}

impl<T> Deref for CowVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.inner
    }
}

impl<T> From<Vec<T>> for CowVec<T> {
    fn from(v: Vec<T>) -> Self {
        CowVec { inner: Arc::new(v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_mutation_never_clones() {
        let mut v: CowVec<u32> = CowVec::new();
        let mut clones = 0u64;
        v.make_mut(&mut clones).push(1);
        v.make_mut(&mut clones).push(2);
        assert_eq!(&*v, &[1, 2]);
        assert_eq!(clones, 0);
        assert!(!v.is_shared());
    }

    #[test]
    fn shared_mutation_clones_once_and_preserves_the_snapshot() {
        let mut v: CowVec<u32> = vec![1, 2, 3].into();
        let snap = v.share();
        assert!(v.is_shared());
        let mut clones = 0u64;
        v.make_mut(&mut clones).push(4);
        assert_eq!(clones, 1, "first mutation of a shared run clones");
        assert_eq!(&*v, &[1, 2, 3, 4]);
        assert_eq!(&*snap, &[1, 2, 3], "the frozen run is untouched");
        // The run is unique again: further mutation is in place.
        v.make_mut(&mut clones).push(5);
        assert_eq!(clones, 1);
    }

    #[test]
    fn take_unique_recycles_only_unshared_runs() {
        let v: CowVec<u32> = vec![7].into();
        assert_eq!(v.take_unique(), Some(vec![7]));
        let v: CowVec<u32> = vec![8].into();
        let _snap = v.share();
        assert_eq!(v.take_unique(), None);
    }
}
