//! A small FIFO-evicting cache used by the service's prepared-query and
//! personalized-plan caches.
//!
//! FIFO (rather than LRU) keeps `get` a pure read — no per-lookup
//! bookkeeping write — which lets the caller serve hits under a shared read
//! lock. Eviction order only matters under capacity pressure, where both
//! caches tolerate recomputing a dropped entry.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A bounded map evicting its oldest-inserted entry on overflow.
///
/// The map and the eviction queue each hold a clone of every key, so keys
/// should be cheap to clone (`Arc<str>`, `Arc<PlanKey>`). A lookup takes any
/// borrowed form of the key (`&str` for an `Arc<str>` key), so probing the
/// cache never builds an owned key.
#[derive(Debug)]
pub struct FifoCache<K, V> {
    capacity: usize,
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

/// What an insert pushed out of the cache. The displaced value is handed
/// back rather than dropped, so a caller holding a lock around the cache
/// can release it before paying for the drop.
#[derive(Debug, PartialEq, Eq)]
pub enum Inserted<V> {
    /// A new entry, and there was room for it.
    Fresh,
    /// The key was present; its old value is returned (insertion order is
    /// unchanged).
    Replaced(V),
    /// A new entry, and the *oldest* entry was evicted to make room.
    Evicted(V),
}

impl<K: Hash + Eq + Clone, V> FifoCache<K, V> {
    /// A cache holding at most `capacity` entries (clamped to at least 1).
    pub fn new(capacity: usize) -> FifoCache<K, V> {
        FifoCache { capacity: capacity.max(1), map: HashMap::new(), order: VecDeque::new() }
    }

    /// Look up a key. A pure read: no recency bookkeeping.
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.map.get(key)
    }

    /// Insert (or replace) an entry.
    pub fn insert(&mut self, key: K, value: V) -> Inserted<V> {
        if let Some(slot) = self.map.get_mut(&key) {
            return Inserted::Replaced(std::mem::replace(slot, value));
        }
        self.map.insert(key.clone(), value);
        self.order.push_back(key);
        if self.map.len() > self.capacity {
            if let Some(evicted) = self.order.pop_front().and_then(|k| self.map.remove(&k)) {
                return Inserted::Evicted(evicted);
            }
        }
        Inserted::Fresh
    }

    /// Remove every entry failing the predicate, preserving the insertion
    /// order of the survivors. Returns how many entries were removed.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, v| f(k, &*v));
        if self.map.len() != before {
            self.order.retain(|k| self.map.contains_key(k));
        }
        before - self.map.len()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Maximum number of entries before eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut c = FifoCache::new(2);
        assert_eq!(c.insert("a", 1), Inserted::Fresh);
        assert_eq!(c.insert("b", 2), Inserted::Fresh);
        assert_eq!(c.insert("c", 3), Inserted::Evicted(1), "past capacity the oldest leaves");
        assert_eq!(c.get(&"a"), None, "oldest went first");
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacement_keeps_insertion_order() {
        let mut c = FifoCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.insert("a", 10), Inserted::Replaced(1), "replacement is not an eviction");
        c.insert("c", 3);
        assert_eq!(c.get(&"a"), None, "a is still the oldest insertion");
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn retain_drops_matching_entries_and_keeps_order() {
        let mut c = FifoCache::new(3);
        c.insert("a1", 1);
        c.insert("b", 2);
        c.insert("a2", 3);
        assert_eq!(c.retain(|k, _| !k.starts_with('a')), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"b"), Some(&2));
        // Survivor keeps its (oldest) slot in the eviction order.
        c.insert("c", 4);
        c.insert("d", 5);
        c.insert("e", 6);
        assert_eq!(c.get(&"b"), None, "b evicted first after the sweep");
        assert_eq!(c.retain(|_, _| true), 0);
    }

    #[test]
    fn shared_keys_are_probed_by_their_borrowed_form() {
        let mut c: FifoCache<std::sync::Arc<str>, i32> = FifoCache::new(2);
        c.insert("select 1".into(), 1);
        assert_eq!(c.get("select 1"), Some(&1), "a &str finds an Arc<str> key");
        assert_eq!(c.get("select 2"), None);
    }

    #[test]
    fn capacity_clamps_to_one_and_clear_resets() {
        let mut c = FifoCache::new(0);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.len(), 1);
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&2), None);
    }
}
