//! A sharded concurrent map: N shards, each a [`RwLock`]-protected
//! `HashMap`, with keys routed to shards by a stable hash.
//!
//! This is the storage-layer building block for per-user state that many
//! threads read and write concurrently (the serving layer's profile store):
//! contention is limited to one shard, and the closure-based accessors keep
//! lock guards from escaping — a caller can never hold two shards at once,
//! so lock ordering deadlocks are impossible by construction.

use crate::sync::RwLock;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// A concurrent map split into `N` independently locked shards.
///
/// All access goes through closures scoped to one shard's lock. Iteration
/// helpers ([`ShardedMap::for_each`], [`ShardedMap::keys`]) visit shards one
/// at a time, so they observe a consistent snapshot per shard but not across
/// shards — fine for the metrics/admin uses they exist for.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// Create a map with `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> ShardedMap<K, V> {
        let n = shards.max(1);
        ShardedMap { shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a key routes to (stable for the life of the map).
    pub fn shard_of(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Run `f` under the read lock of `key`'s shard, passing the mapped
    /// value (if any).
    pub fn read<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        let shard = self.shards[self.shard_of(key)].read();
        f(shard.get(key))
    }

    /// Run `f` under the write lock of `key`'s shard, passing a mutable
    /// handle to the whole shard map (so callers can insert, remove or
    /// update the entry for `key`).
    pub fn write<R>(&self, key: &K, f: impl FnOnce(&mut HashMap<K, V>) -> R) -> R {
        let mut shard = self.shards[self.shard_of(key)].write();
        f(&mut shard)
    }

    /// Insert a value, returning the previous one.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shards[self.shard_of(&key)].write().insert(key, value)
    }

    /// Remove a key, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shards[self.shard_of(key)].write().remove(key)
    }

    /// Whether the key is present.
    pub fn contains(&self, key: &K) -> bool {
        self.read(key, |v| v.is_some())
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Visit every entry, one shard's read lock at a time.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            let shard = shard.read();
            for (k, v) in shard.iter() {
                f(k, v);
            }
        }
    }

    /// Remove all entries.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }
}

impl<K: Hash + Eq + Clone, V> ShardedMap<K, V> {
    /// All keys, shard by shard (no cross-shard snapshot guarantee).
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::new();
        self.for_each(|k, _| out.push(k.clone()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn get_cloned<K: Hash + Eq, V: Clone>(m: &ShardedMap<K, V>, key: &K) -> Option<V> {
        m.read(key, |v| v.cloned())
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let m: ShardedMap<String, i32> = ShardedMap::new(8);
        for i in 0..100 {
            let k = format!("user{i}");
            let s = m.shard_of(&k);
            assert!(s < 8);
            assert_eq!(s, m.shard_of(&k), "routing must be deterministic");
        }
    }

    #[test]
    fn basic_map_operations() {
        let m: ShardedMap<String, i32> = ShardedMap::new(4);
        assert!(m.is_empty());
        assert_eq!(m.insert("a".into(), 1), None);
        assert_eq!(m.insert("a".into(), 2), Some(1));
        m.insert("b".into(), 3);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&"a".into()));
        assert_eq!(get_cloned(&m, &"a".into()), Some(2));
        assert_eq!(m.remove(&"b".into()), Some(3));
        assert_eq!(get_cloned(&m, &"b".into()), None);
        let mut keys = m.keys();
        keys.sort();
        assert_eq!(keys, vec!["a".to_string()]);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn write_closure_edits_in_place() {
        let m: ShardedMap<String, Vec<i32>> = ShardedMap::new(2);
        m.insert("k".into(), vec![1]);
        m.write(&"k".into(), |shard| shard.get_mut("k").unwrap().push(2));
        assert_eq!(get_cloned(&m, &"k".into()), Some(vec![1, 2]));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let m: ShardedMap<i32, i32> = ShardedMap::new(0);
        assert_eq!(m.shard_count(), 1);
        m.insert(1, 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn panic_holding_a_shard_lock_does_not_wedge_later_access() {
        // Regression: a panic while a shard's write lock is held poisons the
        // std lock; the sync wrapper must recover so subsequent queries on
        // that shard still work (and see consistent pre-panic state).
        let m: Arc<ShardedMap<String, i32>> = Arc::new(ShardedMap::new(2));
        m.insert("k".into(), 1);
        let m2 = Arc::clone(&m);
        let panicked = std::thread::spawn(move || {
            m2.write(&"k".into(), |shard| {
                shard.insert("k".into(), 2);
                panic!("boom while holding the shard lock");
            })
        })
        .join();
        assert!(panicked.is_err(), "worker must have panicked");
        // Reads and writes on the poisoned shard recover, seeing the state
        // as of the poisoning write.
        assert_eq!(get_cloned(&m, &"k".into()), Some(2));
        m.insert("k".into(), 3);
        assert_eq!(get_cloned(&m, &"k".into()), Some(3));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn concurrent_mixed_access() {
        let m: Arc<ShardedMap<u32, u64>> = Arc::new(ShardedMap::new(4));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..200u32 {
                        let k = t * 1000 + i;
                        m.insert(k, u64::from(k));
                        assert_eq!(get_cloned(&m, &k), Some(u64::from(k)));
                    }
                });
            }
        });
        assert_eq!(m.len(), 800);
    }
}
