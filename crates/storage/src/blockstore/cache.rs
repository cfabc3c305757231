//! The decoded-block cache: a bounded LRU per shard, behind the
//! shard's own lock.

use crate::sha256::Digest;
use std::collections::{BTreeMap, HashMap};

pub(super) struct ShardCache {
    /// Decoded block + its recency stamp.
    map: HashMap<Digest, (Vec<u8>, u64)>,
    /// Recency index: stamp → key; the smallest stamp is the LRU entry.
    by_stamp: BTreeMap<u64, Digest>,
    total: usize,
    cap: usize,
    tick: u64,
}

impl ShardCache {
    pub(super) fn new(cap: usize) -> Self {
        ShardCache {
            map: HashMap::new(),
            by_stamp: BTreeMap::new(),
            total: 0,
            cap,
            tick: 0,
        }
    }

    pub(super) fn get(&mut self, key: &Digest) -> Option<Vec<u8>> {
        self.tick += 1;
        let tick = self.tick;
        let (data, stamp) = self.map.get_mut(key)?;
        self.by_stamp.remove(&*stamp);
        *stamp = tick;
        self.by_stamp.insert(tick, *key);
        Some(data.clone())
    }

    pub(super) fn insert(&mut self, key: Digest, data: Vec<u8>) {
        if data.len() > self.cap {
            return; // would evict the whole cache for one block
        }
        if let Some((old, stamp)) = self.map.remove(&key) {
            self.total -= old.len();
            self.by_stamp.remove(&stamp);
        }
        while self.total + data.len() > self.cap {
            let Some((&oldest, _)) = self.by_stamp.iter().next() else {
                break;
            };
            let victim = self.by_stamp.remove(&oldest).expect("indexed");
            let (evicted, _) = self.map.remove(&victim).expect("in map");
            self.total -= evicted.len();
        }
        self.tick += 1;
        self.total += data.len();
        self.by_stamp.insert(self.tick, key);
        self.map.insert(key, (data, self.tick));
    }

    /// Drop a key (used when a block is detected corrupt or rewritten).
    pub(super) fn remove(&mut self, key: &Digest) {
        if let Some((data, stamp)) = self.map.remove(key) {
            self.total -= data.len();
            self.by_stamp.remove(&stamp);
        }
    }
}
