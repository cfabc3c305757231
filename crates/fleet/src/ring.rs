//! The seeded consistent-hash ring: deterministic block placement
//! with minimal movement on membership change.
//!
//! The paper's blockservers sat behind load balancers that assigned
//! *conversions* randomly (§5.5); block *placement* in the storage
//! fleet is the opposite problem — a block's address must map to the
//! same small replica set from every gateway, across topology changes,
//! with only ~K/N of keys moving when a node joins or leaves. The
//! classic consistent-hash answer: each node projects `vnodes` virtual
//! points onto a 64-bit ring, a block lands at the point clockwise of
//! its digest, and its replica set is the next R *distinct* nodes.
//!
//! Everything is deterministic: vnode positions are SHA-256 of
//! `(seed, node name, vnode index)`, a key's position is the first 8
//! bytes of its (already SHA-256) address. Two gateways configured
//! with the same seed, vnode count, and member names agree on every
//! placement without talking to each other.

use lepton_storage::sha256::{Digest, Sha256};

/// Default virtual nodes per member. 64 keeps the ring small while
/// holding per-node load imbalance to roughly ±20% — see the
/// `proptest_ring` balance bound.
pub const DEFAULT_VNODES: usize = 64;

/// Default ring seed ("LEPTFLEE" in spirit).
pub const DEFAULT_SEED: u64 = 0x4C45_5054_464C_4545;

/// A consistent-hash ring over named nodes.
#[derive(Clone, Debug)]
pub struct Ring {
    /// Member names, in insertion order; `points` refer to them by
    /// index.
    nodes: Vec<String>,
    /// Sorted `(position, node index)` pairs — the ring itself.
    points: Vec<(u64, u32)>,
    vnodes: usize,
    seed: u64,
}

/// Position of one vnode: first 8 bytes (big-endian) of
/// `SHA-256(seed || name || vnode index)`.
fn vnode_point(seed: u64, name: &str, vnode: u64) -> u64 {
    let mut h = Sha256::new();
    h.update(&seed.to_le_bytes());
    h.update(name.as_bytes());
    h.update(&vnode.to_le_bytes());
    let d = h.finish();
    u64::from_be_bytes(d[..8].try_into().expect("8 bytes"))
}

/// Position of a key: its address is already a SHA-256, so the first
/// 8 bytes are uniformly distributed — no re-hash needed.
fn key_point(key: &Digest) -> u64 {
    u64::from_be_bytes(key[..8].try_into().expect("8 bytes"))
}

impl Ring {
    /// Build a ring over `nodes` with `vnodes` virtual points each,
    /// positioned by `seed`. Duplicate names are rejected by panic —
    /// a fleet with two nodes of the same name is a configuration
    /// error no runtime behavior can make sensible.
    pub fn new(
        nodes: impl IntoIterator<Item = impl Into<String>>,
        vnodes: usize,
        seed: u64,
    ) -> Ring {
        let nodes: Vec<String> = nodes.into_iter().map(Into::into).collect();
        let vnodes = vnodes.max(1);
        {
            let mut sorted: Vec<&String> = nodes.iter().collect();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), nodes.len(), "duplicate node names");
        }
        let mut points = Vec::with_capacity(nodes.len() * vnodes);
        for (i, name) in nodes.iter().enumerate() {
            for v in 0..vnodes as u64 {
                points.push((vnode_point(seed, name, v), i as u32));
            }
        }
        points.sort_unstable();
        Ring {
            nodes,
            points,
            vnodes,
            seed,
        }
    }

    /// A new ring with the same geometry (vnodes, seed) over a changed
    /// membership — the way a topology change is expressed.
    pub fn with_nodes(&self, nodes: impl IntoIterator<Item = impl Into<String>>) -> Ring {
        Ring::new(nodes, self.vnodes, self.seed)
    }

    /// Member names, in insertion order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The ring seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The replica set for `key`: indices of the first `r` *distinct*
    /// nodes clockwise of the key's position. The first entry is the
    /// primary. Fewer than `r` nodes in the ring yields them all.
    pub fn replica_set(&self, key: &Digest, r: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(r.min(self.nodes.len()));
        if self.points.is_empty() || r == 0 {
            return out;
        }
        let kp = key_point(key);
        let start = self.points.partition_point(|&(p, _)| p < kp);
        for step in 0..self.points.len() {
            let (_, node) = self.points[(start + step) % self.points.len()];
            let node = node as usize;
            if !out.contains(&node) {
                out.push(node);
                if out.len() == r.min(self.nodes.len()) {
                    break;
                }
            }
        }
        out
    }

    /// The replica set as node names (for comparing placements across
    /// rings with different memberships, where indices don't line up).
    pub fn replica_names(&self, key: &Digest, r: usize) -> Vec<&str> {
        self.replica_set(key, r)
            .into_iter()
            .map(|i| self.nodes[i].as_str())
            .collect()
    }

    /// The primary node index for `key`, if the ring is non-empty.
    pub fn primary(&self, key: &Digest) -> Option<usize> {
        self.replica_set(key, 1).first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_storage::sha256::sha256;

    fn keys(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| sha256(format!("block-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn placement_is_deterministic() {
        let a = Ring::new(["n0", "n1", "n2"], 32, 7);
        let b = Ring::new(["n0", "n1", "n2"], 32, 7);
        for k in keys(64) {
            assert_eq!(a.replica_set(&k, 2), b.replica_set(&k, 2));
        }
    }

    #[test]
    fn seed_changes_placement() {
        let a = Ring::new(["n0", "n1", "n2"], 32, 1);
        let b = Ring::new(["n0", "n1", "n2"], 32, 2);
        let moved = keys(256)
            .iter()
            .filter(|k| a.primary(k) != b.primary(k))
            .count();
        assert!(moved > 0, "different seeds, same ring?");
    }

    #[test]
    fn replica_set_is_distinct_and_sized() {
        let ring = Ring::new(["a", "b", "c", "d"], 16, 0);
        for k in keys(128) {
            let rs = ring.replica_set(&k, 2);
            assert_eq!(rs.len(), 2);
            assert_ne!(rs[0], rs[1], "replicas on distinct nodes");
        }
    }

    #[test]
    fn small_ring_caps_replicas_at_membership() {
        let ring = Ring::new(["only"], 16, 0);
        let k = sha256(b"x");
        assert_eq!(ring.replica_set(&k, 3), vec![0]);
        let empty = Ring::new(Vec::<String>::new(), 16, 0);
        assert!(empty.replica_set(&k, 2).is_empty());
        assert_eq!(empty.primary(&k), None);
    }

    #[test]
    fn membership_change_keeps_most_primaries() {
        let old = Ring::new(["n0", "n1", "n2", "n3"], 64, 3);
        let new = old.with_nodes(["n0", "n1", "n2", "n3", "n4"]);
        let ks = keys(1000);
        let moved = ks
            .iter()
            .filter(|k| old.replica_names(k, 1) != new.replica_names(k, 1))
            .count();
        // Ideal movement is K/N = 200; allow generous slack but far
        // below a reshuffle.
        assert!(moved > 0, "the new node must take some keys");
        assert!(moved < 400, "moved {moved} of 1000 — not consistent");
    }

    #[test]
    fn duplicate_names_panic() {
        let r = std::panic::catch_unwind(|| Ring::new(["a", "a"], 4, 0));
        assert!(r.is_err());
    }
}
