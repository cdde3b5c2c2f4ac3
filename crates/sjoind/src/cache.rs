//! Partition-file reuse across repeated joins of one registered dataset pair.
//!
//! A PBSM/S³J run spends its first phase partitioning both inputs to disk;
//! when the same config+input pair is joined repeatedly (the service's whole
//! reason to exist), that work is identical every time. The cache keys on
//! [`spatialjoin::SpatialJoin::fingerprint`] — the exact config+input hash
//! the crash-recovery layer uses to guard resumes — and stores a disk
//! snapshot from which a durable run *resumes past the partition phase*.
//!
//! Warming trick: run the join once on a scratch disk with an injected
//! [`storage::CrashPoint::MidPartition`]`(0)` crash. The "process" dies while
//! appending the very first journal record, so zero partitions are committed
//! but the manifest — which lists every partition file — is already
//! published. Snapshotting that disk captures exactly "partitioning done,
//! join not started". Serving a request restores the snapshot onto a fresh
//! disk and resumes: recovery truncates the torn journal tail, skips the
//! partition phase, and replays *all* partitions, so the resumed leg alone
//! emits the full solo-identical output (the exactly-once machinery of PR 4
//! is what makes the cached run bit-equal to a cold one).
//!
//! A join too small for the crash point to fire (it completes before the
//! first journal append) is marked [`Slot::Uncacheable`] and served by a
//! plain run forever after — restoring a *finished* run would "resume" into
//! an empty emission.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A disk snapshot plus the FNV-1a hash of its bytes, recorded at insert.
/// The hash is the cache's integrity gate: a snapshot restored onto a fresh
/// disk drives a *resumed* durable run, so serving rotten bytes would turn
/// silent memory corruption into silently wrong join output. [`verify`]
/// recomputes the hash at every lookup; a mismatch evicts the slot and the
/// caller re-warms from scratch (a fresh durable run) instead.
///
/// [`verify`]: Snapshot::verify
#[derive(Clone)]
pub struct Snapshot {
    bytes: Arc<Vec<u8>>,
    checksum: u64,
}

/// FNV-1a over the snapshot blob — cheap, dependency-free, and plenty to
/// catch bit rot (this guards against corruption, not adversaries).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Snapshot {
    pub fn new(bytes: Vec<u8>) -> Snapshot {
        let checksum = fnv1a(&bytes);
        Snapshot {
            bytes: Arc::new(bytes),
            checksum,
        }
    }

    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// `true` iff the bytes still hash to the checksum taken at insert.
    pub fn verify(&self) -> bool {
        fnv1a(&self.bytes) == self.checksum
    }
}

/// One cache slot for a config+input fingerprint.
#[derive(Clone)]
pub enum Slot {
    /// Post-partition disk snapshot ([`storage::SimDisk::export_files`]).
    Ready(Snapshot),
    /// The warm run finished before its first checkpoint — there is no
    /// "partitioned but unjoined" state to capture for this key.
    Uncacheable,
}

/// Bounded, thread-safe snapshot cache with hit/miss counters.
///
/// Eviction is FIFO over insertion order — the service's workloads re-join
/// a handful of registered pairs, so anything smarter buys nothing.
pub struct PartitionCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    integrity_evictions: AtomicU64,
}

struct Inner {
    slots: HashMap<u64, Slot>,
    order: Vec<u64>,
}

impl PartitionCache {
    pub fn new(capacity: usize) -> PartitionCache {
        PartitionCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                order: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            integrity_evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a fingerprint, counting a hit only for a `Ready` snapshot
    /// that passes its integrity check. A snapshot whose bytes no longer
    /// match the checksum taken at insert is evicted on the spot and the
    /// lookup counts as a miss — the caller re-warms with a fresh durable
    /// run, so corruption costs one warm pass, never a wrong answer.
    /// `Some(Uncacheable)` means don't bother trying again.
    pub fn get(&self, fp: u64) -> Option<Slot> {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match g.slots.get(&fp) {
            Some(Slot::Ready(snap)) => {
                if snap.verify() {
                    let slot = Slot::Ready(snap.clone());
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(slot)
                } else {
                    g.slots.remove(&fp);
                    g.order.retain(|&k| k != fp);
                    self.integrity_evictions.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
            Some(Slot::Uncacheable) => Some(Slot::Uncacheable),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Installs a slot for `fp`, evicting the oldest entry at capacity.
    /// Concurrent misses may both warm and insert the same key — the
    /// snapshots are deterministic, so last-writer-wins is correct.
    pub fn insert(&self, fp: u64, slot: Slot) {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if g.slots.insert(fp, slot).is_none() {
            g.order.push(fp);
            if g.order.len() > self.capacity {
                let victim = g.order.remove(0);
                g.slots.remove(&victim);
            }
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshots evicted because their bytes failed the checksum at lookup.
    pub fn integrity_evictions(&self) -> u64 {
        self.integrity_evictions.load(Ordering::Relaxed)
    }

    /// Chaos hook: flips one byte in every `Ready` snapshot without touching
    /// its recorded checksum, simulating in-memory rot of the cached state.
    /// Returns the number of snapshots corrupted. Empty snapshots (nothing
    /// to flip) are left intact and not counted.
    pub fn corrupt_all(&self) -> usize {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut n = 0;
        for slot in g.slots.values_mut() {
            if let Slot::Ready(snap) = slot {
                if snap.bytes.is_empty() {
                    continue;
                }
                let mut rotten = (*snap.bytes).clone();
                rotten[0] ^= 0x40;
                snap.bytes = Arc::new(rotten);
                n += 1;
            }
        }
        n
    }

    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .slots
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_counts() {
        let c = PartitionCache::new(4);
        assert!(c.get(7).is_none());
        c.insert(7, Slot::Ready(Snapshot::new(vec![1, 2, 3])));
        assert!(matches!(c.get(7), Some(Slot::Ready(_))));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn corrupt_snapshot_is_evicted_not_served() {
        let c = PartitionCache::new(4);
        c.insert(7, Slot::Ready(Snapshot::new(vec![1, 2, 3])));
        assert_eq!(c.corrupt_all(), 1);
        assert!(c.get(7).is_none(), "rotten snapshot must not be served");
        assert_eq!(c.integrity_evictions(), 1);
        assert_eq!(c.len(), 0, "rotten entry must be evicted");
        // Re-warming the same key restores normal service.
        c.insert(7, Slot::Ready(Snapshot::new(vec![1, 2, 3])));
        assert!(matches!(c.get(7), Some(Slot::Ready(_))));
        assert_eq!(c.integrity_evictions(), 1);
    }

    #[test]
    fn snapshot_verify_detects_any_flip() {
        let snap = Snapshot::new(vec![0xAA; 64]);
        assert!(snap.verify());
        for i in [0usize, 31, 63] {
            let mut rotten = snap.clone();
            let mut bytes = (*rotten.bytes).clone();
            bytes[i] ^= 0x01;
            rotten.bytes = Arc::new(bytes);
            assert!(!rotten.verify(), "flip at {i} undetected");
        }
    }

    #[test]
    fn uncacheable_is_remembered_but_never_a_hit() {
        let c = PartitionCache::new(4);
        c.insert(9, Slot::Uncacheable);
        assert_eq!(c.corrupt_all(), 0, "no Ready snapshots to corrupt");
        assert!(matches!(c.get(9), Some(Slot::Uncacheable)));
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let c = PartitionCache::new(2);
        for fp in [1u64, 2, 3] {
            c.insert(fp, Slot::Ready(Snapshot::new(vec![fp as u8])));
        }
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_none(), "oldest entry should be gone");
        assert!(matches!(c.get(3), Some(Slot::Ready(_))));
    }

    #[test]
    fn reinsert_does_not_grow_order() {
        let c = PartitionCache::new(2);
        for _ in 0..10 {
            c.insert(5, Slot::Ready(Snapshot::new(vec![])));
        }
        c.insert(6, Slot::Ready(Snapshot::new(vec![])));
        assert_eq!(c.len(), 2);
        assert!(c.get(5).is_some() && c.get(6).is_some());
    }
}
