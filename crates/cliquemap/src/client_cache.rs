//! Client-side lease cache: the small fast tier in front of the RMA path.
//!
//! Production skew puts most GETs on a handful of keys; serving those from
//! the client's own memory removes both the fabric round trip and the hot
//! shard's engine occupancy. The cache is a bounded LRU keyed by the key's
//! 128-bit hash. Each entry carries the value, its [`VersionNumber`], and
//! a lease deadline in **sim time** (no wall clock — two seeded runs make
//! identical lease decisions):
//!
//! * **hit** — lease unexpired: the GET completes locally, touching no
//!   backend. The hit path allocates nothing: the LRU is an intrusive
//!   index-linked list over slots. Slots and map entries are allocated on
//!   first use, up to `capacity`, so a client that caches a few keys pays
//!   for a few. The stored value is an exact-length copy made at insert,
//!   so the pooled inbound frame it came from goes back to its pool.
//! * **stale** — entry present, lease expired: the client runs a normal
//!   quorum GET; if the read quorum's version equals the cached version the
//!   entry is *validated* (lease renewed, served from cache — on the 2×R
//!   path this skips the data read entirely).
//! * **invalidate-on-mutation** — the client's own SET/ERASE/CAS drops the
//!   entry at issue, and a committed SET write-throughs the new value, so
//!   a client can never read its own stale write from the cache.
//!
//! Leases bound cross-client staleness to the TTL, the same contract
//! memcache-style deployments run with; quorum correctness is untouched
//! because every cache fill and validation passes through the normal
//! versioned read path.

use std::collections::HashMap;

use bytes::Bytes;
use simnet::{SimDuration, SimTime};

use crate::hash::KeyHash;
use crate::version::VersionNumber;

/// Client-cache configuration.
#[derive(Debug, Clone)]
pub struct ClientCacheCfg {
    /// Maximum resident entries (slots are allocated on first use).
    pub capacity: usize,
    /// Lease TTL in sim time.
    pub lease_ttl: SimDuration,
    /// Values longer than this are not cached (a client cache holding
    /// megabyte objects evicts its whole working set for one key).
    pub max_value_len: usize,
}

impl Default for ClientCacheCfg {
    fn default() -> Self {
        ClientCacheCfg {
            capacity: 1024,
            lease_ttl: SimDuration::from_millis(10),
            max_value_len: 64 << 10,
        }
    }
}

/// Lookup result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Lease valid: serve locally at this version.
    Hit(VersionNumber),
    /// Entry present but lease expired: validate via a versioned GET.
    Stale(VersionNumber),
    /// Not cached.
    Miss,
}

/// Running counters; the client mirrors the interesting ones into metrics,
/// tests reconcile them against op counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups (hits + stale + misses).
    pub lookups: u64,
    /// Lease-valid hits served locally.
    pub hits: u64,
    /// Expired-lease lookups (validation required).
    pub stale: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries installed or refreshed with a new version.
    pub inserts: u64,
    /// Successful validations (quorum version matched; lease renewed).
    pub validations: u64,
    /// Entries dropped by the owner's own mutations.
    pub invalidations: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    hash: KeyHash,
    version: VersionNumber,
    value: Bytes,
    lease: SimTime,
    prev: u32,
    next: u32,
}

/// Bounded LRU lease cache. All operations are O(1). Inserts allocate the
/// value copy, and a slot and map room until `capacity` entries have been
/// resident at once; a full cache reuses its LRU victim's slot. Lookups,
/// validations and invalidations never allocate.
#[derive(Debug)]
pub struct ClientCache {
    cfg: ClientCacheCfg,
    map: HashMap<KeyHash, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Running counters.
    pub stats: CacheStats,
}

impl ClientCache {
    /// Build an empty cache holding at most `cfg.capacity` entries.
    pub fn new(cfg: ClientCacheCfg) -> ClientCache {
        ClientCache {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The cache's configuration.
    pub fn cfg(&self) -> &ClientCacheCfg {
        &self.cfg
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cached value for `hash` (test visibility; does not touch LRU order
    /// or stats).
    pub fn peek(&self, hash: KeyHash) -> Option<(VersionNumber, Bytes, SimTime)> {
        let &slot = self.map.get(&hash)?;
        let s = &self.slots[slot as usize];
        Some((s.version, s.value.clone(), s.lease))
    }

    // ---- intrusive LRU list ---------------------------------------------

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    // ---- operations ------------------------------------------------------

    /// Look up `hash` at sim time `now`, bumping recency on hit/stale.
    pub fn lookup(&mut self, hash: KeyHash, now: SimTime) -> Lookup {
        self.stats.lookups += 1;
        let Some(&slot) = self.map.get(&hash) else {
            self.stats.misses += 1;
            return Lookup::Miss;
        };
        self.unlink(slot);
        self.push_front(slot);
        let s = &self.slots[slot as usize];
        if now <= s.lease {
            self.stats.hits += 1;
            Lookup::Hit(s.version)
        } else {
            self.stats.stale += 1;
            Lookup::Stale(s.version)
        }
    }

    /// Install (or refresh) `hash` at `version`, leasing until
    /// `now + lease_ttl` and storing an owned copy of `value`. Oversized
    /// values are ignored. A refresh never regresses the version:
    /// VersionNumbers totally order mutations (backends resolve arrival
    /// races the same way), so a slow GET that read the pre-mutation value
    /// must not clobber the owner's newer write-through — it only renews
    /// the lease of the newer entry.
    pub fn insert(&mut self, hash: KeyHash, version: VersionNumber, value: &[u8], now: SimTime) {
        if value.len() > self.cfg.max_value_len {
            return;
        }
        let lease = now + self.cfg.lease_ttl;
        if let Some(&slot) = self.map.get(&hash) {
            let s = &mut self.slots[slot as usize];
            if version < s.version {
                return;
            }
            s.version = version;
            s.value = Bytes::copy_from_slice(value);
            s.lease = lease;
            self.unlink(slot);
            self.push_front(slot);
            self.stats.inserts += 1;
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None if self.slots.len() < self.cfg.capacity.max(1) => {
                self.slots.push(Slot {
                    hash: 0,
                    version: VersionNumber::ZERO,
                    value: Bytes::new(),
                    lease: SimTime(0),
                    prev: NIL,
                    next: NIL,
                });
                (self.slots.len() - 1) as u32
            }
            None => {
                // Capacity: displace the LRU tail.
                let victim = self.tail;
                debug_assert!(victim != NIL, "full cache has a tail");
                self.unlink(victim);
                let old_hash = self.slots[victim as usize].hash;
                self.map.remove(&old_hash);
                self.stats.evictions += 1;
                victim
            }
        };
        {
            let s = &mut self.slots[slot as usize];
            s.hash = hash;
            s.version = version;
            s.value = Bytes::copy_from_slice(value);
            s.lease = lease;
        }
        self.map.insert(hash, slot);
        self.push_front(slot);
        self.stats.inserts += 1;
    }

    /// Renew the lease iff the cached version for `hash` equals
    /// `version` (quorum agreement observed). Returns whether it matched.
    pub fn validate(&mut self, hash: KeyHash, version: VersionNumber, now: SimTime) -> bool {
        let Some(&slot) = self.map.get(&hash) else {
            return false;
        };
        let lease = now + self.cfg.lease_ttl;
        let s = &mut self.slots[slot as usize];
        if s.version != version {
            return false;
        }
        s.lease = lease;
        self.unlink(slot);
        self.push_front(slot);
        self.stats.validations += 1;
        true
    }

    /// Drop `hash` (the owner mutated the key). Returns whether an entry
    /// was dropped.
    pub fn invalidate(&mut self, hash: KeyHash) -> bool {
        let Some(slot) = self.map.remove(&hash) else {
            return false;
        };
        self.unlink(slot);
        self.slots[slot as usize].value = Bytes::new(); // free the value now
        self.free.push(slot);
        self.stats.invalidations += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> VersionNumber {
        VersionNumber::new(n, 1, n as u32)
    }

    fn cache(cap: usize, ttl_ms: u64) -> ClientCache {
        ClientCache::new(ClientCacheCfg {
            capacity: cap,
            lease_ttl: SimDuration::from_millis(ttl_ms),
            max_value_len: 1 << 20,
        })
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime(SimDuration::from_millis(ms).nanos())
    }

    #[test]
    fn hit_within_lease_stale_after() {
        let mut c = cache(4, 10);
        c.insert(1, v(5), b"x", at_ms(0));
        assert_eq!(c.lookup(1, at_ms(5)), Lookup::Hit(v(5)));
        assert_eq!(c.lookup(1, at_ms(15)), Lookup::Stale(v(5)));
        assert_eq!(c.lookup(2, at_ms(5)), Lookup::Miss);
    }

    #[test]
    fn validate_renews_lease_only_on_version_match() {
        let mut c = cache(4, 10);
        c.insert(1, v(5), b"x", at_ms(0));
        assert!(!c.validate(1, v(6), at_ms(15)), "newer version: no renew");
        assert!(c.validate(1, v(5), at_ms(15)));
        assert_eq!(c.lookup(1, at_ms(20)), Lookup::Hit(v(5)));
        assert!(!c.validate(9, v(1), at_ms(0)), "absent key");
        assert_eq!(c.stats.validations, 1);
    }

    #[test]
    fn invalidate_drops_and_reuses_slot() {
        let mut c = cache(2, 10);
        c.insert(1, v(1), b"a", at_ms(0));
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1), "second invalidate is a no-op");
        assert_eq!(c.lookup(1, at_ms(1)), Lookup::Miss);
        c.insert(2, v(2), b"b", at_ms(1));
        c.insert(3, v(3), b"c", at_ms(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats.evictions, 0, "freed slot reused, no eviction");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(2, 100);
        c.insert(1, v(1), b"a", at_ms(0));
        c.insert(2, v(2), b"b", at_ms(1));
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.lookup(1, at_ms(2)), Lookup::Hit(v(1)));
        c.insert(3, v(3), b"c", at_ms(3));
        assert_eq!(c.lookup(2, at_ms(4)), Lookup::Miss, "LRU displaced");
        assert_eq!(c.lookup(1, at_ms(4)), Lookup::Hit(v(1)));
        assert_eq!(c.lookup(3, at_ms(4)), Lookup::Hit(v(3)));
        assert_eq!(c.stats.evictions, 1);

        // An invalidate before the cache first fills frees a slot; once
        // full, the LRU entry is still the one displaced.
        let mut c = cache(3, 100);
        c.insert(1, v(1), b"a", at_ms(0));
        c.insert(2, v(2), b"b", at_ms(1));
        assert!(c.invalidate(1));
        c.insert(3, v(3), b"c", at_ms(2));
        c.insert(4, v(4), b"d", at_ms(3));
        assert_eq!((c.len(), c.stats.evictions), (3, 0));
        c.insert(5, v(5), b"e", at_ms(4));
        assert_eq!(c.lookup(2, at_ms(5)), Lookup::Miss, "LRU displaced");
        for k in 3..=5 {
            assert_eq!(c.lookup(k, at_ms(5)), Lookup::Hit(v(k as u64)));
        }
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn cached_value_does_not_pin_its_frame() {
        let pool = bytes::Pool::new();
        let mut buf = pool.get(2048);
        buf.extend_from_slice(&[7u8; 1500]);
        let frame = buf.freeze();
        let mut c = cache(4, 10);
        c.insert(1, v(1), &frame.slice(100..1124), at_ms(0));
        let recycles = pool.stats().recycles;
        drop(frame);
        assert_eq!(
            pool.stats().recycles,
            recycles + 1,
            "frame back in its pool"
        );
        let (_, val, _) = c.peek(1).unwrap();
        assert_eq!(&val[..], &[7u8; 1024][..]);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let mut c = ClientCache::new(ClientCacheCfg {
            capacity: 4,
            lease_ttl: SimDuration::from_millis(10),
            max_value_len: 4,
        });
        c.insert(1, v(1), &[0u8; 64], at_ms(0));
        assert_eq!(c.lookup(1, at_ms(1)), Lookup::Miss);
    }

    #[test]
    fn stats_reconcile() {
        let mut c = cache(8, 10);
        for i in 0..5u128 {
            c.insert(i, v(1), b"x", at_ms(0));
        }
        let mut n = 0;
        for i in 0..10u128 {
            c.lookup(i, at_ms(5));
            n += 1;
        }
        for i in 0..5u128 {
            c.lookup(i, at_ms(50));
            n += 1;
        }
        let s = c.stats;
        assert_eq!(s.lookups, n);
        assert_eq!(s.hits + s.stale + s.misses, s.lookups);
        assert_eq!((s.hits, s.stale, s.misses), (5, 5, 5));
    }

    #[test]
    fn insert_never_regresses_version() {
        // A slow quorum GET that read the pre-mutation value completes
        // after the owner's write-through: its insert must lose.
        let mut c = cache(2, 10);
        c.insert(1, v(9), b"new", at_ms(0));
        c.insert(1, v(3), b"old", at_ms(1));
        let (ver, val, _) = c.peek(1).unwrap();
        assert_eq!(ver, v(9));
        assert_eq!(&val[..], b"new");
        // Equal version refreshes the lease (validation by value).
        c.insert(1, v(9), b"new", at_ms(5));
        assert_eq!(c.lookup(1, at_ms(14)), Lookup::Hit(v(9)));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = cache(2, 10);
        c.insert(1, v(1), b"a", at_ms(0));
        c.insert(1, v(2), b"b", at_ms(1));
        assert_eq!(c.len(), 1);
        let (ver, val, _) = c.peek(1).unwrap();
        assert_eq!(ver, v(2));
        assert_eq!(&val[..], b"b");
    }
}
