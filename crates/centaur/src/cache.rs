//! The Centaur 16 MB eDRAM cache model.
//!
//! A memory-side cache: it holds 128-byte lines, is set-associative
//! with LRU replacement, and includes a simple sequential prefetcher
//! (paper §2.1: the buffer contains "16 MB on-board cache to support
//! prefetching"). The cache is a *timing* structure — data remains
//! authoritative in DRAM (the model writes through), so the cache only
//! decides whether an access pays DRAM latency.

use contutto_sim::snapshot::{self, Persist, SnapReader};

/// A set-associative tag array with LRU replacement.
#[derive(Debug, Clone)]
pub struct EdramCache {
    /// Every set's ways in one array: way `w` of set `s` is at
    /// `s * ways + w`.
    tags: Vec<CacheWay>,
    num_sets: usize,
    ways: usize,
    line_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    prefetch_degree: u64,
    prefetch_fills: u64,
}

/// One way: `(valid, tag, last_used)`. A tuple of primitives rather
/// than a struct, so the all-zero tag array a boot builds is one zeroed
/// allocation: the OS maps its pages only as sets are first touched,
/// and a boot pays no page faults for the 3 MB a Centaur's array takes.
type CacheWay = (bool, u64, u64);

impl EdramCache {
    /// Creates a cache of `capacity` bytes with `ways`-way sets and
    /// 128-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless capacity is a positive multiple of
    /// `ways * line size`.
    pub fn new(capacity: u64, ways: usize) -> Self {
        let line_bytes = 128u64;
        assert!(ways > 0, "need at least one way");
        let set_bytes = line_bytes * ways as u64;
        assert!(
            capacity > 0 && capacity.is_multiple_of(set_bytes),
            "capacity must be a multiple of way count x line size"
        );
        let num_sets = (capacity / set_bytes) as usize;
        EdramCache {
            tags: vec![(false, 0, 0); num_sets * ways],
            num_sets,
            ways,
            line_bytes,
            tick: 0,
            hits: 0,
            misses: 0,
            prefetch_degree: 2,
            prefetch_fills: 0,
        }
    }

    /// The paper's Centaur cache: 16 MB, 8-way.
    pub fn centaur() -> Self {
        EdramCache::new(16 << 20, 8)
    }

    /// Sets the sequential-prefetch degree (0 disables prefetch).
    pub fn set_prefetch_degree(&mut self, degree: u64) {
        self.prefetch_degree = degree;
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        ((line as usize) % self.num_sets, line / self.num_sets as u64)
    }

    fn set(&self, set_idx: usize) -> &[CacheWay] {
        &self.tags[set_idx * self.ways..(set_idx + 1) * self.ways]
    }

    fn set_mut(&mut self, set_idx: usize) -> &mut [CacheWay] {
        &mut self.tags[set_idx * self.ways..(set_idx + 1) * self.ways]
    }

    /// Looks up `addr`; on miss, fills the line and (if enabled)
    /// prefetches the next lines. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let hit = self.probe_and_touch(addr);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.fill(addr);
            for i in 1..=self.prefetch_degree {
                let pf = addr + i * self.line_bytes;
                if !self.probe_and_touch(pf) {
                    self.fill(pf);
                    self.prefetch_fills += 1;
                }
            }
        }
        hit
    }

    /// Probes without filling (no stats side effects beyond LRU touch).
    fn probe_and_touch(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        let tick = self.tick;
        for (valid, way_tag, last_used) in self.set_mut(set_idx) {
            if *valid && *way_tag == tag {
                *last_used = tick;
                return true;
            }
        }
        false
    }

    /// Checks residency without any side effects.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.set(set_idx)
            .iter()
            .any(|&(valid, way_tag, _)| valid && way_tag == tag)
    }

    /// Installs a line, evicting LRU if needed.
    pub fn fill(&mut self, addr: u64) {
        let (set_idx, tag) = self.set_and_tag(addr);
        let tick = self.tick;
        let set = self.set_mut(set_idx);
        // Already resident?
        if let Some((_, _, last_used)) = set
            .iter_mut()
            .find(|(valid, way_tag, _)| *valid && *way_tag == tag)
        {
            *last_used = tick;
            return;
        }
        // A zero-way geometry has nowhere to install the line; degrade
        // to an uncached fill instead of aborting mid-fault-campaign.
        let Some(victim) = set
            .iter_mut()
            .min_by_key(|(valid, _, last_used)| if *valid { *last_used } else { 0 })
        else {
            return;
        };
        *victim = (true, tag, tick);
    }

    /// Invalidates the whole cache.
    pub fn invalidate_all(&mut self) {
        for (valid, _, _) in &mut self.tags {
            *valid = false;
        }
    }

    /// Demand hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lines installed by the prefetcher.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Hit rate over demand accesses (0 when no accesses yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Cache capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Serializes all dynamic state (tag array, LRU clock, stats).
    /// Geometry is a construction parameter and is only cross-checked.
    pub fn snapshot_state(&self, out: &mut Vec<u8>) {
        (self.num_sets as u64).persist(out);
        (self.ways as u64).persist(out);
        self.line_bytes.persist(out);
        for set_idx in 0..self.num_sets {
            // Every set holds `ways` ways; the image still spells the
            // count out per set.
            (self.ways as u64).persist(out);
            for way in self.set(set_idx) {
                way.persist(out);
            }
        }
        self.tick.persist(out);
        self.hits.persist(out);
        self.misses.persist(out);
        self.prefetch_degree.persist(out);
        self.prefetch_fills.persist(out);
    }

    /// Overlays an [`EdramCache::snapshot_state`] image onto this
    /// cache.
    ///
    /// # Errors
    ///
    /// [`snapshot::RestoreError::TopologyMismatch`] if the image came
    /// from a different geometry, [`snapshot::RestoreError::Malformed`]
    /// if a set does not hold exactly `ways` ways, or any decode error
    /// from a corrupt payload. Ways are decoded straight into the tag
    /// array, so after an error past the geometry check the cache is
    /// partly overwritten and must be discarded, like the system a
    /// failed restore leaves behind.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), snapshot::RestoreError> {
        let num_sets = r.len()?;
        let ways = r.len()?;
        let line_bytes = r.u64()?;
        if num_sets != self.num_sets || ways != self.ways || line_bytes != self.line_bytes {
            return Err(snapshot::RestoreError::TopologyMismatch {
                context: "cache geometry",
            });
        }
        for set_idx in 0..num_sets {
            if r.len()? != ways {
                return Err(snapshot::RestoreError::Malformed {
                    context: "cache set way count",
                });
            }
            for way in self.set_mut(set_idx) {
                *way = CacheWay::restore(r)?;
            }
        }
        let tick = r.u64()?;
        let hits = r.u64()?;
        let misses = r.u64()?;
        let prefetch_degree = r.u64()?;
        let prefetch_fills = r.u64()?;
        self.tick = tick;
        self.hits = hits;
        self.misses = misses;
        self.prefetch_degree = prefetch_degree;
        self.prefetch_fills = prefetch_fills;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centaur_geometry() {
        let c = EdramCache::centaur();
        assert_eq!(c.capacity_bytes(), 16 << 20);
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = EdramCache::new(16 << 10, 4);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn sequential_prefetch_turns_misses_into_hits() {
        let mut c = EdramCache::new(16 << 10, 4);
        c.set_prefetch_degree(2);
        assert!(!c.access(0)); // miss, prefetches lines 1 and 2
        assert!(c.access(128)); // prefetched
        assert!(c.access(256)); // prefetched
        assert!(c.prefetch_fills() >= 2);
    }

    #[test]
    fn prefetch_disabled_means_all_cold_misses() {
        let mut c = EdramCache::new(16 << 10, 4);
        c.set_prefetch_degree(0);
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set x 2 ways: third distinct line evicts the LRU.
        let mut c = EdramCache::new(256, 2);
        c.set_prefetch_degree(0);
        c.access(0); // set 0
        c.access(256); // same set (1 set total), way 2
        c.access(0); // touch line 0 (now MRU)
        c.access(512); // evicts line 256
        assert!(c.contains(0));
        assert!(!c.contains(256));
        assert!(c.contains(512));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = EdramCache::new(16 << 10, 4); // 16 KiB
        c.set_prefetch_degree(0);
        // Stream 1 MiB twice: no reuse fits.
        for pass in 0..2 {
            for addr in (0..(1 << 20)).step_by(128) {
                c.access(addr as u64);
            }
            if pass == 0 {
                assert_eq!(c.hits(), 0);
            }
        }
        assert!(c.hit_rate() < 0.01, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn invalidate_all_flushes() {
        let mut c = EdramCache::new(16 << 10, 4);
        c.access(0);
        assert!(c.contains(0));
        c.invalidate_all();
        assert!(!c.contains(0));
    }

    #[test]
    fn snapshot_restore_preserves_residency_and_lru() {
        let mut c = EdramCache::new(16 << 10, 4);
        c.access(0);
        c.access(0x1000);
        c.access(0);
        let mut img = Vec::new();
        c.snapshot_state(&mut img);
        let mut fresh = EdramCache::new(16 << 10, 4);
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();
        assert!(fresh.contains(0) && fresh.contains(0x1000));
        assert_eq!(fresh.hits(), c.hits());
        assert_eq!(fresh.misses(), c.misses());
        assert_eq!(fresh.prefetch_fills(), c.prefetch_fills());
        // LRU order came back: the two copies evict identically.
        for addr in [0x8000u64, 0x9000, 0xA000] {
            assert_eq!(c.access(addr), fresh.access(addr));
        }
        assert_eq!(fresh.hits(), c.hits());
        // Different geometry refuses the image.
        let mut other = EdramCache::new(16 << 10, 8);
        let err = other.restore_state(&mut SnapReader::new(&img)).unwrap_err();
        assert!(
            matches!(err, snapshot::RestoreError::TopologyMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn a_set_with_the_wrong_way_count_is_malformed() {
        let c = EdramCache::new(256 * 4, 2); // 4 sets x 2 ways
        let mut img = Vec::new();
        c.snapshot_state(&mut img);
        // Header: sets, ways, line size; then set 0's way count.
        let count_at = 3 * 8;
        for bad in [0u64, 1, 3] {
            let mut ragged = img.clone();
            ragged[count_at..count_at + 8].copy_from_slice(&bad.to_le_bytes());
            let mut fresh = EdramCache::new(256 * 4, 2);
            let err = fresh
                .restore_state(&mut SnapReader::new(&ragged))
                .unwrap_err();
            assert_eq!(
                err,
                snapshot::RestoreError::Malformed {
                    context: "cache set way count"
                },
                "way count {bad}"
            );
        }
        let mut fresh = EdramCache::new(256 * 4, 2);
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn geometry_validation() {
        let _ = EdramCache::new(1000, 4);
    }

    #[test]
    fn degenerate_zero_way_set_degrades_instead_of_aborting() {
        // The public constructor rejects zero ways, but a fill against
        // an empty set must still degrade gracefully — the chaos
        // oracle's no-panic invariant covers every internal path.
        let mut c = EdramCache::new(16 << 10, 4);
        c.ways = 0;
        c.tags.clear();
        c.access(0);
        c.fill(128);
        assert!(!c.contains(0), "nothing can be resident with no ways");
        assert_eq!(c.hits(), 0);
    }
}
