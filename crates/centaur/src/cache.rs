//! The Centaur 16 MB eDRAM cache model.
//!
//! A memory-side cache: it holds 128-byte lines, is set-associative
//! with LRU replacement, and includes a simple sequential prefetcher
//! (paper §2.1: the buffer contains "16 MB on-board cache to support
//! prefetching"). The cache is a *timing* structure — data remains
//! authoritative in DRAM (the model writes through), so the cache only
//! decides whether an access pays DRAM latency.

use contutto_sim::snapshot::{self, SnapReader};

/// A set-associative tag array with LRU replacement.
#[derive(Debug, Clone)]
pub struct EdramCache {
    /// Every set's ways in one array: way `w` of set `s` is at
    /// `s * ways + w`.
    tags: Vec<CacheWay>,
    /// Bit `s % 64` of word `s / 64` is set once set `s` has had a
    /// line installed since the last invalidation, so every set holding
    /// a valid way has its bit set. Derived from `tags`: never
    /// persisted, rebuilt by restore. Snapshot, restore and
    /// invalidation visit only these sets, not all 16,384. Empty until
    /// the first install, so a boot allocates nothing for it.
    occupied: Vec<u64>,
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
            occupied: Vec::new(),
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
        self.mark_occupied(set_idx);
    }

    /// Records that `set_idx` holds a valid way.
    fn mark_occupied(&mut self, set_idx: usize) {
        if self.occupied.is_empty() {
            self.occupied = vec![0; self.num_sets.div_ceil(64)];
        }
        self.occupied[set_idx / 64] |= 1 << (set_idx % 64);
    }

    /// Invalidates the whole cache: every set that may hold a line
    /// goes back to the all-invalid state a boot builds.
    pub fn invalidate_all(&mut self) {
        for set_idx in set_bits(&self.occupied) {
            self.tags[set_idx * self.ways..(set_idx + 1) * self.ways].fill((false, 0, 0));
        }
        self.occupied.fill(0);
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

    /// The valid ways, as `(array index, (tag, last_used))` in strictly
    /// increasing index order after their count.
    fn persist_valid_ways(&self, out: &mut Vec<u8>) {
        let valid_ways = set_bits(&self.occupied).flat_map(|set_idx| {
            let first = set_idx * self.ways;
            self.set(set_idx)
                .iter()
                .enumerate()
                .filter(|(_, way)| way.0)
                .map(move |(way, &(_, tag, last_used))| (first + way, (tag, last_used)))
        });
        snapshot::persist_sparse(valid_ways, out);
    }

    fn restore_valid_ways(
        &self,
        r: &mut SnapReader<'_>,
    ) -> Result<Vec<ValidWay>, snapshot::RestoreError> {
        snapshot::restore_sparse(r, self.tags.len(), VALID_WAY_BYTES)
    }

    /// The tag array goes back to all-invalid, as a boot builds it, and
    /// the listed ways are laid over it. Both steps touch only the sets
    /// involved.
    fn lay_valid_ways(&mut self, listed: Vec<ValidWay>) -> Result<(), snapshot::RestoreError> {
        self.invalidate_all();
        for (idx, (tag, last_used)) in listed {
            self.tags[idx] = (true, tag, last_used);
            self.mark_occupied(idx / self.ways);
        }
        Ok(())
    }

    /// A miss prefetches `degree` lines, one by one: a degree past the
    /// lines the cache holds only evicts what it just filled, and one
    /// near `u64::MAX` would never finish a miss.
    fn degree_fits(&self, degree: &u64) -> Result<(), snapshot::RestoreError> {
        if *degree > self.tags.len() as u64 {
            return Err(snapshot::RestoreError::Malformed {
                context: "prefetch degree beyond the cache's lines",
            });
        }
        Ok(())
    }

    contutto_sim::state_fields! {
        /// Serializes all dynamic state: the valid ways, the LRU clock
        /// and the stats. Geometry is a construction parameter and is
        /// only cross-checked.
        ///
        /// Only valid ways are written, as `(array index, tag,
        /// last_used)` in strictly increasing index order after their
        /// count, so an image grows with the lines the cache holds, not
        /// with its 16 MB capacity; [`snapshot::restore_sparse`] accepts
        /// no other order, so each state has one encoding. An invalid
        /// way's tag and `last_used` are dead state: `probe_and_touch`,
        /// `contains` and `fill` read them only behind `valid`, and
        /// victim choice keys every invalid way 0 whatever it holds,
        /// with `min_by_key` breaking ties by the first index. A way
        /// restored as `(false, 0, 0)` therefore behaves exactly like
        /// the invalid way it stands for.
        ///
        /// The list holds no nested owner, so a restore error leaves
        /// the cache untouched: the ways are laid only once the whole
        /// payload has decoded.
        pub {
            same num_sets => "cache geometry",
            same ways => "cache geometry",
            same line_bytes => "cache geometry",
            apply (Self::persist_valid_ways, Self::restore_valid_ways => Self::lay_valid_ways),
            tick,
            hits,
            misses,
            prefetch_degree if Self::degree_fits,
            prefetch_fills,
        }
    }
}

/// A valid way in the image: its array index, then `(tag, last_used)`.
type ValidWay = (usize, (u64, u64));

/// Image bytes per valid way: index, tag and `last_used`, a `u64` each.
const VALID_WAY_BYTES: usize = 3 * 8;

/// The indices of the set bits of `words`, in increasing order.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use contutto_sim::snapshot::Persist;

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

    /// Header (sets, ways, line size) plus the valid-way count.
    const LIST_AT: usize = 4 * 8;
    /// Trailer: tick, hits, misses, prefetch degree, prefetch fills.
    const TRAILER_BYTES: usize = 5 * 8;

    fn image(c: &EdramCache) -> Vec<u8> {
        let mut img = Vec::new();
        c.snapshot_state(&mut img);
        img
    }

    fn valid_ways(c: &EdramCache) -> usize {
        c.tags.iter().filter(|&&(valid, _, _)| valid).count()
    }

    /// An image of a 4-set x 2-way cache holding `list` as its valid
    /// ways, each `(index, tag, last_used)`, under a declared `count`.
    fn hand_image(count: u64, list: &[(u64, u64, u64)]) -> Vec<u8> {
        let mut img = Vec::new();
        for field in [4u64, 2, 128, count] {
            field.persist(&mut img);
        }
        for &(idx, tag, last_used) in list {
            for field in [idx, tag, last_used] {
                field.persist(&mut img);
            }
        }
        for field in [9u64, 1, 2, 0, 0] {
            field.persist(&mut img);
        }
        img
    }

    fn restore_hand_image(img: &[u8]) -> Result<EdramCache, snapshot::RestoreError> {
        let mut c = EdramCache::new(256 * 4, 2); // 4 sets x 2 ways
        c.restore_state(&mut SnapReader::new(img))?;
        Ok(c)
    }

    /// The `(index, tag, last_used)` of every valid way, found by
    /// scanning the whole array: the oracle for the bitmap-driven image.
    fn scanned_ways(c: &EdramCache) -> Vec<(u64, u64, u64)> {
        c.tags
            .iter()
            .enumerate()
            .filter(|(_, way)| way.0)
            .map(|(idx, &(_, tag, last_used))| (idx as u64, tag, last_used))
            .collect()
    }

    fn listed_ways(img: &[u8]) -> Vec<(u64, u64, u64)> {
        let mut r = SnapReader::new(&img[LIST_AT - 8..]);
        let count = r.u64().unwrap();
        (0..count)
            .map(|_| (r.u64().unwrap(), r.u64().unwrap(), r.u64().unwrap()))
            .collect()
    }

    #[test]
    fn the_image_lists_exactly_the_ways_a_full_scan_finds() {
        let mut rng = contutto_sim::SimRng::seed_from_u64(11);
        let mut c = EdramCache::new(64 << 10, 4); // 128 sets x 4 ways
        let mut twin = EdramCache::new(64 << 10, 4);
        for round in 0..40 {
            for _ in 0..rng.gen_below(200) {
                c.access(rng.gen_below(1 << 20) * 128);
            }
            if round % 7 == 3 {
                c.invalidate_all();
            }
            let img = image(&c);
            assert_eq!(listed_ways(&img), scanned_ways(&c), "round {round}");
            // The twin, restored over whatever it held, images and
            // scans the same.
            twin.restore_state(&mut SnapReader::new(&img)).unwrap();
            assert_eq!(scanned_ways(&twin), scanned_ways(&c));
            assert_eq!(image(&twin), img);
        }
    }

    #[test]
    fn a_hand_written_way_list_restores_onto_the_listed_ways() {
        let c = restore_hand_image(&hand_image(2, &[(1, 5, 3), (6, 7, 8)])).unwrap();
        assert_eq!(valid_ways(&c), 2);
        // Way 1 is set 0's second way; way 6 is set 3's first.
        assert!(c.contains(5 * 4 * 128) && c.contains((7 * 4 + 3) * 128));
        assert_eq!((c.tick, c.hits, c.misses), (9, 1, 2));
    }

    #[test]
    fn a_way_index_past_the_array_is_malformed() {
        for idx in [8u64, 9, u64::MAX] {
            let err = restore_hand_image(&hand_image(1, &[(idx, 1, 1)])).unwrap_err();
            assert_eq!(
                err,
                snapshot::RestoreError::Malformed {
                    context: "sparse table index out of range"
                },
                "index {idx}"
            );
        }
    }

    #[test]
    fn a_duplicate_or_decreasing_way_index_is_malformed() {
        for list in [[(3, 1, 1), (3, 2, 2)], [(5, 1, 1), (2, 2, 2)]] {
            let err = restore_hand_image(&hand_image(2, &list)).unwrap_err();
            assert_eq!(
                err,
                snapshot::RestoreError::Malformed {
                    context: "sparse table indices not strictly increasing"
                },
                "list {list:?}"
            );
        }
    }

    #[test]
    fn a_way_count_past_the_bytes_left_is_truncated() {
        // The trailer's 40 bytes fit one more way but not two; a huge
        // count must fail before anything is allocated for it.
        for count in [3u64, 4, u64::MAX >> 1] {
            let err = restore_hand_image(&hand_image(count, &[(0, 1, 1)])).unwrap_err();
            assert!(
                matches!(err, snapshot::RestoreError::Truncated { .. }),
                "count {count}: got {err:?}"
            );
        }
    }

    #[test]
    fn a_prefetch_degree_beyond_the_cache_is_malformed() {
        // Degree is the second-to-last field of the image.
        let c = EdramCache::new(256 * 4, 2);
        let mut img = image(&c);
        let at = img.len() - 16;
        let mut target = EdramCache::new(256 * 4, 2);
        let lines = target.tags.len() as u64;
        img[at..at + 8].copy_from_slice(&lines.to_le_bytes());
        target.restore_state(&mut SnapReader::new(&img)).unwrap();
        for degree in [lines + 1, u64::MAX] {
            img[at..at + 8].copy_from_slice(&degree.to_le_bytes());
            let err = target
                .restore_state(&mut SnapReader::new(&img))
                .unwrap_err();
            assert_eq!(
                err,
                snapshot::RestoreError::Malformed {
                    context: "prefetch degree beyond the cache's lines"
                }
            );
        }
    }

    #[test]
    fn a_failed_restore_leaves_the_cache_untouched() {
        let mut c = EdramCache::new(256 * 4, 2);
        c.access(0);
        let before = image(&c);
        let bad = hand_image(2, &[(4, 1, 1), (4, 2, 2)]);
        assert!(c.restore_state(&mut SnapReader::new(&bad)).is_err());
        assert_eq!(image(&c), before);
    }

    #[test]
    fn a_cold_image_restored_onto_a_warm_cache_leaves_no_way_valid() {
        let cold = image(&EdramCache::new(16 << 10, 4));
        let mut warm = EdramCache::new(16 << 10, 4);
        for addr in (0..(8u64 << 10)).step_by(128) {
            warm.access(addr);
        }
        assert!(valid_ways(&warm) > 0);
        warm.restore_state(&mut SnapReader::new(&cold)).unwrap();
        assert_eq!(valid_ways(&warm), 0);
        assert!(!warm.contains(0));
        assert_eq!(image(&warm), cold);
    }

    #[test]
    fn an_invalidated_cache_images_like_a_fresh_one_with_its_counters() {
        let mut c = EdramCache::new(16 << 10, 4);
        for addr in (0..(4u64 << 10)).step_by(128) {
            c.access(addr);
        }
        c.access(0);
        c.invalidate_all();
        let mut fresh = EdramCache::new(16 << 10, 4);
        fresh.tick = c.tick;
        fresh.hits = c.hits;
        fresh.misses = c.misses;
        fresh.prefetch_fills = c.prefetch_fills;
        // The stale tags and LRU stamps behind `valid == false` never
        // reach the image.
        assert_eq!(image(&c), image(&fresh));
    }

    #[test]
    fn an_image_is_the_header_plus_a_fixed_size_per_valid_way() {
        let mut c = EdramCache::centaur();
        assert_eq!(image(&c).len(), LIST_AT + TRAILER_BYTES);
        for (i, addr) in (0..(1u64 << 20)).step_by(4096).enumerate() {
            c.access(addr);
            if i % 64 == 0 {
                let valid = valid_ways(&c);
                assert_eq!(
                    image(&c).len(),
                    LIST_AT + valid * VALID_WAY_BYTES + TRAILER_BYTES
                );
            }
        }
        // Degree-2 prefetch: three lines per missed 4 KiB stride.
        assert_eq!(valid_ways(&c), 3 * 256);
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
