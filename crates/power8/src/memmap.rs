//! The system memory map and its placement rules.
//!
//! Paper §3.4: "When ConTutto is booted with DRAM, the memory can be
//! treated just like regular memory and sorted to form a contiguous
//! memory block. However, for MRAM or NVDIMMs, these need to be placed
//! at a non-zero location as Linux requires DRAM at the start of the
//! memory map. ... firmware enforces that nonvolatile memory is placed
//! at the top of the memory map, and with flags that indicate the type
//! (DRAM/MRAM/NVDIMM) and whether the content is preserved."
//!
//! Also the size "lying": "current sizes for MRAM are in the Megabyte
//! range, but the smallest memory size supported by the POWER8
//! processor is 4 GB behind a DMI link. We address this by 'lying' to
//! the processor, indicating a 4 GB MRAM space, but only communicating
//! up to Linux the actual size of the MRAM in Megabytes."

use contutto_memdev::MediaKind;
use contutto_sim::persist_fields;
use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};

/// Smallest memory size POWER8 supports behind one DMI link.
pub const MIN_DMI_REGION_BYTES: u64 = 4 << 30;

/// Region attribute flags exposed to the OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionFlags {
    /// Media type indicator.
    pub kind: MediaKind,
    /// Contents preserved across power cycles.
    pub preserved: bool,
    /// Needs a special (pmem/slram) driver rather than normal paging.
    pub needs_driver: bool,
}

/// One region of the physical memory map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryRegion {
    /// Start physical address (what the processor decodes).
    pub base: u64,
    /// Size the *hardware* decodes (≥ 4 GB per DMI link).
    pub hw_size: u64,
    /// Size reported to Linux (actual media size — the "lying" gap).
    pub os_size: u64,
    /// Attribute flags.
    pub flags: RegionFlags,
    /// DMI channel backing this region.
    pub channel: usize,
}

impl MemoryRegion {
    /// Whether the hardware decodes more than the OS may touch.
    pub fn is_undersized_media(&self) -> bool {
        self.os_size < self.hw_size
    }

    /// End of the hardware-decoded window.
    pub fn hw_end(&self) -> u64 {
        self.base + self.hw_size
    }
}

/// Errors in memory-map construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// No volatile DRAM present — Linux cannot boot.
    NoDramAtZero,
    /// Regions would overlap.
    Overlap {
        /// Index of the offending region.
        index: usize,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::NoDramAtZero => write!(f, "no dram region to place at address zero"),
            MapError::Overlap { index } => write!(f, "region {index} overlaps its neighbor"),
        }
    }
}

impl std::error::Error for MapError {}

/// Errors in routing a demand access through the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The physical address falls outside every OS-visible region.
    Unmapped {
        /// The offending physical address.
        phys: u64,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Unmapped { phys } => {
                write!(f, "physical address {phys:#x} is not mapped")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The assembled memory map.
///
/// # Example
///
/// ```
/// use contutto_power8::memmap::{ChannelMemory, MemoryMap};
/// use contutto_memdev::MediaKind;
///
/// let map = MemoryMap::build(
///     &[
///         ChannelMemory { channel: 0, kind: MediaKind::Dram, capacity: 32 << 30 },
///         ChannelMemory { channel: 5, kind: MediaKind::SttMram, capacity: 512 << 20 },
///     ],
///     1 << 42,
/// )?;
/// // DRAM at zero; the small MRAM gets a 4 GB hardware window at the top.
/// assert!(map.dram_at_zero().is_some());
/// assert!(map.nonvolatile_regions()[0].is_undersized_media());
/// # Ok::<(), contutto_power8::memmap::MapError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryMap {
    regions: Vec<MemoryRegion>,
}

/// Input to map construction: one populated channel's memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMemory {
    /// DMI channel index.
    pub channel: usize,
    /// Media kind behind the buffer.
    pub kind: MediaKind,
    /// Actual media capacity.
    pub capacity: u64,
}

impl MemoryMap {
    /// Builds the map per the firmware rules: volatile regions sorted
    /// contiguously from zero; non-volatile regions at the top of the
    /// map with flags; every region's hardware window padded to the
    /// 4 GB DMI minimum.
    ///
    /// # Errors
    ///
    /// [`MapError::NoDramAtZero`] if no volatile memory exists.
    pub fn build(channels: &[ChannelMemory], top_of_map: u64) -> Result<Self, MapError> {
        let mut volatile: Vec<&ChannelMemory> = channels
            .iter()
            .filter(|c| !c.kind.is_nonvolatile())
            .collect();
        let nonvolatile: Vec<&ChannelMemory> = channels
            .iter()
            .filter(|c| c.kind.is_nonvolatile())
            .collect();
        if volatile.is_empty() {
            return Err(MapError::NoDramAtZero);
        }
        volatile.sort_by_key(|c| c.channel);
        let mut regions = Vec::new();
        let mut cursor = 0u64;
        for c in volatile {
            let hw = c.capacity.max(MIN_DMI_REGION_BYTES);
            regions.push(MemoryRegion {
                base: cursor,
                hw_size: hw,
                os_size: c.capacity,
                flags: RegionFlags {
                    kind: c.kind,
                    preserved: false,
                    needs_driver: false,
                },
                channel: c.channel,
            });
            cursor += hw;
        }
        // Non-volatile at the top of the map, highest channel first.
        let mut top = top_of_map;
        for c in nonvolatile.iter().rev() {
            let hw = c.capacity.max(MIN_DMI_REGION_BYTES);
            top -= hw;
            regions.push(MemoryRegion {
                base: top,
                hw_size: hw,
                os_size: c.capacity,
                flags: RegionFlags {
                    kind: c.kind,
                    preserved: true,
                    needs_driver: true,
                },
                channel: c.channel,
            });
        }
        let map = MemoryMap { regions };
        map.validate()?;
        Ok(map)
    }

    fn validate(&self) -> Result<(), MapError> {
        let mut sorted: Vec<&MemoryRegion> = self.regions.iter().collect();
        sorted.sort_by_key(|r| r.base);
        for (i, pair) in sorted.windows(2).enumerate() {
            if pair[0].hw_end() > pair[1].base {
                return Err(MapError::Overlap { index: i + 1 });
            }
        }
        Ok(())
    }

    /// All regions.
    pub fn regions(&self) -> &[MemoryRegion] {
        &self.regions
    }

    /// Resolves a physical address to (region index, offset).
    pub fn resolve(&self, addr: u64) -> Option<(usize, u64)> {
        self.regions
            .iter()
            .enumerate()
            .find(|(_, r)| addr >= r.base && addr < r.base + r.os_size)
            .map(|(i, r)| (i, addr - r.base))
    }

    /// The volatile region holding address zero.
    pub fn dram_at_zero(&self) -> Option<&MemoryRegion> {
        self.regions
            .iter()
            .find(|r| r.base == 0 && !r.flags.kind.is_nonvolatile())
    }

    /// Retargets every region backed by channel `from` onto channel
    /// `to`, returning how many regions moved. The address ranges the
    /// processor decodes are untouched — only the backing channel
    /// changes, which is exactly what a failover does: same physical
    /// addresses, different buffer serving them.
    pub fn rebind_channel(&mut self, from: usize, to: usize) -> usize {
        let mut moved = 0;
        for region in &mut self.regions {
            if region.channel == from {
                region.channel = to;
                moved += 1;
            }
        }
        moved
    }

    /// Whether any region is backed by the given channel.
    pub fn channel_is_mapped(&self, channel: usize) -> bool {
        self.regions.iter().any(|r| r.channel == channel)
    }

    /// All non-volatile regions (for the pmem driver).
    pub fn nonvolatile_regions(&self) -> Vec<&MemoryRegion> {
        self.regions
            .iter()
            .filter(|r| r.flags.kind.is_nonvolatile())
            .collect()
    }
}

persist_fields!(RegionFlags {
    kind,
    preserved,
    needs_driver
});

persist_fields!(MemoryRegion {
    base,
    hw_size,
    os_size,
    flags,
    channel
});

impl Persist for MemoryMap {
    fn persist(&self, out: &mut Vec<u8>) {
        self.regions.persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let map = MemoryMap {
            regions: Vec::restore(r)?,
        };
        // A restored map must still satisfy the firmware's placement
        // invariants; a bit-flipped base could otherwise overlap.
        map.validate().map_err(|_| RestoreError::Malformed {
            context: "restored memory map regions overlap",
        })?;
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOP: u64 = 1 << 42; // 4 TB decode window

    fn dram(ch: usize, cap: u64) -> ChannelMemory {
        ChannelMemory {
            channel: ch,
            kind: MediaKind::Dram,
            capacity: cap,
        }
    }

    fn mram(ch: usize, cap: u64) -> ChannelMemory {
        ChannelMemory {
            channel: ch,
            kind: MediaKind::SttMram,
            capacity: cap,
        }
    }

    #[test]
    fn dram_sorts_contiguously_from_zero() {
        let map = MemoryMap::build(&[dram(2, 32 << 30), dram(0, 32 << 30)], TOP).unwrap();
        let r = map.regions();
        assert_eq!(r[0].base, 0);
        assert_eq!(r[0].channel, 0);
        assert_eq!(r[1].base, 32 << 30);
        assert_eq!(r[1].channel, 2);
        assert!(map.dram_at_zero().is_some());
    }

    #[test]
    fn nonvolatile_goes_to_top_with_flags() {
        let map = MemoryMap::build(&[dram(0, 32 << 30), mram(5, 512 << 20)], TOP).unwrap();
        let nv = map.nonvolatile_regions();
        assert_eq!(nv.len(), 1);
        let r = nv[0];
        assert!(r.base >= TOP - MIN_DMI_REGION_BYTES);
        assert!(r.flags.preserved);
        assert!(r.flags.needs_driver);
        assert_eq!(r.flags.kind, MediaKind::SttMram);
    }

    #[test]
    fn mram_size_lying() {
        // 512 MB of MRAM: hardware decodes 4 GB, Linux sees 512 MB.
        let map = MemoryMap::build(&[dram(0, 32 << 30), mram(5, 512 << 20)], TOP).unwrap();
        let r = map.nonvolatile_regions()[0];
        assert_eq!(r.hw_size, MIN_DMI_REGION_BYTES);
        assert_eq!(r.os_size, 512 << 20);
        assert!(r.is_undersized_media());
        // The OS may touch only the first 512 MB.
        assert!(map.resolve(r.base + (512 << 20) - 1).is_some());
        assert_eq!(map.resolve(r.base + (512 << 20)), None);
    }

    #[test]
    fn no_dram_fails_boot() {
        assert_eq!(
            MemoryMap::build(&[mram(0, 512 << 20)], TOP),
            Err(MapError::NoDramAtZero)
        );
    }

    #[test]
    fn resolve_maps_addresses_to_regions() {
        let map = MemoryMap::build(&[dram(0, 8 << 30), dram(1, 8 << 30)], TOP).unwrap();
        assert_eq!(map.resolve(0), Some((0, 0)));
        assert_eq!(map.resolve((8 << 30) + 5), Some((1, 5)));
        assert_eq!(map.resolve(1 << 41), None);
    }

    #[test]
    fn rebind_retargets_regions_without_moving_addresses() {
        let mut map = MemoryMap::build(&[dram(0, 8 << 30), dram(2, 8 << 30)], TOP).unwrap();
        let before: Vec<(u64, u64)> = map.regions().iter().map(|r| (r.base, r.hw_size)).collect();
        assert!(map.channel_is_mapped(2));
        assert_eq!(map.rebind_channel(2, 4), 1);
        assert!(!map.channel_is_mapped(2));
        assert!(map.channel_is_mapped(4));
        let after: Vec<(u64, u64)> = map.regions().iter().map(|r| (r.base, r.hw_size)).collect();
        assert_eq!(before, after, "address layout is unchanged");
        // Rebinding a channel that backs nothing is a no-op.
        assert_eq!(map.rebind_channel(9, 1), 0);
    }

    #[test]
    fn multiple_nv_channels_stack_below_top() {
        let map = MemoryMap::build(
            &[dram(0, 8 << 30), mram(6, 512 << 20), mram(7, 512 << 20)],
            TOP,
        )
        .unwrap();
        let nv = map.nonvolatile_regions();
        assert_eq!(nv.len(), 2);
        // Disjoint 4 GB hardware windows at the top.
        let mut bases: Vec<u64> = nv.iter().map(|r| r.base).collect();
        bases.sort_unstable();
        assert_eq!(bases[1] - bases[0], MIN_DMI_REGION_BYTES);
        assert_eq!(bases[1] + MIN_DMI_REGION_BYTES, TOP);
    }
}
