//! Sparse functional backing store.
//!
//! Devices in this crate can model terabytes of capacity; allocating
//! that eagerly would be absurd. [`SparseMemory`] allocates 4 KiB pages
//! on first write and reads zeros from untouched pages (matching how a
//! scrubbed DIMM behaves after IPL). It is the plain data store of the
//! devices without ECC (NAND flash, the disk, the block devices); the
//! DIMM arrays keep their pages, check bytes included, in
//! [`crate::MediaArray`].

use std::collections::BTreeMap;
use std::ops::Range;

use contutto_sim::snapshot::{self, Persist, RestoreError, SnapReader};

const PAGE_SIZE: u64 = 4096;

/// One `unit`-aligned block a span touches: the block's base, where the
/// span starts in it, and the part of the span it holds.
pub(crate) type Span = (u64, usize, Range<usize>);

/// The blocks of `unit` bytes a span of `len` bytes at `addr` touches.
pub(crate) fn spans(addr: u64, len: usize, unit: u64) -> impl Iterator<Item = Span> {
    let end = addr + len as u64;
    (addr / unit * unit..end)
        .step_by(unit as usize)
        .map(move |base| {
            let (start, stop) = (base.max(addr), (base + unit).min(end));
            (
                base,
                (start - base) as usize,
                (start - addr) as usize..(stop - addr) as usize,
            )
        })
}

/// A sparse, zero-initialized byte store.
///
/// # Example
///
/// ```
/// use contutto_memdev::SparseMemory;
/// let mut m = SparseMemory::new();
/// m.write(1_000_000, b"hello");
/// let mut buf = [0u8; 5];
/// m.read(1_000_000, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl SparseMemory {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        for (base, at, span) in spans(addr, buf.len(), PAGE_SIZE) {
            match self.pages.get(&(base / PAGE_SIZE)) {
                Some(page) => buf[span.clone()].copy_from_slice(&page[at..at + span.len()]),
                None => buf[span].fill(0),
            }
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        for (base, at, span) in spans(addr, data.len(), PAGE_SIZE) {
            let page = self.pages.entry(base / PAGE_SIZE);
            let page = page.or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
            page[at..at + span.len()].copy_from_slice(&data[span]);
        }
    }
}

impl Persist for SparseMemory {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.pages.len() as u64).persist(out);
        for (idx, page) in &self.pages {
            idx.persist(out);
            out.extend_from_slice(&page[..]);
        }
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        // The map is built entry by entry, so a count claiming more
        // entries than remain fails on the first missing one.
        let n = r.len()?;
        let pages = snapshot::restore_entries(r, n, |r| Ok(Box::new(Persist::restore(r)?)))?;
        Ok(SparseMemory { pages })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_reads_zero() {
        let m = SparseMemory::new();
        let mut buf = [0xFFu8; 64];
        m.read(123_456, &mut buf);
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(m.pages.len(), 0);
    }

    #[test]
    fn write_read_roundtrip_within_page() {
        let mut m = SparseMemory::new();
        m.write(100, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.pages.len(), 1);
    }

    #[test]
    fn write_read_across_page_boundary() {
        let mut m = SparseMemory::new();
        let data: Vec<u8> = (0..100).collect();
        m.write(PAGE_SIZE - 50, &data);
        let mut buf = vec![0u8; 100];
        m.read(PAGE_SIZE - 50, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(m.pages.len(), 2);
    }

    #[test]
    fn partial_page_keeps_surroundings_zero() {
        let mut m = SparseMemory::new();
        m.write(10, &[0xAA]);
        let mut buf = [0u8; 3];
        m.read(9, &mut buf);
        assert_eq!(buf, [0, 0xAA, 0]);
    }

    #[test]
    fn snapshot_roundtrip_preserves_contents() {
        let mut m = SparseMemory::new();
        m.write(100, &[1, 2, 3]);
        m.write(9 * PAGE_SIZE + 7, &[0xEE; 64]);
        let mut img = Vec::new();
        m.persist(&mut img);
        let restored = SparseMemory::restore(&mut SnapReader::new(&img)).unwrap();
        assert_eq!(restored.pages.keys().collect::<Vec<_>>(), [&0, &9]);
        let mut buf = [0u8; 3];
        restored.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn snapshot_restore_rejects_oversized_page_table() {
        let mut img = Vec::new();
        (u64::MAX).persist(&mut img);
        let err = SparseMemory::restore(&mut SnapReader::new(&img)).unwrap_err();
        assert!(matches!(err, RestoreError::Truncated { .. }), "got {err:?}");
    }
}
