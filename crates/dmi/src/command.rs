//! The command layer of the DMI protocol.
//!
//! Paper §2.2/§2.3: operations are performed on 128-byte cache-line
//! boundaries; the primary commands are full-line reads and writes plus
//! partial-line read-modify-writes. Each command carries one of **32
//! tags**; read data and the final *done* notification are paired back
//! to the command by tag, and a tag is only reusable after its done
//! arrives.
//!
//! ConTutto additionally defines a **flush** command (paper §4.2, for
//! persistent-memory sync) and fine-grained inline-acceleration
//! commands such as min-store / max-store / conditional-swap (paper
//! §4.3, Figure 11). The Centaur model rejects those: they only exist
//! on the FPGA.

use std::fmt;

use contutto_sim::persist_fields;
use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};
use contutto_sim::{TraceEvent, Tracer};

use crate::error::DmiError;

/// Size of a DMI cache line in bytes (paper §2.2).
pub const CACHE_LINE_BYTES: usize = 128;

/// Number of command tags the processor maintains (paper §2.3).
pub const NUM_TAGS: usize = 32;

/// A 128-byte cache line payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheLine(pub [u8; CACHE_LINE_BYTES]);

impl CacheLine {
    /// An all-zero line.
    pub const ZERO: CacheLine = CacheLine([0; CACHE_LINE_BYTES]);

    /// Builds a line whose bytes are a deterministic function of a
    /// seed — handy for tests and workload generators.
    pub fn patterned(seed: u64) -> Self {
        let mut bytes = [0u8; CACHE_LINE_BYTES];
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for b in &mut bytes {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            *b = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
        }
        CacheLine(bytes)
    }

    /// Returns the line as a byte slice.
    pub fn as_bytes(&self) -> &[u8; CACHE_LINE_BYTES] {
        &self.0
    }

    /// Reads the `i`-th little-endian u64 word (0..16).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    pub fn word(&self, i: usize) -> u64 {
        let s = &self.0[i * 8..i * 8 + 8];
        u64::from_le_bytes(s.try_into().expect("8 bytes"))
    }

    /// Writes the `i`-th little-endian u64 word (0..16).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    pub fn set_word(&mut self, i: usize, v: u64) {
        self.0[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl Default for CacheLine {
    fn default() -> Self {
        CacheLine::ZERO
    }
}

impl fmt::Debug for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheLine({:02x}{:02x}{:02x}{:02x}…{:02x}{:02x})",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[126], self.0[127]
        )
    }
}

impl From<[u8; CACHE_LINE_BYTES]> for CacheLine {
    fn from(bytes: [u8; CACHE_LINE_BYTES]) -> Self {
        CacheLine(bytes)
    }
}

/// A command tag (0..32). Tags identify commands in flight and are the
/// unit of flow control on the command loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(u8);

impl Tag {
    /// Creates a tag, validating the range.
    ///
    /// # Errors
    ///
    /// Returns [`DmiError::UnknownTag`] if `raw >= 32`.
    pub fn new(raw: u8) -> Result<Self, DmiError> {
        if (raw as usize) < NUM_TAGS {
            Ok(Tag(raw))
        } else {
            Err(DmiError::UnknownTag(raw))
        }
    }

    /// The raw tag index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw tag byte.
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// The processor-side pool of 32 command tags.
///
/// `acquire` hands out the lowest free tag; `release` returns one when
/// its *done* response arrives. When the pool is empty the processor
/// must stall — the throttling effect paper §2.3 warns about when
/// buffer latency is too high.
#[derive(Debug, Clone)]
pub struct TagPool {
    free: u32, // bitmask, bit i set = tag i free
    tracer: Tracer,
}

impl Default for TagPool {
    fn default() -> Self {
        Self::new()
    }
}

impl TagPool {
    /// Creates a pool with all 32 tags free.
    pub fn new() -> Self {
        TagPool {
            free: u32::MAX,
            tracer: Tracer::off(),
        }
    }

    /// Connects the pool to a shared [`Tracer`]; every tag acquire,
    /// release and exhaustion stall is recorded.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Acquires the lowest-numbered free tag.
    ///
    /// # Errors
    ///
    /// Returns [`DmiError::NoFreeTag`] when all 32 tags are in flight.
    pub fn acquire(&mut self) -> Result<Tag, DmiError> {
        if self.free == 0 {
            self.tracer.record(TraceEvent::TagExhausted);
            return Err(DmiError::NoFreeTag);
        }
        let idx = self.free.trailing_zeros() as u8;
        self.free &= !(1 << idx);
        self.tracer.record(TraceEvent::TagAcquire { tag: idx });
        Ok(Tag(idx))
    }

    /// Releases a tag back to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`DmiError::UnknownTag`] if the tag was not in flight
    /// (double release is a protocol violation worth surfacing).
    pub fn release(&mut self, tag: Tag) -> Result<(), DmiError> {
        let bit = 1u32 << tag.0;
        if self.free & bit != 0 {
            return Err(DmiError::UnknownTag(tag.0));
        }
        self.free |= bit;
        self.tracer.record(TraceEvent::TagRelease { tag: tag.0 });
        Ok(())
    }

    /// Forcibly returns a tag to the pool outside the normal done path
    /// (timeout reclamation after a protocol hang). Returns `true` if
    /// the tag was in flight and is now free again; `false` if it was
    /// already free (idempotent, unlike [`TagPool::release`]).
    ///
    /// Records [`TraceEvent::TagReclaimed`] rather than a release, so
    /// traces distinguish recovered tags from normally completed ones.
    pub fn reclaim(&mut self, tag: Tag) -> bool {
        let bit = 1u32 << tag.0;
        if self.free & bit != 0 {
            return false;
        }
        self.free |= bit;
        self.tracer.record(TraceEvent::TagReclaimed { tag: tag.0 });
        true
    }

    /// Number of free tags.
    pub fn available(&self) -> usize {
        self.free.count_ones() as usize
    }

    /// Number of tags currently in flight.
    pub fn in_flight(&self) -> usize {
        NUM_TAGS - self.available()
    }

    /// Whether a specific tag is currently in flight.
    pub fn is_in_flight(&self, tag: Tag) -> bool {
        self.free & (1 << tag.0) == 0
    }

    contutto_sim::state_fields! {
        /// Serializes the pool's dynamic state (the free bitmask) into a
        /// snapshot payload. The tracer attachment is construction-time
        /// wiring and is not part of the image.
        pub {
            free,
        }
    }
}

/// Atomic read-modify-write operations supported by the buffer's ALU
/// (paper §3.3(iii): "To support atomic read-modify-write commands,
/// data read from the memory is merged with downstream data").
///
/// The inline-acceleration operations of paper §4.3 Fig. 11
/// (min-store, max-store, conditional swap) use the same machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// Replace the bytes selected by the mask (partial write).
    PartialWrite {
        /// Bitmask of 16-byte sectors to replace (bit i = sector i).
        sector_mask: u8,
    },
    /// 64-bit add on every word, wrapping.
    AtomicAdd,
    /// Store min(old, new) per 64-bit word (inline acceleration).
    MinStore,
    /// Store max(old, new) per 64-bit word (inline acceleration).
    MaxStore,
    /// Swap line with the new data iff word 0 matches word 0 of the
    /// incoming line (inline acceleration: conditional swap).
    ConditionalSwap,
}

impl RmwOp {
    /// Applies the op: merges `incoming` into `current`, returning the
    /// line to write back.
    pub fn apply(self, current: CacheLine, incoming: CacheLine) -> CacheLine {
        match self {
            RmwOp::PartialWrite { sector_mask } => {
                let mut out = current;
                for sector in 0..8 {
                    if sector_mask & (1 << sector) != 0 {
                        let range = sector * 16..(sector + 1) * 16;
                        out.0[range.clone()].copy_from_slice(&incoming.0[range]);
                    }
                }
                out
            }
            RmwOp::AtomicAdd => {
                let mut out = current;
                for w in 0..16 {
                    out.set_word(w, current.word(w).wrapping_add(incoming.word(w)));
                }
                out
            }
            RmwOp::MinStore => {
                let mut out = current;
                for w in 0..16 {
                    out.set_word(w, current.word(w).min(incoming.word(w)));
                }
                out
            }
            RmwOp::MaxStore => {
                let mut out = current;
                for w in 0..16 {
                    out.set_word(w, current.word(w).max(incoming.word(w)));
                }
                out
            }
            RmwOp::ConditionalSwap => {
                if current.word(0) == incoming.word(0) {
                    incoming
                } else {
                    current
                }
            }
        }
    }

    /// Whether this op is a ConTutto-only extension (not implemented by
    /// the Centaur ASIC).
    pub fn is_fpga_extension(self) -> bool {
        !matches!(self, RmwOp::PartialWrite { .. })
    }
}

/// The operation part of a memory command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandOp {
    /// Full 128-byte cache-line read.
    Read {
        /// Line-aligned physical address.
        addr: u64,
    },
    /// Full 128-byte cache-line write.
    Write {
        /// Line-aligned physical address.
        addr: u64,
        /// The data to write.
        data: CacheLine,
    },
    /// Atomic read-modify-write.
    Rmw {
        /// Line-aligned physical address.
        addr: u64,
        /// The merge operation.
        op: RmwOp,
        /// The incoming operand line.
        data: CacheLine,
    },
    /// Drain all outstanding writes to the media before completing
    /// (ConTutto extension, paper §4.2 — "does not exist in the
    /// Centaur ASIC").
    Flush,
}

impl CommandOp {
    /// The target address, if the op addresses memory.
    pub fn addr(&self) -> Option<u64> {
        match self {
            CommandOp::Read { addr }
            | CommandOp::Write { addr, .. }
            | CommandOp::Rmw { addr, .. } => Some(*addr),
            CommandOp::Flush => None,
        }
    }

    /// Whether this op requires downstream data frames after the
    /// command frame.
    pub fn carries_write_data(&self) -> bool {
        matches!(self, CommandOp::Write { .. } | CommandOp::Rmw { .. })
    }

    /// Whether the op is a ConTutto-only extension.
    pub fn is_fpga_extension(&self) -> bool {
        match self {
            CommandOp::Flush => true,
            CommandOp::Rmw { op, .. } => op.is_fpga_extension(),
            _ => false,
        }
    }
}

/// A tagged command issued by the processor to the memory buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemCommand {
    /// The command tag (one of 32).
    pub tag: Tag,
    /// The operation.
    pub op: CommandOp,
}

/// A response from the memory buffer to the processor.
///
/// Reads produce `ReadData` followed by `Done`; writes and RMWs
/// produce `Done` only (paper §2.3: "a done tag is also issued ...
/// indicating that the command issued with that tag has been
/// completed").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemResponse {
    /// Read data for a tag.
    ReadData {
        /// Tag of the originating read.
        tag: Tag,
        /// The cache line read.
        data: CacheLine,
    },
    /// Command completion notification; the tag is free for reuse.
    Done {
        /// Tag of the completed command.
        tag: Tag,
    },
}

impl MemResponse {
    /// The tag this response refers to.
    pub fn tag(&self) -> Tag {
        match self {
            MemResponse::ReadData { tag, .. } | MemResponse::Done { tag } => *tag,
        }
    }
}

persist_fields!(CacheLine { 0 });

impl Persist for Tag {
    fn persist(&self, out: &mut Vec<u8>) {
        self.0.persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Tag::new(r.u8()?).map_err(|_| RestoreError::Malformed {
            context: "tag out of range",
        })
    }
}

impl Persist for RmwOp {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            RmwOp::PartialWrite { sector_mask } => {
                out.push(0);
                sector_mask.persist(out);
            }
            RmwOp::AtomicAdd => out.push(1),
            RmwOp::MinStore => out.push(2),
            RmwOp::MaxStore => out.push(3),
            RmwOp::ConditionalSwap => out.push(4),
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(match r.u8()? {
            0 => RmwOp::PartialWrite {
                sector_mask: r.u8()?,
            },
            1 => RmwOp::AtomicAdd,
            2 => RmwOp::MinStore,
            3 => RmwOp::MaxStore,
            4 => RmwOp::ConditionalSwap,
            _ => {
                return Err(RestoreError::Malformed {
                    context: "RmwOp discriminant",
                })
            }
        })
    }
}

impl Persist for CommandOp {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            CommandOp::Read { addr } => {
                out.push(0);
                addr.persist(out);
            }
            CommandOp::Write { addr, data } => {
                out.push(1);
                addr.persist(out);
                data.persist(out);
            }
            CommandOp::Rmw { addr, op, data } => {
                out.push(2);
                addr.persist(out);
                op.persist(out);
                data.persist(out);
            }
            CommandOp::Flush => out.push(3),
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(match r.u8()? {
            0 => CommandOp::Read { addr: r.u64()? },
            1 => CommandOp::Write {
                addr: r.u64()?,
                data: CacheLine::restore(r)?,
            },
            2 => CommandOp::Rmw {
                addr: r.u64()?,
                op: RmwOp::restore(r)?,
                data: CacheLine::restore(r)?,
            },
            3 => CommandOp::Flush,
            _ => {
                return Err(RestoreError::Malformed {
                    context: "CommandOp discriminant",
                })
            }
        })
    }
}

persist_fields!(MemCommand { tag, op });

impl Persist for MemResponse {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            MemResponse::ReadData { tag, data } => {
                out.push(0);
                tag.persist(out);
                data.persist(out);
            }
            MemResponse::Done { tag } => {
                out.push(1);
                tag.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(match r.u8()? {
            0 => MemResponse::ReadData {
                tag: Tag::restore(r)?,
                data: CacheLine::restore(r)?,
            },
            1 => MemResponse::Done {
                tag: Tag::restore(r)?,
            },
            _ => {
                return Err(RestoreError::Malformed {
                    context: "MemResponse discriminant",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_line_words_roundtrip() {
        let mut line = CacheLine::ZERO;
        line.set_word(0, 0xDEAD_BEEF);
        line.set_word(15, u64::MAX);
        assert_eq!(line.word(0), 0xDEAD_BEEF);
        assert_eq!(line.word(15), u64::MAX);
        assert_eq!(line.word(7), 0);
    }

    #[test]
    fn patterned_lines_differ_by_seed() {
        assert_ne!(CacheLine::patterned(1), CacheLine::patterned(2));
        assert_eq!(CacheLine::patterned(7), CacheLine::patterned(7));
    }

    #[test]
    fn tag_validation() {
        assert!(Tag::new(0).is_ok());
        assert!(Tag::new(31).is_ok());
        assert_eq!(Tag::new(32), Err(DmiError::UnknownTag(32)));
    }

    #[test]
    fn tag_pool_exhaustion_and_reuse() {
        let mut pool = TagPool::new();
        let tags: Vec<Tag> = (0..32).map(|_| pool.acquire().unwrap()).collect();
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.in_flight(), 32);
        assert_eq!(pool.acquire(), Err(DmiError::NoFreeTag));
        pool.release(tags[5]).unwrap();
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.acquire().unwrap(), tags[5]);
    }

    #[test]
    fn tag_pool_rejects_double_release() {
        let mut pool = TagPool::new();
        let t = pool.acquire().unwrap();
        pool.release(t).unwrap();
        assert_eq!(pool.release(t), Err(DmiError::UnknownTag(t.raw())));
    }

    #[test]
    fn tag_pool_reclaim_is_idempotent_and_reusable() {
        let mut pool = TagPool::new();
        let t = pool.acquire().unwrap();
        assert!(pool.reclaim(t), "in-flight tag reclaimed");
        assert!(!pool.reclaim(t), "second reclaim is a no-op");
        assert_eq!(pool.available(), 32);
        // A reclaimed tag is immediately reusable.
        assert_eq!(pool.acquire().unwrap(), t);
    }

    #[test]
    fn tag_pool_acquire_is_lowest_free() {
        let mut pool = TagPool::new();
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        pool.release(a).unwrap();
        assert_eq!(pool.acquire().unwrap().index(), 0);
    }

    #[test]
    fn partial_write_merges_sectors() {
        let old = CacheLine::patterned(1);
        let new = CacheLine::patterned(2);
        let merged = RmwOp::PartialWrite {
            sector_mask: 0b0000_0101,
        }
        .apply(old, new);
        assert_eq!(&merged.0[0..16], &new.0[0..16]);
        assert_eq!(&merged.0[16..32], &old.0[16..32]);
        assert_eq!(&merged.0[32..48], &new.0[32..48]);
        assert_eq!(&merged.0[48..128], &old.0[48..128]);
    }

    #[test]
    fn atomic_add_wraps() {
        let mut a = CacheLine::ZERO;
        a.set_word(0, u64::MAX);
        let mut b = CacheLine::ZERO;
        b.set_word(0, 2);
        let sum = RmwOp::AtomicAdd.apply(a, b);
        assert_eq!(sum.word(0), 1);
    }

    #[test]
    fn min_max_store() {
        let mut cur = CacheLine::ZERO;
        cur.set_word(0, 10);
        cur.set_word(1, 10);
        let mut inc = CacheLine::ZERO;
        inc.set_word(0, 3);
        inc.set_word(1, 30);
        let mn = RmwOp::MinStore.apply(cur, inc);
        assert_eq!((mn.word(0), mn.word(1)), (3, 10));
        let mx = RmwOp::MaxStore.apply(cur, inc);
        assert_eq!((mx.word(0), mx.word(1)), (10, 30));
    }

    #[test]
    fn conditional_swap() {
        let mut cur = CacheLine::ZERO;
        cur.set_word(0, 42);
        let mut inc = CacheLine::patterned(9);
        inc.set_word(0, 42); // matches -> swap
        assert_eq!(RmwOp::ConditionalSwap.apply(cur, inc), inc);
        inc.set_word(0, 43); // mismatch -> keep
        assert_eq!(RmwOp::ConditionalSwap.apply(cur, inc), cur);
    }

    #[test]
    fn fpga_extension_classification() {
        assert!(!RmwOp::PartialWrite { sector_mask: 1 }.is_fpga_extension());
        assert!(RmwOp::MinStore.is_fpga_extension());
        assert!(CommandOp::Flush.is_fpga_extension());
        assert!(!CommandOp::Read { addr: 0 }.is_fpga_extension());
    }

    #[test]
    fn command_op_accessors() {
        let w = CommandOp::Write {
            addr: 0x80,
            data: CacheLine::ZERO,
        };
        assert_eq!(w.addr(), Some(0x80));
        assert!(w.carries_write_data());
        assert_eq!(CommandOp::Flush.addr(), None);
        assert!(!CommandOp::Read { addr: 0 }.carries_write_data());
    }

    #[test]
    fn response_tag_accessor() {
        let t = Tag::new(3).unwrap();
        assert_eq!(MemResponse::Done { tag: t }.tag(), t);
        assert_eq!(
            MemResponse::ReadData {
                tag: t,
                data: CacheLine::ZERO
            }
            .tag(),
            t
        );
    }
}
