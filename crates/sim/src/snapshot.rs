//! Versioned, section-framed, CRC-sealed snapshot images.
//!
//! A snapshot is the serialized dynamic state of a simulated system:
//! a small header (magic, format version, section count) followed by
//! named sections, each sealed by a CRC-32 over its full frame (name,
//! length and payload). The framing is deliberately dumb — restore
//! code addresses sections by name and decodes payloads with
//! [`SnapReader`] — so that corruption anywhere in an image surfaces
//! as a typed [`RestoreError`], never a panic and never a silently
//! accepted image:
//!
//! * a flipped byte in the header fails the magic, version or header
//!   CRC check;
//! * a flipped byte anywhere in a section frame fails that section's
//!   CRC;
//! * truncation anywhere — mid-header, mid-frame, or cleanly at a
//!   section boundary — fails the length or section-count check;
//! * a validly framed section the restorer does not recognize is
//!   [`RestoreError::UnknownSection`].
//!
//! Payload encoding is via the [`Persist`] trait: fixed-width
//! little-endian integers, length-prefixed containers, explicit
//! discriminant bytes for enums. Map/set containers are written in
//! sorted key order so that identical state always produces identical
//! bytes (images are themselves part of the determinism contract).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::rng::SimRng;
use crate::time::{Cycles, Frequency, SimTime};

/// Leading bytes of every snapshot image.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CTSS";
/// Current image format version. Version 2 changed no byte layout, but
/// the tracer section's fingerprint accumulator now folds a binary
/// event encoding instead of rendered text: a version-1 accumulator
/// restored and carried on would match no straight run, so those images
/// are refused. Version 3 lists only the Centaur eDRAM cache's valid
/// ways and only the NAND flash blocks out of their boot state, where
/// version 2 wrote every way and every block. Version 4 images each
/// trace record as its time and the binary encoding the fingerprint
/// folds, where version 3 wrote its rendered text.
pub const SNAPSHOT_VERSION: u16 = 4;

const HEADER_LEN: usize = 4 + 2 + 4 + 4; // magic + version + count + crc

/// glibc's initial mmap threshold: a block this large or larger may be
/// mapped, and the dynamic threshold only ever rises from here.
const MMAP_THRESHOLD_FLOOR: usize = 128 << 10;

/// Why an image could not be restored. Every constructor of this type
/// replaces what would otherwise be a panic or a silent misparse.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// The image does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The image was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the image.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// A section frame (name, length or payload) failed its CRC; for
    /// the fixed header the section name is `"header"`.
    SectionCrcMismatch {
        /// Name of the failing section as far as it could be parsed.
        section: String,
    },
    /// The image ends before the advertised data: mid-header,
    /// mid-frame, mid-payload, or with fewer sections than the header
    /// counted.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A validly framed section whose name the restorer does not
    /// recognize (an image from a different layout or a future
    /// writer).
    UnknownSection {
        /// The unrecognized section name.
        section: String,
    },
    /// A required section is absent from an otherwise valid image.
    MissingSection {
        /// The absent section name.
        section: String,
    },
    /// A payload decoded to an impossible value (bad discriminant,
    /// out-of-range index, non-UTF-8 string, ordering violation).
    Malformed {
        /// What was malformed.
        context: &'static str,
    },
    /// The restoring system's construction does not match the image
    /// (different slot population, buffer kind, or capacity).
    TopologyMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "not a snapshot image (bad magic)"),
            RestoreError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} (expected {expected})")
            }
            RestoreError::SectionCrcMismatch { section } => {
                write!(f, "section {section:?} failed its CRC check")
            }
            RestoreError::Truncated { context } => {
                write!(f, "image truncated while reading {context}")
            }
            RestoreError::UnknownSection { section } => {
                write!(f, "unknown section {section:?}")
            }
            RestoreError::MissingSection { section } => {
                write!(f, "required section {section:?} is missing")
            }
            RestoreError::Malformed { context } => {
                write!(f, "malformed payload: {context}")
            }
            RestoreError::TopologyMismatch { context } => {
                write!(f, "image does not match this system: {context}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

// ------------------------------------------------------------- CRC-32

/// `CRC32_TABLES[k][b]` is the reflected CRC register (from zero) after
/// byte `b` followed by `k` zero bytes. Row 0 is the classic
/// byte-at-a-time table.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE, reflected) over a byte slice.
///
/// Every snapshot seals, and every restore checks, each byte of a
/// multi-megabyte image, so this runs at memory speed: by carry-less
/// multiplication where the CPU has it, otherwise sliced by 16 (see
/// [`crc32_update`]). [`crc32_reference`] is the plain loop both must
/// equal.
///
/// ```
/// use contutto_sim::snapshot::crc32;
/// // Standard check value for this CRC variant.
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends a finished CRC-32 over more bytes:
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)`, and
/// `crc32_update(0, b) == crc32(b)`. For data that arrives in pieces,
/// such as an NVDIMM save streamed page by page.
///
/// Inputs of 64 bytes or more fold by carry-less multiplication on an
/// x86-64 CPU with PCLMULQDQ and SSE4.1; every other input, and the
/// last partial block, takes the sliced loop. Both give the same value
/// for every input.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    crc32_clmul(crc, bytes).unwrap_or_else(|| crc32_sliced(crc, bytes))
}

/// The carry-less-multiply CRC-32 dispatch: [`crc32_update`]'s value,
/// or `None` where the CPU lacks PCLMULQDQ or SSE4.1, or the input is
/// shorter than the four 16-byte blocks the fold starts from. From
/// there on the fold is the faster: 17 ns to the sliced loop's 34 at
/// 64 bytes, 52 to 576 at 1 KiB (2-vCPU Xeon container).
#[allow(unsafe_code)]
fn crc32_clmul(crc: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::crc32` only requires the `pclmulqdq` and
        // `sse4.1` target features, and both were detected on this
        // CPU just above.
        return Some(unsafe { clmul::crc32(crc, bytes) });
    }
    let _ = (crc, bytes);
    None
}

/// Slicing-by-16: sixteen table lookups consume sixteen bytes per
/// step, with the byte-at-a-time loop for the tail.
fn crc32_sliced(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        // The 32-bit register overlaps the block's first four bytes;
        // each byte then contributes its own table row, shifted by the
        // bytes that follow it in the block.
        let [r0, r1, r2, r3] = crc.to_le_bytes();
        crc = t[15][usize::from(b[0] ^ r0)]
            ^ t[14][usize::from(b[1] ^ r1)]
            ^ t[13][usize::from(b[2] ^ r2)]
            ^ t[12][usize::from(b[3] ^ r3)]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// CRC-32 by folding 16-byte blocks with carry-less multiplication
/// (PCLMULQDQ), after Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in its
/// bit-reflected form. Four accumulators fold 64 bytes per step, merge
/// into one, fold the remaining whole blocks, and reduce to 32 bits by
/// Barrett reduction; the sliced loop takes the last partial block.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // `x^n mod P(x)` for the CRC-32 polynomial, bit-reflected and
    // shifted left by one, as the folds multiply by them; the unit test
    // `fold_constants_are_powers_of_x_mod_the_polynomial` derives each.
    /// Folds an accumulator four blocks on: `x^(4·128+32)`, `x^(4·128-32)`.
    const X544: i64 = 0x1_5444_2bd4;
    const X480: i64 = 0x1_c6e4_1596;
    /// Folds an accumulator one block on: `x^(128+32)`, `x^(128-32)`.
    const X160: i64 = 0x1_7519_97d0;
    const X96: i64 = 0x0_ccaa_009e;
    /// Reduces 96 bits to 64: `x^64`.
    const X64: i64 = 0x1_63cd_6124;
    /// The polynomial itself, and `floor(x^64 / P(x))`, both
    /// bit-reflected: the Barrett reduction's two multipliers.
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// One little-endian 16-byte block as a vector, lane 0 first.
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(block[..8].try_into().expect("a 16-byte block"));
        let hi = u64::from_le_bytes(block[8..16].try_into().expect("a 16-byte block"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `acc`'s low lane times `keys`' low lane, plus its high lane
    /// times `keys`' high lane, plus `next`: `acc` carried forward by
    /// the distance `keys` encodes and `next` added in.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// [`super::crc32_update`] for `bytes` of at least 64 bytes.
    /// Outside a context with both target features, calling it is
    /// `unsafe`: the caller must first have detected them on this CPU.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        let (first, rest) = blocks.split_at(64);
        let mut acc = [
            load(&first[..16]),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        // The incoming register is added to the first four bytes.
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(!crc as i32));
        let by_four = _mm_set_epi64x(X480, X544);
        let mut quads = rest.chunks_exact(64);
        for quad in &mut quads {
            for (a, block) in acc.iter_mut().zip(quad.chunks_exact(16)) {
                *a = fold(*a, load(block), by_four);
            }
        }
        let by_one = _mm_set_epi64x(X96, X160);
        let mut x = fold(
            fold(fold(acc[0], acc[1], by_one), acc[2], by_one),
            acc[3],
            by_one,
        );
        for block in quads.remainder().chunks_exact(16) {
            x = fold(x, load(block), by_one);
        }

        // 128 bits to 96: the low lane times x^96, plus the high lane.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, by_one),
            _mm_srli_si128::<8>(x),
        );
        // 96 bits to 64: the low 32 bits times x^64, plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, X64)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction to the 32-bit register, which the
        // bit-reflected form leaves in the second 32-bit lane.
        let barrett = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), barrett);
        let register = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::crc32_sliced(!register, tail)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The CRC-32 polynomial without its `x^32` term, unreflected.
        const P: u64 = 0x04C1_1DB7;

        /// `x^n mod P(x)`, shifting one power of x at a time.
        fn x_pow_mod(n: u32) -> u32 {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r & 1 << 32 != 0 {
                    r ^= 1 << 32 | P;
                }
            }
            r as u32
        }

        /// The low `bits` bits of `v`, in reverse order.
        fn reflect(v: u64, bits: u32) -> i64 {
            (v.reverse_bits() >> (64 - bits)) as i64
        }

        #[test]
        fn fold_constants_are_powers_of_x_mod_the_polynomial() {
            for (constant, n) in [(X544, 544), (X480, 480), (X160, 160), (X96, 96), (X64, 64)] {
                assert_eq!(constant, reflect(u64::from(x_pow_mod(n)), 32) << 1, "x^{n}");
            }
            assert_eq!(POLY, reflect(1 << 32 | P, 33));
            // floor(x^64 / P(x)) by long division.
            let (mut rem, mut quotient) = (1u128 << 64, 0u64);
            for bit in (0..=32).rev() {
                if rem & 1 << (bit + 32) != 0 {
                    rem ^= u128::from(1 << 32 | P) << bit;
                    quotient |= 1 << bit;
                }
            }
            assert_eq!(MU, reflect(quotient, 33));
        }
    }
}

/// The byte-at-a-time CRC-32 that [`crc32`] replaces, kept as its
/// test oracle. Nothing outside tests calls it.
pub fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// -------------------------------------------------------- byte reader

/// A bounds-checked cursor over one section payload. Every read is
/// total: running out of bytes is [`RestoreError::Truncated`], an
/// impossible value is [`RestoreError::Malformed`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], RestoreError> {
        if self.remaining() < n {
            return Err(RestoreError::Truncated {
                context: "payload bytes",
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, RestoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, RestoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, RestoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, RestoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, RestoreError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    /// Reads a `usize` persisted as `u64`, rejecting values this
    /// platform cannot hold.
    pub fn len(&mut self) -> Result<usize, RestoreError> {
        usize::try_from(self.u64()?).map_err(|_| RestoreError::Malformed {
            context: "length exceeds usize",
        })
    }

    /// Reads a length used to size an allocation, additionally bounded
    /// by the bytes actually remaining so a corrupt length cannot ask
    /// for an absurd reservation.
    fn seq_len(&mut self) -> Result<usize, RestoreError> {
        let n = self.len()?;
        if n > self.remaining() {
            return Err(RestoreError::Truncated {
                context: "sequence shorter than its length prefix",
            });
        }
        Ok(n)
    }

    /// Reads a `bool` (0 or 1; anything else is malformed).
    pub fn bool(&mut self) -> Result<bool, RestoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(RestoreError::Malformed {
                context: "bool out of range",
            }),
        }
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, RestoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, RestoreError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| RestoreError::Malformed {
            context: "string is not UTF-8",
        })
    }
}

// ---------------------------------------------------------- persist

/// State that can be written to and read back from a snapshot payload.
///
/// Implementations must round-trip exactly (`restore(persist(x)) ==
/// x`) and must be deterministic: the same value always produces the
/// same bytes (unordered containers are therefore persisted in sorted
/// order).
pub trait Persist: Sized {
    /// Appends this value's encoding to `out`.
    fn persist(&self, out: &mut Vec<u8>);
    /// Decodes one value from the reader.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError>;
}

macro_rules! persist_int {
    ($ty:ty, $read:ident) => {
        impl Persist for $ty {
            fn persist(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
                r.$read()
            }
        }
    };
}

/// Implements [`Persist`] for a struct by listing its fields once:
/// `persist_fields!(Type { a, b, c })` writes `a`, `b`, `c` in list
/// order and restores them in the same order, each through its own
/// type's [`Persist`] impl. The list *is* the image format; the struct
/// literal it restores into makes the compiler reject a list that
/// leaves a field out. Tuple structs name their fields by index
/// (`persist_fields!(Id { 0 })`).
///
/// Write the impl by hand only for an enum, or when restore must read a
/// field differently from its type's own impl (a length bounded before
/// anything decodes, a discriminant that selects what follows). A value
/// range or an invariant across fields belongs in a checked type or in
/// the owner's [`state_fields!`](crate::state_fields) list, not in a
/// second, hand-written copy of the field order.
#[macro_export]
macro_rules! persist_fields {
    ($ty:ident { $($field:tt),+ $(,)? }) => {
        impl $crate::snapshot::Persist for $ty {
            fn persist(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::snapshot::Persist::persist(&self.$field, out);)+
            }
            fn restore(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snapshot::RestoreError> {
                ::std::result::Result::Ok($ty {
                    $($field: $crate::snapshot::Persist::restore(r)?,)+
                })
            }
        }
    };
}

/// Declares an owner's image layout once: the list generates both
/// `snapshot_state(&self, out)` and `restore_state(&mut self, r)`, so
/// the two directions cannot drift apart. An owner is state restored
/// over an identically constructed twin (a device, a buffer, a link
/// endpoint); the list's order is the byte layout. Entries, each ending
/// in a comma:
///
/// * `a.b,` — a plain field, through its type's [`Persist`];
///   `a.b if check,` also has `check(&self, &value)` vet the decoded
///   value (a range, or a cross-check against construction).
/// * `a.b with (encode, decode),` — written by `encode(&field, out)`
///   and read by `decode(r)`: a length bounded before anything
///   decodes, or an encoding other than the type's own.
/// * `each a.b,` — a fixed-size array of plain values, no length.
/// * `same a.b => "context",` — a construction parameter: written, and
///   on restore compared with this owner's own ([`expect_same`]), a
///   difference being [`RestoreError::TopologyMismatch`];
///   `same_as(get) => "context",` does the same for `get(&self)`.
/// * `state a.b,` — a nested owner, through its own pair;
///   `state each a.b,` — every owner in a collection, no length.
/// * `apply (encode, decode => apply),` — state that is not one field:
///   `encode(&self, out)`, `decode(&self, r)`, `apply(&mut self, v)`;
///   `apply a.b (encode, decode => apply),` does the same on the field
///   `a.b`, for a part that images one field in more than one place.
/// * `check check,` — `check(&self)` vets the restored owner, for an
///   invariant across fields.
///
/// Restore is an overlay in two passes. The decode pass reads the list
/// in order: plain and `with` fields into locals, `same` and `if`
/// checks as they come, nested owners straight into place. Only once
/// the whole list has decoded does the assignment pass store the fields
/// and run the `apply` entries, in list order, then the `check`
/// entries. So a decode error leaves an owner with no nested owner
/// untouched.
///
/// `pub { ... }` makes both methods public; `{ ... }` leaves them
/// private, or inside a trait impl implements the trait's pair. Doc
/// comments before the braces document `snapshot_state`.
#[macro_export]
macro_rules! state_fields {
    ($(#[$doc:meta])* pub { $($list:tt)* }) => {
        $crate::state_fields!(@methods [pub] [$(#[$doc])*] $($list)*);
    };
    ($(#[$doc:meta])* { $($list:tt)* }) => {
        $crate::state_fields!(@methods [] [$(#[$doc])*] $($list)*);
    };
    (@methods [$($vis:tt)*] [$($doc:tt)*] $($list:tt)*) => {
        $($doc)*
        $($vis)* fn snapshot_state(&self, out: &mut ::std::vec::Vec<u8>) {
            $crate::state_fields!(@persist self out [$($list)*]);
        }

        /// Overlays a [`Self::snapshot_state`] image onto this value, in
        /// the two passes of its `state_fields!` list.
        ///
        /// # Errors
        ///
        /// Any `RestoreError` from a field's decode or from a check in
        /// the list.
        $($vis)* fn restore_state(
            &mut self,
            r: &mut $crate::snapshot::SnapReader<'_>,
        ) -> ::std::result::Result<(), $crate::snapshot::RestoreError> {
            $crate::state_fields!(@restore self r [] [] [$($list)*]);
            ::std::result::Result::Ok(())
        }
    };

    (@persist $s:ident $o:ident []) => {};
    (@persist $s:ident $o:ident [same_as($get:path) => $ctx:expr, $($rest:tt)*]) => {
        $crate::snapshot::Persist::persist(&$get($s), $o);
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };
    (@persist $s:ident $o:ident [same $($f:ident).+ => $ctx:expr, $($rest:tt)*]) => {
        $crate::snapshot::Persist::persist(&$s.$($f).+, $o);
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };
    (@persist $s:ident $o:ident [state each $($f:ident).+, $($rest:tt)*]) => {
        for owner in &$s.$($f).+ {
            owner.snapshot_state($o);
        }
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };
    (@persist $s:ident $o:ident [each $($f:ident).+, $($rest:tt)*]) => {
        for value in &$s.$($f).+ {
            $crate::snapshot::Persist::persist(value, $o);
        }
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };
    (@persist $s:ident $o:ident [state $($f:ident).+, $($rest:tt)*]) => {
        $s.$($f).+.snapshot_state($o);
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };
    (@persist $s:ident $o:ident [check $c:path, $($rest:tt)*]) => {
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };
    (@persist $s:ident $o:ident
        [apply ($enc:path, $dec:path => $apply:path), $($rest:tt)*]) => {
        $enc($s, $o);
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };
    (@persist $s:ident $o:ident
        [apply $($f:ident).+ ($enc:path, $dec:path => $apply:path), $($rest:tt)*]) => {
        $enc(&$s.$($f).+, $o);
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };
    (@persist $s:ident $o:ident
        [$($f:ident).+ with ($enc:path, $dec:path), $($rest:tt)*]) => {
        $enc(&$s.$($f).+, $o);
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };
    (@persist $s:ident $o:ident [$($f:ident).+ $(if $c:path)?, $($rest:tt)*]) => {
        $crate::snapshot::Persist::persist(&$s.$($f).+, $o);
        $crate::state_fields!(@persist $s $o [$($rest)*]);
    };

    // Decode pass: each step binds its own `v` (macro hygiene keeps the
    // steps' bindings apart) and queues its assignment or check.
    (@restore $s:ident $r:ident [$($assign:tt)*] [$($checks:tt)*] []) => {
        $($assign)*
        $($checks)*
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [same_as($get:path) => $ctx:expr, $($rest:tt)*]) => {
        $crate::snapshot::expect_same($r, &$get($s), $ctx)?;
        $crate::state_fields!(@restore $s $r [$($a)*] [$($c)*] [$($rest)*]);
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [same $($f:ident).+ => $ctx:expr, $($rest:tt)*]) => {
        $crate::snapshot::expect_same($r, &$s.$($f).+, $ctx)?;
        $crate::state_fields!(@restore $s $r [$($a)*] [$($c)*] [$($rest)*]);
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [state each $($f:ident).+, $($rest:tt)*]) => {
        for owner in &mut $s.$($f).+ {
            owner.restore_state($r)?;
        }
        $crate::state_fields!(@restore $s $r [$($a)*] [$($c)*] [$($rest)*]);
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [each $($f:ident).+, $($rest:tt)*]) => {
        let mut v = $s.$($f).+.clone();
        for value in &mut v {
            *value = $crate::snapshot::Persist::restore($r)?;
        }
        $crate::state_fields!(@restore $s $r [$($a)* $s.$($f).+ = v;] [$($c)*] [$($rest)*]);
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [state $($f:ident).+, $($rest:tt)*]) => {
        $s.$($f).+.restore_state($r)?;
        $crate::state_fields!(@restore $s $r [$($a)*] [$($c)*] [$($rest)*]);
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [check $check:path, $($rest:tt)*]) => {
        $crate::state_fields!(@restore $s $r [$($a)*] [$($c)* $check($s)?;] [$($rest)*]);
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [apply ($enc:path, $dec:path => $apply:path), $($rest:tt)*]) => {
        let v = $dec($s, $r)?;
        $crate::state_fields!(@restore $s $r [$($a)* $apply($s, v)?;] [$($c)*] [$($rest)*]);
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [apply $($f:ident).+ ($enc:path, $dec:path => $apply:path), $($rest:tt)*]) => {
        let v = $dec(&$s.$($f).+, $r)?;
        $crate::state_fields!(@restore $s $r
            [$($a)* $apply(&mut $s.$($f).+, v)?;] [$($c)*] [$($rest)*]);
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [$($f:ident).+ with ($enc:path, $dec:path), $($rest:tt)*]) => {
        let v = $dec($r)?;
        $crate::state_fields!(@restore $s $r [$($a)* $s.$($f).+ = v;] [$($c)*] [$($rest)*]);
    };
    (@restore $s:ident $r:ident [$($a:tt)*] [$($c:tt)*]
        [$($f:ident).+ $(if $check:path)?, $($rest:tt)*]) => {
        let v = $crate::snapshot::Persist::restore($r)?;
        $($check($s, &v)?;)?
        $crate::state_fields!(@restore $s $r [$($a)* $s.$($f).+ = v;] [$($c)*] [$($rest)*]);
    };
}

persist_int!(u8, u8);
persist_int!(u16, u16);
persist_int!(u32, u32);
persist_int!(u64, u64);
persist_int!(u128, u128);

impl Persist for usize {
    fn persist(&self, out: &mut Vec<u8>) {
        (*self as u64).persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        r.len()
    }
}

impl Persist for bool {
    fn persist(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        r.bool()
    }
}

impl Persist for f64 {
    fn persist(&self, out: &mut Vec<u8>) {
        self.to_bits().persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        r.f64()
    }
}

impl Persist for String {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        r.string()
    }
}

impl Persist for SimTime {
    fn persist(&self, out: &mut Vec<u8>) {
        self.as_ps().persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(SimTime::from_ps(r.u64()?))
    }
}

impl Persist for Cycles {
    fn persist(&self, out: &mut Vec<u8>) {
        self.count().persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(Cycles(r.u64()?))
    }
}

impl Persist for Frequency {
    fn persist(&self, out: &mut Vec<u8>) {
        self.period().as_ps().persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let period_ps = r.u64()?;
        if period_ps == 0 {
            return Err(RestoreError::Malformed {
                context: "zero clock period",
            });
        }
        Ok(Frequency::from_period_ps(period_ps))
    }
}

impl Persist for SimRng {
    fn persist(&self, out: &mut Vec<u8>) {
        for word in self.state() {
            word.persist(out);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(SimRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]))
    }
}

impl<const N: usize> Persist for [u8; N] {
    fn persist(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(r.take(N)?.try_into().expect("exact length"))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            _ => Err(RestoreError::Malformed {
                context: "Option discriminant",
            }),
        }
    }
}

impl<T: Persist, E: Persist> Persist for Result<T, E> {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.persist(out);
            }
            Err(e) => {
                out.push(1);
                e.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        match r.u8()? {
            0 => Ok(Ok(T::restore(r)?)),
            1 => Ok(Err(E::restore(r)?)),
            _ => Err(RestoreError::Malformed {
                context: "Result discriminant",
            }),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        for item in self {
            item.persist(out);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let n = r.seq_len()?;
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(T::restore(r)?);
        }
        Ok(v)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        for item in self {
            item.persist(out);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(Vec::restore(r)?.into())
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        for (k, v) in self {
            k.persist(out);
            v.persist(out);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let n = r.seq_len()?;
        restore_entries(r, n, V::restore)
    }
}

impl<T: Persist + Ord> Persist for BTreeSet<T> {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        for item in self {
            item.persist(out);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let n = r.seq_len()?;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            let item = T::restore(r)?;
            if set.last().is_some_and(|last| *last >= item) {
                return Err(keys_not_increasing());
            }
            set.insert(item);
        }
        Ok(set)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, out: &mut Vec<u8>) {
        self.0.persist(out);
        self.1.persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn persist(&self, out: &mut Vec<u8>) {
        self.0.persist(out);
        self.1.persist(out);
        self.2.persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

/// Persists a `HashMap` deterministically by writing entries in sorted
/// key order. (There is deliberately no `Persist for HashMap` — going
/// through this helper makes the sorting explicit at the call site.)
pub fn persist_sorted_map<K, V>(map: &std::collections::HashMap<K, V>, out: &mut Vec<u8>)
where
    K: Persist + Ord + std::hash::Hash + Clone,
    V: Persist,
{
    let mut keys: Vec<&K> = map.keys().collect();
    keys.sort();
    (keys.len() as u64).persist(out);
    for k in keys {
        k.persist(out);
        map[k].persist(out);
    }
}

/// Restores a `HashMap` written by [`persist_sorted_map`].
///
/// # Errors
///
/// [`RestoreError::Malformed`] unless the keys strictly increase, the
/// one order [`persist_sorted_map`] writes; or any decode error.
pub fn restore_map<K, V>(
    r: &mut SnapReader<'_>,
) -> Result<std::collections::HashMap<K, V>, RestoreError>
where
    K: Persist + Ord + std::hash::Hash + Clone,
    V: Persist,
{
    let n = r.seq_len()?;
    let mut map = std::collections::HashMap::with_capacity(n.min(1 << 16));
    let mut last: Option<K> = None;
    for _ in 0..n {
        let k = K::restore(r)?;
        if last.as_ref().is_some_and(|last| *last >= k) {
            return Err(keys_not_increasing());
        }
        last = Some(k.clone());
        map.insert(k, V::restore(r)?);
    }
    Ok(map)
}

/// Reads the `n` entries of a `BTreeMap` image, the part after its
/// length prefix, each value through `value`: for a decoder that
/// bounds the length itself, or whose values restore over owners.
///
/// # Errors
///
/// [`RestoreError::Malformed`] unless the keys strictly increase, the
/// one order a `BTreeMap` writes, so each map has one encoding; or any
/// decode error of an entry.
pub fn restore_entries<K: Persist + Ord, V>(
    r: &mut SnapReader<'_>,
    n: usize,
    mut value: impl FnMut(&mut SnapReader<'_>) -> Result<V, RestoreError>,
) -> Result<BTreeMap<K, V>, RestoreError> {
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let k = K::restore(r)?;
        if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
            return Err(keys_not_increasing());
        }
        map.insert(k, value(r)?);
    }
    Ok(map)
}

fn keys_not_increasing() -> RestoreError {
    RestoreError::Malformed {
        context: "map keys not strictly increasing",
    }
}

/// Reads a value written for a construction parameter and checks it
/// against the restoring owner's own.
///
/// # Errors
///
/// [`RestoreError::TopologyMismatch`] with `context` when they differ,
/// or any decode error.
pub fn expect_same<T: Persist + PartialEq>(
    r: &mut SnapReader<'_>,
    own: &T,
    context: &'static str,
) -> Result<(), RestoreError> {
    if T::restore(r)? == *own {
        Ok(())
    } else {
        Err(RestoreError::TopologyMismatch { context })
    }
}

/// Persists the entries of a fixed-size table that are out of their
/// boot state: their count, then `(index, entry)` for each. `entries`
/// must yield strictly increasing indices, the one encoding
/// [`restore_sparse`] accepts, so an image grows with the entries a
/// table uses, not with its capacity. `entries` is walked once; the
/// count is patched in after.
pub fn persist_sparse<E: Persist>(
    entries: impl IntoIterator<Item = (usize, E)>,
    out: &mut Vec<u8>,
) {
    let count_at = out.len();
    0u64.persist(out);
    let mut count = 0u64;
    for (idx, entry) in entries {
        idx.persist(out);
        entry.persist(out);
        count += 1;
    }
    out[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
}

/// Reads a [`persist_sparse`] list for a table of `len` entries, where
/// one listed entry takes `entry_bytes`, its index included.
///
/// # Errors
///
/// [`RestoreError::Truncated`] if the count needs more bytes than are
/// left, before anything is allocated for it;
/// [`RestoreError::Malformed`] if an index is `len` or more, or not
/// above the one before it; or any decode error of an entry.
pub fn restore_sparse<E: Persist>(
    r: &mut SnapReader<'_>,
    len: usize,
    entry_bytes: usize,
) -> Result<Vec<(usize, E)>, RestoreError> {
    restore_sparse_with(r, len, entry_bytes, E::restore)
}

/// [`restore_sparse`] with each entry, after its index, read by
/// `entry`: for entries that are not a [`Persist`] value of their own.
///
/// # Errors
///
/// As [`restore_sparse`].
pub fn restore_sparse_with<E>(
    r: &mut SnapReader<'_>,
    len: usize,
    entry_bytes: usize,
    mut entry: impl FnMut(&mut SnapReader<'_>) -> Result<E, RestoreError>,
) -> Result<Vec<(usize, E)>, RestoreError> {
    let count = r.len()?;
    if count > r.remaining() / entry_bytes {
        return Err(RestoreError::Truncated {
            context: "sparse table shorter than its count",
        });
    }
    let mut listed = Vec::with_capacity(count);
    let mut lowest = 0;
    for _ in 0..count {
        let idx = r.len()?;
        if idx >= len {
            return Err(RestoreError::Malformed {
                context: "sparse table index out of range",
            });
        }
        if idx < lowest {
            return Err(RestoreError::Malformed {
                context: "sparse table indices not strictly increasing",
            });
        }
        listed.push((idx, entry(r)?));
        lowest = idx + 1;
    }
    Ok(listed)
}

// ---------------------------------------------------- image framing

/// Builds a snapshot image: header, then sections in the order added.
///
/// Every section is encoded straight into the one image buffer: the
/// writer reserves the frame's CRC and payload-length fields, lets the
/// payload encode in place behind them, then patches the length and
/// seals the CRC over the finished frame. [`SnapshotWriter::finish`]
/// patches the header's section count and seals the header.
pub struct SnapshotWriter {
    image: Vec<u8>,
    sections: u32,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        SnapshotWriter::new()
    }
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        let mut image = Vec::new();
        image.extend_from_slice(&SNAPSHOT_MAGIC);
        image.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        image.resize(HEADER_LEN, 0); // section count and CRC, patched by `finish`
        SnapshotWriter { image, sections: 0 }
    }

    /// Adds a named section with an already-built payload.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) {
        self.section_with(name, |out| out.extend_from_slice(&payload));
    }

    /// Adds a named section, building the payload in a closure. The
    /// closure appends to the image itself and must only append.
    pub fn section_with(&mut self, name: &str, build: impl FnOnce(&mut Vec<u8>)) {
        let out = &mut self.image;
        let crc_at = out.len();
        out.extend_from_slice(&[0; 4]);
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        let len_at = out.len();
        out.extend_from_slice(&[0; 8]);
        build(out);
        let payload_len = (out.len() - len_at - 8) as u64;
        out[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&out[crc_at + 4..]);
        out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        self.sections += 1;
    }

    /// Seals the image: header (magic, version, section count, header
    /// CRC) followed by each section's CRC-sealed frame.
    ///
    /// The buffer grew by doubling, so up to half of it can be unused.
    /// When more than a quarter of a mapped buffer is, the slack is
    /// given back (an in-place shrink, no copy): callers keep images,
    /// and a multi-megabyte block freed with half its pages unused
    /// moves the C allocator's mmap threshold, so the caller's own
    /// buffers of that size land on the heap and are copied when they
    /// grow. A buffer below the threshold's 128 KiB floor is never
    /// mapped, so freeing it moves nothing and it is kept as grown.
    pub fn finish(mut self) -> Vec<u8> {
        let out = &mut self.image;
        out[6..10].copy_from_slice(&self.sections.to_le_bytes());
        let header_crc = crc32(&out[0..10]);
        out[10..14].copy_from_slice(&header_crc.to_le_bytes());
        if out.capacity() >= MMAP_THRESHOLD_FLOOR && out.capacity() - out.len() > out.capacity() / 4
        {
            out.shrink_to_fit();
        }
        self.image
    }
}

/// A parsed snapshot image: validated header and CRC-checked sections,
/// in file order.
#[derive(Debug)]
pub struct SnapshotImage<'a> {
    sections: Vec<(String, &'a [u8])>,
}

impl<'a> SnapshotImage<'a> {
    /// Parses and validates an image. Every failure is typed; this
    /// function never panics on any input byte string.
    pub fn parse(image: &'a [u8]) -> Result<Self, RestoreError> {
        if image.len() < 4 {
            return Err(RestoreError::Truncated { context: "header" });
        }
        if image[0..4] != SNAPSHOT_MAGIC {
            return Err(RestoreError::BadMagic);
        }
        if image.len() < HEADER_LEN {
            return Err(RestoreError::Truncated { context: "header" });
        }
        let version = u16::from_le_bytes(image[4..6].try_into().expect("2"));
        if version != SNAPSHOT_VERSION {
            return Err(RestoreError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let count = u32::from_le_bytes(image[6..10].try_into().expect("4"));
        let header_crc = u32::from_le_bytes(image[10..14].try_into().expect("4"));
        if crc32(&image[0..10]) != header_crc {
            return Err(RestoreError::SectionCrcMismatch {
                section: "header".to_owned(),
            });
        }
        let mut sections = Vec::with_capacity(count.min(1 << 12) as usize);
        let mut pos = HEADER_LEN;
        for _ in 0..count {
            if image.len() - pos < 4 {
                return Err(RestoreError::Truncated {
                    context: "section CRC",
                });
            }
            let crc = u32::from_le_bytes(image[pos..pos + 4].try_into().expect("4"));
            pos += 4;
            let frame_start = pos;
            if image.len() - pos < 2 {
                return Err(RestoreError::Truncated {
                    context: "section name length",
                });
            }
            let name_len = u16::from_le_bytes(image[pos..pos + 2].try_into().expect("2")) as usize;
            pos += 2;
            if image.len() - pos < name_len {
                return Err(RestoreError::Truncated {
                    context: "section name",
                });
            }
            let name_bytes = &image[pos..pos + name_len];
            pos += name_len;
            if image.len() - pos < 8 {
                return Err(RestoreError::Truncated {
                    context: "section payload length",
                });
            }
            let payload_len = u64::from_le_bytes(image[pos..pos + 8].try_into().expect("8"));
            pos += 8;
            let payload_len =
                usize::try_from(payload_len).map_err(|_| RestoreError::Malformed {
                    context: "section payload length exceeds usize",
                })?;
            if image.len() - pos < payload_len {
                return Err(RestoreError::Truncated {
                    context: "section payload",
                });
            }
            let payload = &image[pos..pos + payload_len];
            pos += payload_len;
            let name = match std::str::from_utf8(name_bytes) {
                Ok(name) => name.to_owned(),
                Err(_) => {
                    // The CRC verdict is more precise than "bad UTF-8":
                    // a corrupted name fails its seal first.
                    return if crc32(&image[frame_start..pos]) != crc {
                        Err(RestoreError::SectionCrcMismatch {
                            section: String::from_utf8_lossy(name_bytes).into_owned(),
                        })
                    } else {
                        Err(RestoreError::Malformed {
                            context: "section name is not UTF-8",
                        })
                    };
                }
            };
            if crc32(&image[frame_start..pos]) != crc {
                return Err(RestoreError::SectionCrcMismatch { section: name });
            }
            sections.push((name, payload));
        }
        if pos != image.len() {
            return Err(RestoreError::Malformed {
                context: "trailing bytes after last section",
            });
        }
        Ok(SnapshotImage { sections })
    }

    /// Section names in file order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when the image has no sections.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// A reader over the named section's payload.
    pub fn section(&self, name: &str) -> Result<SnapReader<'a>, RestoreError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, payload)| SnapReader::new(payload))
            .ok_or_else(|| RestoreError::MissingSection {
                section: name.to_owned(),
            })
    }

    /// Byte offsets (into the original image) of every section
    /// boundary: the start of each frame and the end of the image.
    /// Used by corruption fuzzing to truncate exactly at boundaries.
    pub fn boundaries(image: &[u8]) -> Vec<usize> {
        let mut cuts = vec![HEADER_LEN.min(image.len())];
        if let Ok(parsed) = SnapshotImage::parse(image) {
            let mut pos = HEADER_LEN;
            for (name, payload) in &parsed.sections {
                pos += 4 + 2 + name.len() + 8 + payload.len();
                cuts.push(pos);
            }
        }
        cuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section_with("alpha", |out| {
            42u64.persist(out);
            "hello".to_owned().persist(out);
        });
        w.section_with("beta", |out| {
            vec![1u32, 2, 3].persist(out);
        });
        w.finish()
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[cfg(target_arch = "x86_64")]
    fn cpu_has_clmul() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn cpu_has_clmul() -> bool {
        false
    }

    /// Extends the CRC of `prefix` over `bytes` by the carry-less fold,
    /// the sliced loop and the dispatch, and compares each with the
    /// byte loop over the two concatenated. On a CPU with the
    /// instructions the fold must run for every input of four blocks
    /// or more, so the comparison is never vacuous there.
    fn three_way(prefix: &[u8], bytes: &[u8], case: &str) {
        let incoming = crc32_reference(prefix);
        let want = crc32_reference(&[prefix, bytes].concat());
        assert_eq!(crc32_sliced(incoming, bytes), want, "sliced, {case}");
        assert_eq!(crc32_update(incoming, bytes), want, "dispatch, {case}");
        match crc32_clmul(incoming, bytes) {
            Some(crc) => assert_eq!(crc, want, "carry-less, {case}"),
            None => assert!(
                !cpu_has_clmul() || bytes.len() < 64,
                "the carry-less fold did not run, {case}"
            ),
        }
    }

    #[test]
    fn carry_less_and_sliced_crc32_equal_the_byte_loop() {
        let big = random_bytes(15, (1 << 20) + 3 + 16);
        let prefixes = [0, 1, 9, 100].map(|n| random_bytes(16 + n as u64, n));
        for prefix in &prefixes {
            let incoming = prefix.len();
            for start in 0..16 {
                for len in 0..=512 {
                    let case = format!("prefix {incoming} start {start} len {len}");
                    three_way(prefix, &big[start..start + len], &case);
                }
            }
            // Around the one-block and four-block folds, and a large
            // odd length at an odd address.
            for len in [63, 64, 127, 128, 129, 191, 192, (1 << 20) + 3] {
                let case = format!("prefix {incoming} start 1 len {len}");
                three_way(prefix, &big[1..1 + len], &case);
            }
        }
    }

    #[test]
    fn crc32_update_in_chunks_equals_one_shot() {
        let bytes = random_bytes(13, 70_001);
        let whole = crc32(&bytes);
        for chunk in [1, 3, 16, 17, 4096, 65_536] {
            let crc = bytes.chunks(chunk).fold(0, crc32_update);
            assert_eq!(crc, whole, "chunk {chunk}");
        }
        let (a, b) = bytes.split_at(12_345);
        assert_eq!(crc32_update(crc32(a), b), whole);
    }

    /// One section frame per the documented layout:
    /// `crc32 ‖ name_len ‖ name ‖ payload_len ‖ payload`, the CRC over
    /// everything after it.
    fn hand_framed(name: &str, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(name.len() as u16).to_le_bytes());
        frame.extend_from_slice(name.as_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(payload);
        let mut out = crc32_reference(&frame).to_le_bytes().to_vec();
        out.extend_from_slice(&frame);
        out
    }

    /// The image header per the documented layout:
    /// `magic ‖ version ‖ count ‖ crc32`, the CRC over the first three.
    fn hand_header(count: u32) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        let crc = crc32_reference(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn writer_seals_sections_in_place_as_the_documented_layout() {
        let sections = [
            ("empty", Vec::new()),
            ("one", vec![0xA5]),
            ("big", random_bytes(14, (1 << 16) + 7)),
        ];
        let mut w = SnapshotWriter::new();
        for (i, (name, payload)) in sections.iter().enumerate() {
            if i % 2 == 0 {
                w.section_with(name, |out| out.extend_from_slice(payload));
            } else {
                w.section(name, payload.clone());
            }
        }
        let image = w.finish();

        let mut want = hand_header(sections.len() as u32);
        for (name, payload) in &sections {
            want.extend_from_slice(&hand_framed(name, payload));
        }
        assert_eq!(image, want);
        assert_eq!(SnapshotWriter::new().finish(), hand_header(0));

        let parsed = SnapshotImage::parse(&image).expect("valid image");
        for (name, payload) in &sections {
            let mut r = parsed.section(name).unwrap();
            assert_eq!(r.take(payload.len()).unwrap(), &payload[..]);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn a_finished_mapped_image_leaves_at_most_a_quarter_of_its_buffer_unused() {
        let finished = |len: usize| {
            let mut w = SnapshotWriter::new();
            // Byte by byte, so the buffer grows by doubling.
            w.section_with("payload", |out| (0..len).for_each(|_| out.push(0xA5)));
            let image = w.finish();
            (image.len(), image.capacity())
        };
        // Grown past the mmap threshold's floor: trimmed.
        for len in [(1 << 16) - 30, (1 << 16) + 1, 100_000, 300_000] {
            let (used, capacity) = finished(len);
            assert!(
                capacity - used <= capacity / 4,
                "payload {len}: {used} of {capacity} bytes used"
            );
        }
        // Never mapped: kept as the doubling left it, with no
        // reallocation for a trim.
        for len in [0, 1, 1000, 40_000] {
            let (used, capacity) = finished(len);
            assert!(
                capacity < MMAP_THRESHOLD_FLOOR && capacity.is_power_of_two(),
                "payload {len}: {used} of {capacity} bytes used"
            );
        }
    }

    #[test]
    fn image_round_trips() {
        let image = sample_image();
        let parsed = SnapshotImage::parse(&image).expect("valid image");
        assert_eq!(parsed.names().collect::<Vec<_>>(), vec!["alpha", "beta"]);
        let mut r = parsed.section("alpha").expect("alpha");
        assert_eq!(u64::restore(&mut r).unwrap(), 42);
        assert_eq!(String::restore(&mut r).unwrap(), "hello");
        assert!(r.is_empty());
        let mut r = parsed.section("beta").expect("beta");
        assert_eq!(Vec::<u32>::restore(&mut r).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn missing_section_is_typed() {
        let image = sample_image();
        let parsed = SnapshotImage::parse(&image).unwrap();
        assert_eq!(
            parsed.section("gamma").unwrap_err(),
            RestoreError::MissingSection {
                section: "gamma".into()
            }
        );
    }

    #[test]
    fn bad_magic_detected() {
        let mut image = sample_image();
        image[0] ^= 0xFF;
        assert_eq!(
            SnapshotImage::parse(&image).unwrap_err(),
            RestoreError::BadMagic
        );
    }

    #[test]
    fn version_mismatch_detected() {
        let mut image = sample_image();
        image[4] = SNAPSHOT_VERSION as u8 + 1;
        assert!(matches!(
            SnapshotImage::parse(&image).unwrap_err(),
            RestoreError::VersionMismatch { .. }
        ));
    }

    #[test]
    fn older_version_images_are_refused() {
        for found in [1u16, 2, 3] {
            // A well-formed older header, header CRC included.
            let mut image = sample_image();
            image[4..6].copy_from_slice(&found.to_le_bytes());
            let crc = crc32(&image[0..10]);
            image[10..14].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                SnapshotImage::parse(&image).unwrap_err(),
                RestoreError::VersionMismatch { found, expected: 4 }
            );
        }
    }

    #[test]
    fn header_count_flip_fails_header_crc() {
        let mut image = sample_image();
        image[6] ^= 0x01;
        assert_eq!(
            SnapshotImage::parse(&image).unwrap_err(),
            RestoreError::SectionCrcMismatch {
                section: "header".into()
            }
        );
    }

    #[test]
    fn every_payload_flip_fails_some_check() {
        let image = sample_image();
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut bad = image.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    SnapshotImage::parse(&bad).is_err(),
                    "flip at byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_typed() {
        let image = sample_image();
        for cut in 0..image.len() {
            let err = SnapshotImage::parse(&image[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    RestoreError::Truncated { .. }
                        | RestoreError::SectionCrcMismatch { .. }
                        | RestoreError::BadMagic
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn boundaries_cover_all_sections() {
        let image = sample_image();
        let cuts = SnapshotImage::boundaries(&image);
        assert_eq!(cuts.len(), 3); // header end + 2 section ends
        assert_eq!(*cuts.last().unwrap(), image.len());
    }

    #[test]
    fn containers_round_trip() {
        let mut out = Vec::new();
        let map: BTreeMap<u64, String> = [(3, "c".to_owned()), (1, "a".to_owned())]
            .into_iter()
            .collect();
        map.persist(&mut out);
        let set: BTreeSet<u32> = [5, 2, 9].into_iter().collect();
        set.persist(&mut out);
        let opt: Option<(u8, bool)> = Some((7, true));
        opt.persist(&mut out);
        let dq: VecDeque<u16> = [10u16, 20].into_iter().collect();
        dq.persist(&mut out);
        let arr: [u8; 4] = [9, 8, 7, 6];
        arr.persist(&mut out);
        (-0.5f64).persist(&mut out);
        SimTime::from_ns(77).persist(&mut out);

        let mut r = SnapReader::new(&out);
        assert_eq!(BTreeMap::<u64, String>::restore(&mut r).unwrap(), map);
        assert_eq!(BTreeSet::<u32>::restore(&mut r).unwrap(), set);
        assert_eq!(Option::<(u8, bool)>::restore(&mut r).unwrap(), opt);
        assert_eq!(VecDeque::<u16>::restore(&mut r).unwrap(), dq);
        assert_eq!(<[u8; 4]>::restore(&mut r).unwrap(), arr);
        assert_eq!(f64::restore(&mut r).unwrap(), -0.5);
        assert_eq!(SimTime::restore(&mut r).unwrap(), SimTime::from_ns(77));
        assert!(r.is_empty());
    }

    #[test]
    fn hashmap_helper_is_sorted_and_round_trips() {
        let mut map = std::collections::HashMap::new();
        map.insert(9u64, 1u32);
        map.insert(1u64, 2u32);
        let mut a = Vec::new();
        persist_sorted_map(&map, &mut a);
        let mut b = Vec::new();
        persist_sorted_map(&map.clone(), &mut b);
        assert_eq!(a, b, "encoding must not depend on hash order");
        let mut r = SnapReader::new(&a);
        let back: std::collections::HashMap<u64, u32> = restore_map(&mut r).unwrap();
        assert_eq!(back, map);
    }

    /// Keys written by hand: `0`, then each of `keys` with value 7.
    fn map_bytes(keys: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        (keys.len() as u64).persist(&mut out);
        for k in keys {
            k.persist(&mut out);
            7u32.persist(&mut out);
        }
        out
    }

    fn set_bytes(keys: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        (keys.len() as u64).persist(&mut out);
        for k in keys {
            k.persist(&mut out);
        }
        out
    }

    #[test]
    fn every_map_decoder_rejects_a_repeated_or_decreasing_key() {
        let keys_not_increasing = RestoreError::Malformed {
            context: "map keys not strictly increasing",
        };
        for keys in [[3u64, 3], [5, 2]] {
            let bytes = map_bytes(&keys);
            let got = BTreeMap::<u64, u32>::restore(&mut SnapReader::new(&bytes));
            assert_eq!(got.unwrap_err(), keys_not_increasing, "BTreeMap {keys:?}");
            let got = restore_map::<u64, u32>(&mut SnapReader::new(&bytes));
            assert_eq!(got.unwrap_err(), keys_not_increasing, "HashMap {keys:?}");
            let bytes = set_bytes(&keys);
            let got = BTreeSet::<u64>::restore(&mut SnapReader::new(&bytes));
            assert_eq!(got.unwrap_err(), keys_not_increasing, "BTreeSet {keys:?}");
        }
        // Strictly increasing keys are the one accepted encoding.
        let bytes = map_bytes(&[2, 5]);
        assert_eq!(
            BTreeMap::<u64, u32>::restore(&mut SnapReader::new(&bytes)).unwrap(),
            [(2, 7), (5, 7)].into_iter().collect()
        );
        assert_eq!(
            restore_map::<u64, u32>(&mut SnapReader::new(&bytes))
                .unwrap()
                .len(),
            2
        );
        let bytes = set_bytes(&[2, 5]);
        assert_eq!(
            BTreeSet::<u64>::restore(&mut SnapReader::new(&bytes)).unwrap(),
            [2, 5].into_iter().collect()
        );
    }

    #[test]
    fn rng_round_trips_mid_stream() {
        let mut rng = SimRng::seed_from_u64(77);
        for _ in 0..13 {
            rng.next_u64();
        }
        let mut out = Vec::new();
        rng.persist(&mut out);
        let mut r = SnapReader::new(&out);
        let mut back = SimRng::restore(&mut r).unwrap();
        assert_eq!(back.next_u64(), rng.next_u64());
        assert_eq!(back.next_u64(), rng.next_u64());
    }

    /// Declared `a, b, c, d`; listed `b, a, d, c`.
    #[derive(Debug, PartialEq)]
    struct Named {
        a: u8,
        b: u64,
        c: Option<SimTime>,
        d: Vec<u16>,
    }
    persist_fields!(Named { b, a, d, c });

    #[derive(Debug, PartialEq)]
    struct Tuple(u32, bool);
    persist_fields!(Tuple { 0, 1 });

    fn named() -> Named {
        Named {
            a: 0xA1,
            b: 0x0102_0304_0506_0708,
            c: Some(SimTime::from_ps(99)),
            d: vec![7, 8, 9],
        }
    }

    fn encode(value: &impl Persist) -> Vec<u8> {
        let mut out = Vec::new();
        value.persist(&mut out);
        out
    }

    #[test]
    fn field_lists_round_trip_named_and_tuple_structs() {
        let bytes = encode(&named());
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Named::restore(&mut r).unwrap(), named());
        assert!(r.is_empty());

        let bytes = encode(&Tuple(0xDEAD_BEEF, true));
        assert_eq!(bytes, [0xEF, 0xBE, 0xAD, 0xDE, 1]);
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Tuple::restore(&mut r).unwrap(), Tuple(0xDEAD_BEEF, true));
        assert!(r.is_empty());
    }

    #[test]
    fn field_list_order_is_the_byte_layout() {
        let v = named();
        let mut want = Vec::new();
        v.b.persist(&mut want);
        v.a.persist(&mut want);
        v.d.persist(&mut want);
        v.c.persist(&mut want);
        assert_eq!(encode(&v), want);
    }

    fn assert_every_cut_truncates<T: Persist + fmt::Debug>(bytes: &[u8]) {
        for cut in 0..bytes.len() {
            let got = T::restore(&mut SnapReader::new(&bytes[..cut]));
            assert!(
                matches!(got, Err(RestoreError::Truncated { .. })),
                "cut at {cut} of {} gave {got:?}",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_cut_of_a_field_list_payload_is_truncated() {
        assert_every_cut_truncates::<Named>(&encode(&named()));
        assert_every_cut_truncates::<Tuple>(&encode(&Tuple(5, false)));
    }

    #[test]
    fn results_round_trip_behind_a_tag_byte() {
        type R = Result<u32, (u8, bool)>;
        for (v, bytes) in [
            (Ok(0x0A0B_0C0D), vec![0, 0x0D, 0x0C, 0x0B, 0x0A]),
            (Err((7, true)), vec![1, 7, 1]),
        ] {
            let v: R = v;
            assert_eq!(encode(&v), bytes);
            let mut r = SnapReader::new(&bytes);
            assert_eq!(R::restore(&mut r).unwrap(), v);
            assert!(r.is_empty());
            assert_every_cut_truncates::<R>(&bytes);
        }
        let got = R::restore(&mut SnapReader::new(&[2, 7, 1]));
        assert!(
            matches!(got, Err(RestoreError::Malformed { .. })),
            "{got:?}"
        );
    }

    #[test]
    fn truncated_payload_reads_are_typed() {
        let mut out = Vec::new();
        1_000_000u64.persist(&mut out); // absurd length prefix
        let mut r = SnapReader::new(&out);
        assert!(matches!(
            Vec::<u64>::restore(&mut r),
            Err(RestoreError::Truncated { .. })
        ));
    }
}
