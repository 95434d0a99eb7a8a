//! Frame CRC.
//!
//! Paper §2.3: "both upstream and downstream frames are protected with
//! strong cyclic redundancy check (CRC) for error detection". We use
//! CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF), computed over
//! the serialized frame bytes excluding the CRC field itself. A 16-bit
//! CRC detects all single- and double-bit errors and all burst errors
//! up to 16 bits in a 28-byte frame, which matches the single-lane
//! error bursts the link model injects.
//!
//! The link computes a CRC over every frame in both directions on
//! every slot, so [`Crc16::update`] is slicing-by-8: eight table
//! lookups consume eight bytes per step, with the plain byte-at-a-time
//! loop for the tail. Its output is bit-identical to the bit-serial
//! definition.

/// Polynomial for CRC-16/CCITT-FALSE.
pub const POLY: u16 = 0x1021;
/// Initial register value.
pub const INIT: u16 = 0xFFFF;

/// Computes the CRC-16/CCITT-FALSE over `data`.
///
/// # Example
///
/// ```
/// // Standard check value for this CRC variant.
/// assert_eq!(contutto_dmi::crc::crc16(b"123456789"), 0x29B1);
/// ```
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc = Crc16::new();
    crc.update(data);
    crc.finish()
}

/// `TABLES[k][b]` is the CRC register (from zero) after byte `b`
/// followed by `k` zero bytes. Row 0 is the classic byte-at-a-time
/// table.
const fn build_tables() -> [[u16; 256]; 8] {
    let mut tables = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u16; 256]; 8] = build_tables();

/// Incremental CRC-16 state, for computing a frame CRC across
/// separately serialized sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc16 {
    state: u16,
}

impl Default for Crc16 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc16 {
    /// Creates a fresh CRC register.
    pub fn new() -> Self {
        Crc16 { state: INIT }
    }

    /// Feeds bytes into the CRC.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(8);
        for b in &mut blocks {
            // The 16-bit register overlaps the block's first two
            // bytes; each byte then contributes its own table row,
            // shifted by the bytes that follow it in the block.
            let [hi, lo] = crc.to_be_bytes();
            crc = t[7][usize::from(b[0] ^ hi)]
                ^ t[6][usize::from(b[1] ^ lo)]
                ^ t[5][usize::from(b[2])]
                ^ t[4][usize::from(b[3])]
                ^ t[3][usize::from(b[4])]
                ^ t[2][usize::from(b[5])]
                ^ t[1][usize::from(b[6])]
                ^ t[0][usize::from(b[7])];
        }
        for &byte in blocks.remainder() {
            let idx = ((crc >> 8) as u8) ^ byte;
            crc = (crc << 8) ^ t[0][usize::from(idx)];
        }
        self.state = crc;
    }

    /// Returns the final CRC value.
    pub fn finish(self) -> u16 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contutto_sim::SimRng;

    /// The definition: shift each message bit through the register,
    /// MSB first, with no table.
    fn bit_serial(data: &[u8]) -> u16 {
        let mut crc = INIT;
        for &byte in data {
            for bit in (0..8).rev() {
                let feedback = ((crc >> 15) as u8 ^ (byte >> bit)) & 1;
                crc <<= 1;
                if feedback != 0 {
                    crc ^= POLY;
                }
            }
        }
        crc
    }

    #[test]
    fn known_check_value() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(bit_serial(b"123456789"), 0x29B1);
    }

    #[test]
    fn sliced_matches_bit_serial_at_every_length() {
        let mut rng = SimRng::seed_from_u64(0xC0C0);
        for trial in 0..16 {
            let data: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
            for len in 0..=data.len() {
                let slice = &data[..len];
                assert_eq!(crc16(slice), bit_serial(slice), "trial {trial} len {len}");
            }
        }
    }

    #[test]
    fn empty_input_is_init() {
        assert_eq!(crc16(&[]), INIT);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for cut in 0..=data.len() {
            let mut inc = Crc16::new();
            inc.update(&data[..cut]);
            inc.update(&data[cut..]);
            assert_eq!(inc.finish(), crc16(data), "cut at {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips_in_frame_sized_data() {
        let frame: Vec<u8> = (0..26u8).collect(); // 26 covered bytes of a 28 B frame
        let good = crc16(&frame);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc16(&bad), good, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn detects_all_double_bit_flips_in_one_lane_word() {
        // Two-bit errors within any 16-bit window must be caught.
        let frame: Vec<u8> = (0..26u8).map(|b| b.wrapping_mul(37)).collect();
        let good = crc16(&frame);
        let bits = frame.len() * 8;
        for i in 0..bits {
            for j in (i + 1)..bits.min(i + 16) {
                let mut bad = frame.clone();
                bad[i / 8] ^= 1 << (i % 8);
                bad[j / 8] ^= 1 << (j % 8);
                assert_ne!(crc16(&bad), good, "missed double flip {i},{j}");
            }
        }
    }
}
