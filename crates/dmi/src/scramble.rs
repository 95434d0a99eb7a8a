//! Line scrambling.
//!
//! Paper §3.3(i): "Once alignment is achieved, the data gets
//! descrambled and forwarded ... The transmit side logic accepts 2
//! frames every cycle from MBI, scrambles them and then sends them out
//! across the DMI link."
//!
//! High-speed serial links scramble data to guarantee transition
//! density for clock recovery (ConTutto's receive direction uses CDR,
//! §3.2). We implement a side-synchronized additive scrambler: a
//! 23-bit Fibonacci LFSR (x²³ + x¹⁸ + 1, the PCIe-like polynomial)
//! whose keystream is XORed onto the serialized frame bytes. Both ends
//! seed the LFSR during training, so descrambling is the same
//! operation with the same state.

/// The LFSR seed established during link training. Any nonzero value
/// works; this one is the value the training pattern generator uses.
pub const TRAINING_SEED: u32 = 0x1F_FFFF;

const MASK: u32 = 0x7F_FFFF; // 23 bits

/// A 23-bit additive scrambler/descrambler.
///
/// Scrambling and descrambling are the same XOR operation; two
/// `Scrambler`s constructed with the same seed and fed the same byte
/// count stay in lockstep.
///
/// # Example
///
/// ```
/// use contutto_dmi::scramble::Scrambler;
/// let mut tx = Scrambler::new(0xABCDE);
/// let mut rx = Scrambler::new(0xABCDE);
/// let mut frame = *b"hello DMI frame!";
/// tx.apply(&mut frame);
/// assert_ne!(&frame, b"hello DMI frame!");
/// rx.apply(&mut frame);
/// assert_eq!(&frame, b"hello DMI frame!");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scrambler {
    state: u32,
}

impl Scrambler {
    /// Creates a scrambler with the given 23-bit seed.
    ///
    /// # Panics
    ///
    /// Panics if `seed & 0x7FFFFF` is zero (an all-zero LFSR never
    /// advances).
    pub fn new(seed: u32) -> Self {
        let state = seed & MASK;
        assert!(state != 0, "scrambler seed must be nonzero in low 23 bits");
        Scrambler { state }
    }

    /// Creates a scrambler with the training seed both ends use after
    /// link bring-up.
    pub fn trained() -> Self {
        Scrambler::new(TRAINING_SEED)
    }

    /// Advances the LFSR one bit and returns the output bit.
    fn step_bit(&mut self) -> u8 {
        // x^23 + x^18 + 1 (taps at bit 22 and bit 17)
        let out = (self.state >> 22) & 1;
        let fb = ((self.state >> 22) ^ (self.state >> 17)) & 1;
        self.state = ((self.state << 1) | fb) & MASK;
        out as u8
    }

    /// Produces the next keystream byte (MSB first).
    pub fn next_byte(&mut self) -> u8 {
        let mut b = 0u8;
        for _ in 0..8 {
            b = (b << 1) | self.step_bit();
        }
        b
    }

    /// XORs the keystream onto `data` in place (scramble or
    /// descramble — the operation is self-inverse given equal state).
    pub fn apply(&mut self, data: &mut [u8]) {
        for byte in data {
            *byte ^= self.next_byte();
        }
    }

    /// Current LFSR state (for tests and training checks).
    pub fn state(&self) -> u32 {
        self.state
    }
}

/// Longest frame the cached keystream covers (upstream frames are
/// 42 bytes).
pub(crate) const KEYSTREAM_LEN: usize = 64;

static TRAINED_KEYSTREAM: std::sync::OnceLock<[u8; KEYSTREAM_LEN]> = std::sync::OnceLock::new();

/// Applies the trained-seed keystream to a frame in place. Identical
/// to `Scrambler::trained().apply(data)` but reuses a precomputed
/// keystream — the per-frame hot path of the link model.
///
/// # Panics
///
/// Panics if `data` exceeds one frame (64 bytes).
pub fn apply_trained(data: &mut [u8]) {
    assert!(data.len() <= KEYSTREAM_LEN, "keystream covers one frame");
    let ks = TRAINED_KEYSTREAM.get_or_init(|| {
        let mut s = Scrambler::trained();
        let mut ks = [0u8; KEYSTREAM_LEN];
        for b in &mut ks {
            *b = s.next_byte();
        }
        ks
    });
    for (b, k) in data.iter_mut().zip(ks) {
        *b ^= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_identity() {
        let original: Vec<u8> = (0..=255).collect();
        let mut data = original.clone();
        let mut tx = Scrambler::trained();
        let mut rx = Scrambler::trained();
        tx.apply(&mut data);
        assert_ne!(data, original);
        rx.apply(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn keystream_has_transition_density() {
        // The point of scrambling: long runs of zeros become balanced.
        let mut s = Scrambler::trained();
        let mut zeros = vec![0u8; 4096];
        s.apply(&mut zeros);
        let ones: u32 = zeros.iter().map(|b| b.count_ones()).sum();
        let total = 4096 * 8;
        let density = f64::from(ones) / f64::from(total as u32);
        assert!(
            (0.45..0.55).contains(&density),
            "keystream density {density} not balanced"
        );
    }

    #[test]
    fn period_is_long() {
        // A maximal 23-bit LFSR must not repeat state within a small window.
        let mut s = Scrambler::new(1);
        let start = s.state();
        for i in 1..100_000u32 {
            s.step_bit();
            assert!(s.state() != start || i == 0, "state repeated at step {i}");
        }
    }

    #[test]
    fn desync_corrupts() {
        let mut tx = Scrambler::trained();
        let mut rx = Scrambler::trained();
        rx.next_byte(); // rx is one byte ahead: out of sync
        let mut data = *b"payload payload!";
        tx.apply(&mut data);
        rx.apply(&mut data);
        assert_ne!(&data, b"payload payload!");
    }

    #[test]
    fn apply_trained_matches_fresh_scrambler() {
        let mut a = *b"0123456789abcdefghijklmnopqr";
        let mut b = a;
        apply_trained(&mut a);
        Scrambler::trained().apply(&mut b);
        assert_eq!(a, b);
        apply_trained(&mut a);
        assert_eq!(&a, b"0123456789abcdefghijklmnopqr");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_seed_panics() {
        let _ = Scrambler::new(0x80_0000); // nonzero u32, but zero in low 23 bits
    }
}
