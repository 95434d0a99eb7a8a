//! The host-speed reference: fixed work, owned by the benchmark, timed
//! next to every host-time measurement so that the measurement can be
//! reported at a fixed reference speed.
//!
//! The benchmark runs on a shared host whose speed drifts by 10–40 %
//! for seconds to minutes at a time: neighbours on the same core, cache
//! and memory contention, the clock frequency. No statistic taken
//! within one run removes a drift that lasts the whole run. So each
//! host-time sample is paired with a timing of a reference kernel taken
//! next to it, and divided by the kernel's [`slowdown`](Reference::slowdown):
//! the time the sample would have taken on a host that runs the kernel
//! at its nominal speed. The kernels share no code with the simulator,
//! so a faster simulator still reads faster, by the same ratio.
//!
//! There are two kernels because contention slows different work by
//! different amounts, and each must resemble what it scales:
//! [`Kernel::Steps`] is branchy integer work on a table that fits in
//! the L2 cache, with formatting, hashing and small allocations, like
//! stepping the simulator; [`Kernel::Image`] encodes bytes into a fresh
//! buffer, checksums it and copies it, like taking or restoring a
//! snapshot.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Words in the steps kernel's table: 256 KiB.
const TABLE_WORDS: usize = 1 << 15;
/// Values a unit of the image kernel encodes, 1 to 8 bytes each: about
/// 54 KB.
const IMAGE_VALUES: u32 = 12_000;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One of the reference kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Scales simulation: throughput windows and set-ups.
    Steps,
    /// Scales snapshots and restores.
    Image,
}

impl Kernel {
    /// Units timed per sample, after an eighth as many to warm up:
    /// about 1 ms (steps) and 4 ms (image) on the baseline host.
    fn units(self) -> u32 {
        match self {
            Kernel::Steps => 4000,
            Kernel::Image => 16,
        }
    }

    /// Host ns per unit at the reference speed: round figures near what
    /// a 2 GHz Xeon vCPU of the baseline host takes. The values only set
    /// the scale; a metric keeps its ratio between two commits.
    fn nominal_ns(self) -> f64 {
        match self {
            Kernel::Steps => 200.0,
            Kernel::Image => 200_000.0,
        }
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// The reference kernels' state.
pub struct Reference {
    table: Vec<u64>,
    x: u64,
    text: String,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: (0..TABLE_WORDS as u64).collect(),
            x: 0x9E37_79B9_7F4A_7C15,
            text: String::new(),
        }
    }
}

impl Reference {
    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn steps_unit(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..32 {
            let x = self.next();
            let slot = &mut self.table[x as usize & (TABLE_WORDS - 1)];
            *slot = slot.wrapping_mul(FNV_PRIME) ^ x;
            if *slot & 3 == 0 {
                acc = acc.wrapping_add(*slot);
            } else {
                acc ^= *slot >> 3;
            }
        }
        self.text.clear();
        let _ = write!(self.text, "[{acc:>12} ps] step addr={:#x}", self.x);
        let hash = self.text.bytes().fold(FNV_OFFSET, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        });
        black_box(Box::new([hash; 6]))[5]
    }

    fn image_unit(&mut self) -> u64 {
        let mut image = Vec::new();
        for i in 0..IMAGE_VALUES {
            let bytes = self.next().to_le_bytes();
            image.extend_from_slice(&bytes[..(i % 8 + 1) as usize]);
        }
        let crc = !image.iter().fold(!0u32, |c, &b| {
            CRC32_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
        });
        let mut framed = Vec::with_capacity(image.len() + 4);
        framed.extend_from_slice(&crc.to_le_bytes());
        framed.extend_from_slice(&image);
        u64::from(black_box(framed)[image.len() / 2])
    }

    fn unit(&mut self, kernel: Kernel) -> u64 {
        match kernel {
            Kernel::Steps => self.steps_unit(),
            Kernel::Image => self.image_unit(),
        }
    }

    /// Host ns per unit of `kernel`, timed now.
    fn ns_per_unit(&mut self, kernel: Kernel) -> f64 {
        let n = kernel.units();
        for _ in 0..n / 8 {
            black_box(self.unit(kernel));
        }
        let start = Instant::now();
        for _ in 0..n {
            black_box(self.unit(kernel));
        }
        start.elapsed().as_nanos() as f64 / f64::from(n)
    }

    /// How much slower than its nominal speed the host runs `kernel`
    /// now: 1.0 at the nominal speed, 1.3 when 30 % slower. A host time
    /// divided by it is that time at the reference speed.
    pub fn slowdown(&mut self, kernel: Kernel) -> f64 {
        self.ns_per_unit(kernel) / kernel.nominal_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_do_fixed_work_and_time_it() {
        for kernel in [Kernel::Steps, Kernel::Image] {
            let mut a = Reference::default();
            let mut b = Reference::default();
            assert_eq!(a.unit(kernel), b.unit(kernel), "{kernel:?}");
            let s = a.slowdown(kernel);
            assert!(s.is_finite() && s > 0.0, "{kernel:?}: {s}");
        }
    }
}
