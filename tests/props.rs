//! Randomized property tests on the core data structures and protocol
//! invariants, driven by the kernel's deterministic [`SimRng`] (fixed
//! seeds, fixed case counts — every run exercises the same inputs).

use contutto_system::dmi::command::{CacheLine, RmwOp, TagPool};
use contutto_system::dmi::crc::crc16;
use contutto_system::dmi::frame::{
    line_to_downstream_beats, line_to_upstream_beats, CommandHeader, DownstreamFrame,
    DownstreamPayload, LineAssembler, UpstreamFrame, UpstreamPayload,
};
use contutto_system::dmi::Tag;
use contutto_system::memdev::SparseMemory;
use contutto_system::sim::SimRng;
use contutto_system::sim::{DelayQueue, SimTime};

const CASES: u64 = 64;

fn arb_line(rng: &mut SimRng) -> CacheLine {
    CacheLine::patterned(rng.next_u64())
}

fn arb_tag(rng: &mut SimRng) -> Tag {
    Tag::new(rng.gen_index(32) as u8).expect("in range")
}

#[test]
fn downstream_frames_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x0707_0000);
    for case in 0..CASES {
        let seq = rng.gen_index(128) as u8;
        let tag = arb_tag(&mut rng);
        let addr = rng.next_u64();
        let line = arb_line(&mut rng);
        let frames = vec![
            DownstreamFrame {
                seq,
                ack: None,
                payload: DownstreamPayload::Idle,
            },
            DownstreamFrame {
                seq,
                ack: Some((seq + 5) % 128),
                payload: DownstreamPayload::Command {
                    tag,
                    header: CommandHeader::Read { addr },
                },
            },
            DownstreamFrame {
                seq,
                ack: None,
                payload: DownstreamPayload::WriteData {
                    tag,
                    beat: seq % 8,
                    data: line.0[0..16].try_into().expect("16 bytes"),
                },
            },
        ];
        for f in frames {
            let back = DownstreamFrame::from_bytes(&f.to_bytes()).expect("clean frame");
            assert_eq!(back, f, "case {case}");
        }
    }
}

#[test]
fn upstream_frames_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x0707_1000);
    for case in 0..CASES {
        let seq = rng.gen_index(128) as u8;
        let tag = arb_tag(&mut rng);
        let second = if rng.gen_bool(0.5) {
            Some(arb_tag(&mut rng))
        } else {
            None
        };
        let f = UpstreamFrame {
            seq,
            ack: Some(seq),
            payload: UpstreamPayload::Done { first: tag, second },
        };
        let back = UpstreamFrame::from_bytes(&f.to_bytes()).expect("clean frame");
        assert_eq!(back, f, "case {case}");
    }
}

#[test]
fn any_single_bitflip_is_detected() {
    let mut rng = SimRng::seed_from_u64(0x0707_2000);
    for case in 0..CASES * 4 {
        let payload_seed = rng.next_u64();
        let byte = rng.gen_index(28);
        let bit = rng.gen_index(8);
        let f = DownstreamFrame {
            seq: (payload_seed % 128) as u8,
            ack: None,
            payload: DownstreamPayload::WriteData {
                tag: Tag::new((payload_seed % 32) as u8).expect("in range"),
                beat: (payload_seed % 8) as u8,
                data: CacheLine::patterned(payload_seed).0[0..16]
                    .try_into()
                    .expect("16"),
            },
        };
        let mut bytes = f.to_bytes();
        bytes[byte] ^= 1 << bit;
        assert!(
            DownstreamFrame::from_bytes(&bytes).is_err(),
            "case {case}: single bit flip at byte {byte} bit {bit} went undetected"
        );
    }
}

#[test]
fn crc16_is_a_pure_function() {
    let mut rng = SimRng::seed_from_u64(0x0707_3000);
    for case in 0..CASES {
        let len = rng.gen_index(64);
        let a: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(crc16(&a), crc16(&a.clone()), "case {case}");
    }
}

#[test]
fn line_beats_reassemble_in_any_order() {
    let mut rng = SimRng::seed_from_u64(0x0707_4000);
    for case in 0..CASES {
        let line = arb_line(&mut rng);
        let tag = arb_tag(&mut rng);
        let mut order: Vec<usize> = (0..8).collect();
        rng.shuffle(&mut order);
        let beats = line_to_downstream_beats(tag, &line);
        let mut asm = LineAssembler::downstream();
        for &i in &order {
            if let DownstreamPayload::WriteData { beat, data, .. } = &beats[i] {
                asm.add_beat(*beat, data);
            }
        }
        assert!(asm.is_complete(), "case {case}");
        assert_eq!(asm.into_line(), line, "case {case}");
    }
}

#[test]
fn upstream_beats_reassemble() {
    let mut rng = SimRng::seed_from_u64(0x0707_5000);
    for case in 0..CASES {
        let line = arb_line(&mut rng);
        let tag = arb_tag(&mut rng);
        let beats = line_to_upstream_beats(tag, &line, false);
        let mut asm = LineAssembler::upstream();
        for p in beats.iter().rev() {
            if let UpstreamPayload::ReadData { beat, data, .. } = p {
                asm.add_beat(*beat, data);
            }
        }
        assert_eq!(asm.into_line(), line, "case {case}");
    }
}

#[test]
fn rmw_partial_write_only_touches_masked_sectors() {
    let mut rng = SimRng::seed_from_u64(0x0707_6000);
    for case in 0..CASES {
        let old = arb_line(&mut rng);
        let new = arb_line(&mut rng);
        let mask = rng.next_u64() as u8;
        let merged = RmwOp::PartialWrite { sector_mask: mask }.apply(old, new);
        for sector in 0..8 {
            let range = sector * 16..(sector + 1) * 16;
            if mask & (1 << sector) != 0 {
                assert_eq!(&merged.0[range.clone()], &new.0[range], "case {case}");
            } else {
                assert_eq!(&merged.0[range.clone()], &old.0[range], "case {case}");
            }
        }
    }
}

#[test]
fn rmw_min_then_max_brackets() {
    let mut rng = SimRng::seed_from_u64(0x0707_7000);
    for case in 0..CASES {
        let old = arb_line(&mut rng);
        let new = arb_line(&mut rng);
        let mn = RmwOp::MinStore.apply(old, new);
        let mx = RmwOp::MaxStore.apply(old, new);
        for w in 0..16 {
            assert!(mn.word(w) <= old.word(w), "case {case}");
            assert!(mn.word(w) <= new.word(w), "case {case}");
            assert!(mx.word(w) >= old.word(w), "case {case}");
            assert!(mx.word(w) >= new.word(w), "case {case}");
            assert!(
                mn.word(w) == old.word(w) || mn.word(w) == new.word(w),
                "case {case}"
            );
        }
    }
}

#[test]
fn min_store_is_idempotent() {
    let mut rng = SimRng::seed_from_u64(0x0707_8000);
    for case in 0..CASES {
        let old = arb_line(&mut rng);
        let new = arb_line(&mut rng);
        let once = RmwOp::MinStore.apply(old, new);
        let twice = RmwOp::MinStore.apply(once, new);
        assert_eq!(once, twice, "case {case}");
    }
}

#[test]
fn tag_pool_never_double_allocates() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x0707_9000 + case);
        let n = rng.gen_range(1..200) as usize;
        let mut pool = TagPool::new();
        let mut held: Vec<Tag> = Vec::new();
        for _ in 0..n {
            if rng.gen_bool(0.5) {
                if let Ok(t) = pool.acquire() {
                    assert!(!held.contains(&t), "double allocation of {t} (case {case})");
                    held.push(t);
                }
            } else if let Some(t) = held.pop() {
                pool.release(t).expect("held tag releases");
            }
        }
        assert_eq!(pool.in_flight(), held.len(), "case {case}");
    }
}

#[test]
fn sparse_memory_matches_reference() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x0707_A000 + case);
        let n = rng.gen_range(1..40) as usize;
        let mut mem = SparseMemory::new();
        let mut reference = vec![0u8; 101_000];
        for _ in 0..n {
            let addr = rng.gen_range(0..100_000);
            let len = rng.gen_range(1..128) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            mem.write(addr, &data);
            reference[addr as usize..addr as usize + data.len()].copy_from_slice(&data);
        }
        // Check a window covering everything.
        let mut out = vec![0u8; 101_000];
        mem.read(0, &mut out);
        assert_eq!(out, reference, "case {case}");
    }
}

#[test]
fn delay_queue_preserves_fifo() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x0707_C000 + case);
        let n = rng.gen_range(1..50) as usize;
        let mut q = DelayQueue::with_latency(SimTime::from_ns(5));
        let mut t = SimTime::ZERO;
        for i in 0..n {
            t += SimTime::from_ps(rng.gen_range(0..1000));
            q.push(t, i).expect("unbounded");
        }
        let mut out = Vec::new();
        while let Some(v) = q.pop_ready(SimTime::from_secs(1)) {
            out.push(v);
        }
        let expected: Vec<usize> = (0..n).collect();
        assert_eq!(out, expected, "case {case}");
    }
}

#[test]
fn fft_roundtrip_via_inverse_energy() {
    use contutto_system::contutto::accel::fft::{fft_in_place, Complex32};
    let mut rng = SimRng::seed_from_u64(0x0707_D000);
    for case in 0..8 {
        let seeds: Vec<u32> = (0..8).map(|_| rng.next_u64() as u32).collect();
        // Parseval: energy preserved (up to 1/N normalization).
        let n = 256usize;
        let input: Vec<Complex32> = (0..n)
            .map(|i| {
                let s = seeds[i % seeds.len()] as f32 / u32::MAX as f32 - 0.5;
                Complex32::new(s, -s * 0.5)
            })
            .collect();
        let time_energy: f32 = input.iter().map(|c| c.abs() * c.abs()).sum();
        let mut freq = input.clone();
        fft_in_place(&mut freq);
        let freq_energy: f32 = freq.iter().map(|c| c.abs() * c.abs()).sum::<f32>() / n as f32;
        if time_energy > 1e-3 {
            let rel = (time_energy - freq_energy).abs() / time_energy;
            assert!(rel < 1e-2, "energy drift {rel} (case {case})");
        }
    }
}

// ------------------------------------------------ snapshot corruption

/// A booted system with enough activity that every snapshot section
/// has meat: tracing on, stores landed, pipelined loads in flight.
fn snapshot_testbed() -> (contutto_system::power8::system::Power8System, Vec<u8>) {
    use contutto_system::contutto::{ContuttoConfig, MemoryPopulation};
    use contutto_system::power8::firmware::layouts;
    use contutto_system::power8::system::Power8System;

    let mut sys = Power8System::boot(
        layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        23,
    )
    .expect("boots");
    sys.enable_tracing(256);
    for i in 0..6u64 {
        sys.store_line(0x10_0000 + i * 128, CacheLine::patterned(900 + i))
            .unwrap();
    }
    for i in 0..3u64 {
        sys.submit_load(0x10_0000 + i * 128).unwrap();
    }
    let image = sys.snapshot();
    (sys, image)
}

#[test]
fn snapshot_truncation_at_every_boundary_is_a_typed_error() {
    use contutto_system::power8::system::Power8System;
    use contutto_system::sim::snapshot::SnapshotImage;

    let (_, image) = snapshot_testbed();
    let boundaries = SnapshotImage::boundaries(&image);
    assert!(boundaries.len() > 2, "multi-section image");
    let mut rng = SimRng::seed_from_u64(0x0BAD_C0DE);
    let mut cuts: Vec<usize> = boundaries
        .iter()
        .copied()
        .filter(|&b| b < image.len())
        .collect();
    // Plus mid-frame cuts: truncation must be typed anywhere, not
    // just on the seams.
    for _ in 0..32 {
        cuts.push(rng.gen_index(image.len()));
    }
    for cut in cuts {
        let mut victim = Power8System::boot(
            contutto_system::power8::firmware::layouts::one_contutto_six_cdimm(
                contutto_system::contutto::ContuttoConfig::base(),
                contutto_system::contutto::MemoryPopulation::dram_8gb(),
            ),
            23,
        )
        .expect("boots");
        let err = victim
            .restore(&image[..cut])
            .expect_err("truncated image must never restore");
        // Any typed error is acceptable; reaching here at all proves
        // no panic. The Display impl must render, too.
        let _ = err.to_string();
    }
}

#[test]
fn snapshot_bitflip_sweep_is_a_typed_error() {
    use contutto_system::power8::system::Power8System;
    use contutto_system::sim::snapshot::RestoreError;

    let (_, image) = snapshot_testbed();
    let mut rng = SimRng::seed_from_u64(0x0F11_F1A9);
    // Every header byte, then a sampled sweep over the body: one bit
    // per chosen byte. CRC32 catches every single-bit flip, so the
    // only acceptable outcomes are typed errors — never Ok, never a
    // panic.
    let mut positions: Vec<usize> = (0..14.min(image.len())).collect();
    for _ in 0..96 {
        positions.push(rng.gen_index(image.len()));
    }
    for pos in positions {
        let bit = rng.gen_index(8) as u8;
        let mut corrupt = image.clone();
        corrupt[pos] ^= 1 << bit;
        let mut victim = Power8System::boot(
            contutto_system::power8::firmware::layouts::one_contutto_six_cdimm(
                contutto_system::contutto::ContuttoConfig::base(),
                contutto_system::contutto::MemoryPopulation::dram_8gb(),
            ),
            23,
        )
        .expect("boots");
        let err = victim
            .restore(&corrupt)
            .expect_err("corrupt image must never be silently accepted");
        match pos {
            0..=3 => assert!(
                matches!(err, RestoreError::BadMagic),
                "magic flip at {pos}: {err:?}"
            ),
            4..=5 => assert!(
                matches!(err, RestoreError::VersionMismatch { .. }),
                "version flip at {pos}: {err:?}"
            ),
            6..=13 => assert!(
                matches!(err, RestoreError::SectionCrcMismatch { ref section } if section == "header")
                    || matches!(err, RestoreError::Truncated { .. }),
                "header flip at {pos}: {err:?}"
            ),
            _ => {
                let _ = err.to_string();
            }
        }
    }
}

/// An image written under format version 2 (every eDRAM way and flash
/// block listed) is refused by its version, before any section is read.
#[test]
fn a_version_two_image_is_refused_with_version_mismatch() {
    use contutto_system::sim::snapshot::{crc32, RestoreError, SNAPSHOT_VERSION};

    let (mut sys, mut image) = snapshot_testbed();
    image[4..6].copy_from_slice(&2u16.to_le_bytes());
    let crc = crc32(&image[0..10]);
    image[10..14].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(
        sys.restore(&image).unwrap_err(),
        RestoreError::VersionMismatch {
            found: 2,
            expected: SNAPSHOT_VERSION
        }
    );
}
