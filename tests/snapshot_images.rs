//! Golden snapshot images: a change meant to keep the image format the
//! same must keep these images byte-identical.
//!
//! Each constant is the length and CRC-32 of one traced
//! `Power8System::snapshot()` image. The four checkpoint cut classes
//! (mid-steady, mid-fault, mid-evacuation, post-EPOW, as in
//! `tests/checkpoint.rs`) are cut at seed 3; a fifth image comes from a
//! mirrored pair with every overload defense configured, cut with
//! hedges, a media-fault storm and finished-but-uncollected results
//! live. A sixth digest covers the two encodings no system image holds
//! (the metrics registry and `MemCommand`). A seventh image holds an
//! STT-MRAM card with worn lines and an armed fault injector. Between
//! them they hold every struct-shaped `Persist` type and every media
//! technology, so one field written out of order, dropped or added
//! changes a digest.
//! Update a constant only with a change that is meant to alter the
//! image format, and bump `SNAPSHOT_VERSION` with it.

use contutto_system::contutto::{ContuttoConfig, MemoryKind, MemoryPopulation};
use contutto_system::dmi::command::RmwOp;
use contutto_system::dmi::{CacheLine, CommandOp, MemCommand, Tag};
use contutto_system::memdev::MramGeneration;
use contutto_system::power8::failover::FailoverMode;
use contutto_system::power8::firmware::layouts;
use contutto_system::power8::inject::{FaultAction, FaultOutcome};
use contutto_system::power8::system::Power8System;
use contutto_system::power8::{HedgeConfig, OverloadConfig};
use contutto_system::sim::snapshot::{crc32, crc32_reference, Persist, SNAPSHOT_VERSION};
use contutto_system::sim::SimTime;

const SEED: u64 = 3;
const TRACE_CAP: usize = 1 << 10;

fn check(name: &str, image: &[u8], want_len: usize, want_crc: u32) {
    let (len, crc) = (image.len(), crc32(image));
    // Every pinned image doubles as a multi-megabyte case for the
    // sliced CRC against its byte-at-a-time oracle.
    assert_eq!(
        crc,
        crc32_reference(image),
        "{name}: sliced CRC-32 disagrees"
    );
    assert_eq!(
        (len, crc),
        (want_len, want_crc),
        "{name}: image {len} bytes crc {crc:08x}, golden {want_len} bytes crc {want_crc:08x}"
    );
}

fn traced(mut sys: Power8System) -> Power8System {
    sys.enable_tracing(TRACE_CAP);
    sys
}

fn spare_pair() -> Power8System {
    traced(
        Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            SEED,
            FailoverMode::Spare { spare: 4 },
        )
        .expect("boots"),
    )
}

fn slot_base(sys: &Power8System, slot: usize) -> u64 {
    sys.memory_map()
        .regions()
        .iter()
        .find(|r| r.channel == slot)
        .expect("slot backs a region")
        .base
}

fn poison_line(sys: &mut Power8System, idx: u64) {
    let ch = sys.channel_mut(2).expect("channel 2 is live");
    let now = ch.channel.now();
    let (bytes, _) = ch
        .channel
        .buffer_mut()
        .sideband_read_line(now, idx * 128)
        .expect("sideband read");
    assert!(ch
        .channel
        .buffer_mut()
        .sideband_write_line(idx * 128, &bytes, true));
}

#[test]
fn image_format_version_is_three() {
    assert_eq!(SNAPSHOT_VERSION, 3);
}

#[test]
fn mid_steady_image_matches_its_golden_digest() {
    let mut sys = traced(
        Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            SEED,
        )
        .expect("boots"),
    );
    for i in 0..6u64 {
        sys.store_line(0x10_0000 + i * 128, CacheLine::patterned(SEED * 31 + i))
            .unwrap();
    }
    for i in 0..4u64 {
        sys.submit_load(0x10_0000 + i * 128).unwrap();
    }
    check("mid-steady", &sys.snapshot(), 69_318, 0x4d91_7ddf);
}

#[test]
fn mid_fault_image_matches_its_golden_digest() {
    let mut sys = spare_pair();
    let base = slot_base(&sys, 2);
    for i in 0..8u64 {
        sys.store_line(base + i * 128, CacheLine::patterned(SEED * 7 + i))
            .unwrap();
    }
    poison_line(&mut sys, 0);
    poison_line(&mut sys, 1);
    let _ = sys.load_line(base);
    let _ = sys.load_line(base + 128);
    check("mid-fault", &sys.snapshot(), 62_051, 0xb523_96d3);
}

#[test]
fn mid_evacuation_image_matches_its_golden_digest() {
    let mut sys = spare_pair();
    let base = slot_base(&sys, 2);
    for i in 0..12u64 {
        sys.store_line(base + i * 128, CacheLine::patterned(SEED * 13 + i))
            .unwrap();
    }
    sys.maintenance_pull(2).unwrap();
    assert!(sys.migration_backlog() > 0, "cut must land mid-copy");
    check("mid-evacuation", &sys.snapshot(), 62_297, 0x6437_a0e8);
}

#[test]
fn post_epow_image_matches_its_golden_digest() {
    let nvdimm_small = MemoryPopulation {
        kind: MemoryKind::NvdimmN,
        dimm_capacity: 512 << 10,
        dimms: 2,
    };
    let mut sys = traced(
        Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small),
            SEED,
        )
        .expect("boots"),
    );
    let nv_base = sys.memory_map().nonvolatile_regions()[0].base;
    for i in 0..4u64 {
        sys.store_line(nv_base + i * 128, CacheLine::patterned(SEED + i))
            .unwrap();
    }
    sys.store_line(0x10_0000, CacheLine::patterned(SEED ^ 0xDEAD))
        .unwrap();
    let epow = sys.epow();
    sys.power_cut(epow.done_at + SimTime::from_us(1));
    assert!(!sys.powered(), "cut must land powered off");
    check("post-EPOW", &sys.snapshot(), 1_110_520, 0x34d5_f1c1);
}

/// A pMTJ STT-MRAM ConTutto in slot 0 beside six CDIMMs: stores spread
/// over both DIMM ports, one line rewritten until its wear count is
/// nonzero on the device, and a flip storm armed on the MRAM slot so
/// the image holds live injector state.
#[test]
fn mram_image_matches_its_golden_digest() {
    let mut sys = traced(
        Power8System::boot(
            layouts::one_contutto_six_cdimm(
                ContuttoConfig::base(),
                MemoryPopulation::mram_512mb(MramGeneration::Pmtj),
            ),
            SEED,
        )
        .expect("boots"),
    );
    let base = slot_base(&sys, 0);
    let now = sys.now();
    let storm = FaultAction::FlipStorm {
        slot: 0,
        seed: SEED,
        flips: 6,
        window: SimTime::from_us(40),
        hot_start: 0,
        hot_len: 4096,
        stuck: 2,
    };
    assert_eq!(sys.apply_fault_action(now, &storm), FaultOutcome::Applied);
    for i in 0..8u64 {
        sys.store_line(base + i * 128, CacheLine::patterned(SEED * 17 + i))
            .unwrap();
    }
    for round in 0..5u64 {
        sys.store_line(base + 0x1000, CacheLine::patterned(SEED + round))
            .unwrap();
    }
    let _ = sys.load_line(base + 128);
    check("mram", &sys.snapshot(), 69_443, 0x7b5d_4aa5);
}

/// A mirrored pair with admission, retry budget, breakers, hedging and
/// brownout all configured and a media-fault storm armed on the
/// mirror. Commands issued straight on the Centaur channel leave a raw
/// completion and an uncollected tracked result in its queues.
fn overload_system() -> Power8System {
    let mut sys = traced(
        Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            SEED,
            FailoverMode::Mirrored {
                primary: 2,
                mirror: 4,
            },
        )
        .expect("boots"),
    );
    sys.set_mlp_window(16);
    let mut cfg = OverloadConfig::protective();
    cfg.hedge = Some(HedgeConfig {
        after: SimTime::from_ns(300),
        max_in_flight: 8,
    });
    sys.set_overload_config(cfg);
    let base = slot_base(&sys, 2);
    for i in 0..16u64 {
        let id = sys
            .submit_store(base + i * 128, CacheLine::patterned(SEED + i))
            .unwrap();
        sys.wait_req(id).unwrap();
    }
    let now = sys.now();
    for action in [
        FaultAction::FlipStorm {
            slot: 4,
            seed: SEED,
            flips: 8,
            window: SimTime::from_us(50),
            hot_start: 0,
            hot_len: 4096,
            stuck: 2,
        },
        FaultAction::SlowChannel {
            slot: 2,
            window: SimTime::from_us(50),
        },
    ] {
        assert_eq!(sys.apply_fault_action(now, &action), FaultOutcome::Applied);
    }
    let ids: Vec<_> = (0..16u64)
        .map(|i| sys.submit_load(base + i * 128).unwrap())
        .collect();
    sys.wait_req(ids[12]).unwrap();
    assert!(sys.outstanding_reqs() > 0, "cut must land with reads live");
    let ch = &mut sys.channel_mut(0).expect("Centaur slot is live").channel;
    ch.submit(CommandOp::Read { addr: 0 }).unwrap();
    ch.enqueue_command(CommandOp::Read { addr: 128 });
    let until = ch.now() + SimTime::from_us(2);
    ch.run_until(until);
    sys
}

#[test]
fn overload_image_matches_its_golden_digest() {
    check(
        "overload",
        &overload_system().snapshot(),
        77_297,
        0xf4b2_e714,
    );
}

/// Two encodings no system image holds: the metrics registry (counters,
/// latency summaries, histograms) and bare `MemCommand`s.
#[test]
fn metrics_and_command_encodings_match_their_golden_digest() {
    let mut out = Vec::new();
    overload_system().metrics().persist(&mut out);
    let line = CacheLine::patterned(SEED);
    let tag = |t| Tag::new(t).unwrap();
    vec![
        MemCommand {
            tag: tag(1),
            op: CommandOp::Read { addr: 0x80 },
        },
        MemCommand {
            tag: tag(2),
            op: CommandOp::Write {
                addr: 0x100,
                data: line,
            },
        },
        MemCommand {
            tag: tag(3),
            op: CommandOp::Rmw {
                addr: 0x180,
                op: RmwOp::PartialWrite { sector_mask: 0x5 },
                data: line,
            },
        },
    ]
    .persist(&mut out);
    check("metrics+commands", &out, 4_461, 0x6d1b_2b73);
}
