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
//!
//! Three more digests hold the owner states none of those seven images
//! reaches: link channels mid-replay, mid-freeze and through the
//! timeout ladder (wire injectors, corrupted frames, backlogs,
//! quarantined tags, every ladder counter); standalone owners in rare
//! states (a scrubbing controller, NVDIMMs through a truncated save, a
//! flash device dropping writes, an overflowing FSP log, breakers and a
//! retry budget past their first transitions); and a system carrying
//! inherited poison, a power budget and an active brownout.
//! Update a constant only with a change that is meant to alter the
//! image format, and bump `SNAPSHOT_VERSION` with it.

use std::cell::RefCell;
use std::rc::Rc;

use contutto_system::centaur::{Centaur, CentaurConfig};
use contutto_system::contutto::{
    ConTutto, ContuttoConfig, MemoryController, MemoryKind, MemoryPopulation,
};
use contutto_system::dmi::command::RmwOp;
use contutto_system::dmi::{BitErrorInjector, CacheLine, CommandOp, MemCommand, Tag};
use contutto_system::memdev::flash::FlashConfig;
use contutto_system::memdev::{
    DdrTimings, MemoryDevice, MramGeneration, NandFlash, NvdimmN, SAVE_COST_PER_PAGE_NJ,
};
use contutto_system::power8::channel::RetryPolicy;
use contutto_system::power8::failover::FailoverMode;
use contutto_system::power8::firmware::layouts;
use contutto_system::power8::fsp::{ServiceProcessor, Severity};
use contutto_system::power8::inject::{FaultAction, FaultOutcome};
use contutto_system::power8::overload::{
    BreakerConfig, BrownoutConfig, CircuitBreaker, RetryBudget, RetryBudgetConfig,
};
use contutto_system::power8::system::{Power8System, PowerConfig};
use contutto_system::power8::{ChannelConfig, DmiChannel, HedgeConfig, OverloadConfig};
use contutto_system::sim::snapshot::{
    crc32, crc32_reference, Persist, SnapshotImage, SNAPSHOT_VERSION,
};
use contutto_system::sim::{SimRng, SimTime};

const SEED: u64 = 3;
const TRACE_CAP: usize = 1 << 10;
/// Mutations per span width in every section of every image.
const TRIALS: usize = 3;

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

fn dram_testbed() -> Power8System {
    traced(
        Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            SEED,
        )
        .expect("boots"),
    )
}

fn mid_steady() -> Power8System {
    let mut sys = dram_testbed();
    for i in 0..6u64 {
        sys.store_line(0x10_0000 + i * 128, CacheLine::patterned(SEED * 31 + i))
            .unwrap();
    }
    for i in 0..4u64 {
        sys.submit_load(0x10_0000 + i * 128).unwrap();
    }
    sys
}

#[test]
fn mid_steady_image_matches_its_golden_digest() {
    check("mid-steady", &mid_steady().snapshot(), 69_318, 0x4d91_7ddf);
}

fn mid_fault() -> Power8System {
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
    sys
}

#[test]
fn mid_fault_image_matches_its_golden_digest() {
    check("mid-fault", &mid_fault().snapshot(), 62_051, 0xb523_96d3);
}

fn mid_evacuation() -> Power8System {
    let mut sys = spare_pair();
    let base = slot_base(&sys, 2);
    for i in 0..12u64 {
        sys.store_line(base + i * 128, CacheLine::patterned(SEED * 13 + i))
            .unwrap();
    }
    sys.maintenance_pull(2).unwrap();
    assert!(sys.migration_backlog() > 0, "cut must land mid-copy");
    sys
}

#[test]
fn mid_evacuation_image_matches_its_golden_digest() {
    check(
        "mid-evacuation",
        &mid_evacuation().snapshot(),
        62_297,
        0x6437_a0e8,
    );
}

fn nvdimm_testbed() -> Power8System {
    let nvdimm_small = MemoryPopulation {
        kind: MemoryKind::NvdimmN,
        dimm_capacity: 512 << 10,
        dimms: 2,
    };
    traced(
        Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small),
            SEED,
        )
        .expect("boots"),
    )
}

fn post_epow() -> Power8System {
    let mut sys = nvdimm_testbed();
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
    sys
}

#[test]
fn post_epow_image_matches_its_golden_digest() {
    check("post-EPOW", &post_epow().snapshot(), 1_110_520, 0x34d5_f1c1);
}

fn mram_testbed() -> Power8System {
    traced(
        Power8System::boot(
            layouts::one_contutto_six_cdimm(
                ContuttoConfig::base(),
                MemoryPopulation::mram_512mb(MramGeneration::Pmtj),
            ),
            SEED,
        )
        .expect("boots"),
    )
}

/// A pMTJ STT-MRAM ConTutto in slot 0 beside six CDIMMs: stores spread
/// over both DIMM ports, one line rewritten until its wear count is
/// nonzero on the device, and a flip storm armed on the MRAM slot so
/// the image holds live injector state.
fn mram() -> Power8System {
    let mut sys = mram_testbed();
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
    sys
}

#[test]
fn mram_image_matches_its_golden_digest() {
    check("mram", &mram().snapshot(), 69_443, 0x7b5d_4aa5);
}

/// A mirrored pair with admission, retry budget, breakers, hedging and
/// brownout all configured and a media-fault storm armed on the
/// mirror. Commands issued straight on the Centaur channel leave a raw
/// completion and an uncollected tracked result in its queues.
fn mirrored_pair() -> Power8System {
    traced(
        Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            SEED,
            FailoverMode::Mirrored {
                primary: 2,
                mirror: 4,
            },
        )
        .expect("boots"),
    )
}

fn overload_system() -> Power8System {
    let mut sys = mirrored_pair();
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

fn one_token_budget() -> RetryBudget {
    RetryBudget::new(RetryBudgetConfig {
        refill_per_success_milli: 100,
        burst: 1,
    })
}

fn ladder(op_timeout: SimTime, max_attempts: u32, max_retrains: u32) -> RetryPolicy {
    RetryPolicy {
        op_timeout,
        max_attempts,
        base_backoff: op_timeout / 2,
        max_retrains,
    }
}

/// Channel images cut slot by slot and microsecond by microsecond
/// through wire errors, a blackout and a too-short ladder: replay and
/// freeze states, backlogged payloads, corrupted-frame counts, both
/// injector kinds, quarantined tags and every ladder counter.
#[test]
fn recovering_channel_images_match_their_golden_digest() {
    let mut out = Vec::new();
    let mut cfg = ChannelConfig::centaur();
    cfg.down_errors = BitErrorInjector::at_frames(vec![3, 40, 41, 90]);
    let mut ch = DmiChannel::new(
        cfg,
        Box::new(Centaur::new(CentaurConfig::optimized(), 8 << 30)),
    );
    ch.enable_tracing(64);
    ch.set_retry_policy(ladder(SimTime::from_us(3), 2, 1));
    ch.set_retry_budget(Some(Rc::new(RefCell::new(one_token_budget()))));
    for i in 0..6u64 {
        ch.enqueue_command(CommandOp::Write {
            addr: i * 128,
            data: CacheLine::patterned(i),
        });
    }
    for _ in 0..60 {
        ch.step();
        ch.snapshot_state(&mut out);
    }
    // Upstream blackout: timeouts, denied retries, retrains, an
    // aborted RMW and a dropped deadline.
    ch.set_up_injector(BitErrorInjector::bernoulli(1.0, SEED));
    ch.enqueue_command(CommandOp::Rmw {
        addr: 0x3000,
        op: RmwOp::AtomicAdd,
        data: CacheLine::patterned(1),
    });
    for i in 0..4u64 {
        ch.enqueue_command(CommandOp::Read {
            addr: 0x8000 + i * 128,
        });
    }
    let soon = ch.now() + SimTime::from_ns(200);
    ch.enqueue_command_deadline(CommandOp::Read { addr: 0x9000 }, Some(soon));
    for k in 0..40u64 {
        let t = ch.now() + SimTime::from_us(1);
        ch.run_until(t);
        if k % 4 == 0 {
            ch.snapshot_state(&mut out);
        }
    }
    ch.set_up_injector(BitErrorInjector::never());
    for _ in 0..30 {
        let t = ch.now() + SimTime::from_us(1);
        ch.run_until(t);
        ch.snapshot_state(&mut out);
    }
    // A clean link with a ladder shorter than a read: tags time out
    // into quarantine and their late responses arrive stale.
    ch.set_retry_policy(ladder(SimTime::from_ns(100), 3, 0));
    ch.set_retry_budget(None);
    for i in 0..4u64 {
        ch.enqueue_command(CommandOp::Read {
            addr: 0xA000 + i * 128,
        });
    }
    for _ in 0..40 {
        let t = ch.now() + SimTime::from_ns(100);
        ch.run_until(t);
        ch.snapshot_state(&mut out);
    }
    assert!(ch.stale_responses() > 0 && ch.rmw_aborts() > 0 && ch.deadline_drops() > 0);
    // A ConTutto buffer endpoint freezes where Centaur's replays.
    let mut cfg = ChannelConfig::contutto();
    cfg.down_errors = BitErrorInjector::at_frames(vec![5, 6, 30]);
    cfg.up_errors = BitErrorInjector::at_frames(vec![8, 31]);
    let mut ct = DmiChannel::new(
        cfg,
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    for i in 0..4u64 {
        ct.enqueue_command(CommandOp::Write {
            addr: i * 128,
            data: CacheLine::patterned(i),
        });
    }
    for _ in 0..80 {
        ct.step();
        ct.snapshot_state(&mut out);
    }
    check("recovering channels", &out, 2_580_259, 0xfcec_5e52);
}

/// Owners in states no system image reaches, imaged one after another.
#[test]
fn rare_owner_states_match_their_golden_digest() {
    let mut out = Vec::new();
    let mut mc = MemoryController::new(MemoryKind::Ddr3Dram, 1 << 28);
    mc.enable_scrub_at(SimTime::from_us(5), SimTime::from_us(50));
    mc.write_line(SimTime::ZERO, 0x80, &[7u8; 128]);
    mc.snapshot_state(&mut out);
    // A finite supercap runs out three pages into the save.
    let cap = 256 << 10;
    let mut nv = NvdimmN::new(cap, DdrTimings::ddr3_1600());
    nv.set_supercap_budget_nj(3 * SAVE_COST_PER_PAGE_NJ);
    nv.write(SimTime::ZERO, 0, &[9u8; 256]);
    nv.snapshot_state(&mut out);
    let done = nv.power_loss(SimTime::from_us(1));
    nv.snapshot_state(&mut out);
    let _ = nv.power_restore(done + SimTime::from_ms(1));
    nv.snapshot_state(&mut out);
    let mut whole = NvdimmN::new(cap, DdrTimings::ddr3_1600());
    whole.write(SimTime::ZERO, 0, &[5u8; 128]);
    let done = whole.power_loss(SimTime::from_us(1));
    whole.snapshot_state(&mut out);
    let _ = whole.power_restore(done + SimTime::from_ms(10));
    whole.snapshot_state(&mut out);
    // One program/erase cycle of endurance: the block goes bad and
    // later writes to it drop.
    let mut fc = FlashConfig::slc();
    fc.endurance_cycles = 1;
    let mut flash = NandFlash::new(1 << 20, fc);
    for _ in 0..4 {
        flash.write(SimTime::ZERO, 0, &[1u8; 4096]);
    }
    assert!(flash.dropped_writes() > 0);
    flash.snapshot_state(&mut out);
    let mut fsp = ServiceProcessor::with_log_capacity(2, 3);
    for i in 0..5u64 {
        fsp.log(SimTime::from_ns(i), 1, Severity::Info, "info");
    }
    fsp.log(SimTime::from_ns(9), 2, Severity::Unrecovered, "bad");
    fsp.note_breaker(SimTime::from_ns(10), 2, true);
    fsp.snapshot_state(&mut out);
    let bcfg = BreakerConfig {
        failure_threshold: 1,
        open_for: SimTime::from_ns(10),
        probe_budget: 1,
        close_after: 2,
        ..BreakerConfig::default()
    };
    let mut breaker = CircuitBreaker::new(bcfg);
    breaker.on_failure(SimTime::from_ns(5));
    breaker.snapshot_state(&mut out);
    breaker.admit(SimTime::from_ns(20));
    breaker.snapshot_state(&mut out);
    breaker.on_success();
    breaker.snapshot_state(&mut out);
    let mut counting = CircuitBreaker::new(BreakerConfig {
        failure_threshold: 3,
        ..bcfg
    });
    counting.on_failure(SimTime::from_ns(5));
    counting.snapshot_state(&mut out);
    let mut budget = one_token_budget();
    budget.try_spend();
    budget.try_spend();
    budget.snapshot_state(&mut out);
    check("rare owners", &out, 1_110_293, 0x28ec_bc89);
}

/// A spare pair that evacuated two poisoned lines, runs on a power
/// budget, and browned out with scrub stretched on the spare.
fn browned_out() -> Power8System {
    let mut sys = spare_pair();
    sys.configure_power(PowerConfig::budgeted(1 << 30, 1 << 20));
    let base = slot_base(&sys, 2);
    for i in 0..8u64 {
        sys.store_line(base + i * 128, CacheLine::patterned(SEED * 7 + i))
            .unwrap();
    }
    poison_line(&mut sys, 0);
    poison_line(&mut sys, 1);
    sys.maintenance_pull(2).unwrap();
    sys.complete_migration();
    let now = sys.now();
    let scrub = FaultAction::ScrubOn {
        slot: 4,
        interval: SimTime::from_us(20),
    };
    assert_eq!(sys.apply_fault_action(now, &scrub), FaultOutcome::Applied);
    let mut cfg = OverloadConfig::protective();
    cfg.brownout = Some(BrownoutConfig {
        queue_high: 2,
        queue_low: 1,
        ..BrownoutConfig::default()
    });
    sys.set_overload_config(cfg);
    sys.set_mlp_window(32);
    let b0 = slot_base(&sys, 0);
    for i in 0..24u64 {
        let _ = sys.submit_load(b0 + i * 128);
    }
    let _ = sys.poll();
    assert!(sys.brownout_active());
    sys
}

#[test]
fn browned_out_system_image_matches_its_golden_digest() {
    check(
        "browned out",
        &browned_out().snapshot(),
        78_983,
        0x275f_5143,
    );
}

/// Every section frame of an image: `(frame start, payload start,
/// frame end)`. A frame is `crc32 ‖ name_len ‖ name ‖ payload_len ‖
/// payload`, the CRC over everything after it.
fn section_frames(image: &[u8]) -> Vec<(usize, usize, usize)> {
    SnapshotImage::boundaries(image)
        .windows(2)
        .map(|cut| {
            let name_len = u16::from_le_bytes([image[cut[0] + 4], image[cut[0] + 5]]);
            (cut[0], cut[0] + 4 + 2 + usize::from(name_len) + 8, cut[1])
        })
        .collect()
}

/// A few stores and loads across the memory map, then a drain: what a
/// restored system must survive.
fn short_load(sys: &mut Power8System) {
    let bases: Vec<u64> = sys.memory_map().regions().iter().map(|r| r.base).collect();
    for (i, base) in (0u64..).zip(bases.into_iter().take(3)) {
        let _ = sys.store_line(base + i * 128, CacheLine::patterned(i));
        let _ = sys.load_line(base + i * 128);
        let _ = sys.submit_load(base);
    }
    let _ = sys.drain();
}

/// The decoders behind the CRC: each pinned system image gets, in every
/// section, one 1-, 2-, 4- and 8-byte span of its payload overwritten
/// at a seeded offset and the section's CRC resealed, so the framing
/// lets the bytes through. Restoring onto a fresh twin must end in
/// `Ok` or a typed error, and a system that restores must then run a
/// short load, all without a panic.
#[test]
fn resealed_section_mutations_restore_typed_and_run_clean() {
    type Build = fn() -> Power8System;
    let scenarios: [(&str, Build, Build); 7] = [
        ("mid-steady", mid_steady, dram_testbed),
        ("mid-fault", mid_fault, spare_pair),
        ("mid-evacuation", mid_evacuation, spare_pair),
        ("post-EPOW", post_epow, nvdimm_testbed),
        ("mram", mram, mram_testbed),
        ("overload", overload_system, mirrored_pair),
        ("browned out", browned_out, spare_pair),
    ];
    let mut rng = SimRng::seed_from_u64(SEED);
    let (mut restored, mut refused) = (0, 0);
    let mut panics = Vec::new();
    for (name, build, twin) in scenarios {
        let image = build().snapshot();
        for (frame, payload, end) in section_frames(&image) {
            for width in [1, 2, 4, 8].repeat(TRIALS) {
                if end - payload < width {
                    continue;
                }
                let at = payload + rng.gen_below((end - payload - width + 1) as u64) as usize;
                let mut bad = image.clone();
                for byte in &mut bad[at..at + width] {
                    *byte ^= rng.next_u64() as u8 | 1;
                }
                let crc = crc32(&bad[frame + 4..end]);
                bad[frame..frame + 4].copy_from_slice(&crc.to_le_bytes());
                let trial = std::panic::catch_unwind(|| {
                    let mut sys = twin();
                    let outcome = sys.restore(&bad);
                    if outcome.is_ok() {
                        short_load(&mut sys);
                    }
                    outcome
                });
                match trial {
                    Ok(Ok(())) => restored += 1,
                    Ok(Err(_)) => refused += 1,
                    Err(_) => panics.push(format!(
                        "{name}: bytes {at}..{} of the frame at {frame}",
                        at + width
                    )),
                }
            }
        }
    }
    assert!(panics.is_empty(), "mutations that panicked: {panics:#?}");
    assert!(
        restored > 0 && refused > 0,
        "{restored} restored, {refused} refused"
    );
}
