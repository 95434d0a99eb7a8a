//! Integration: the degradation ladder end to end — typed timeouts,
//! tag quarantine and reclamation, retry escalation to retrain, and
//! deterministic replay of it all under seed sweeps.

use contutto_bench::faults::{run_scenario, CampaignConfig, Outcome, Scenario};
use contutto_system::contutto::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_system::dmi::protocol::LinkEndpointConfig;
use contutto_system::dmi::{BitErrorInjector, CacheLine, CommandOp, DmiError};
use contutto_system::power8::channel::{ChannelConfig, DmiChannel, RetryPolicy};
use contutto_system::sim::SimTime;

fn clean_contutto() -> DmiChannel {
    DmiChannel::new(
        ChannelConfig::contutto(),
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    )
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        op_timeout: SimTime::from_us(20),
        max_attempts: 3,
        base_backoff: SimTime::from_us(4),
        max_retrains: 1,
    }
}

// ---------------------------------------------------------- satellite 1

#[test]
fn blocking_read_preserves_other_tags_completions() {
    // Submit A, then block on B via read_line_blocking. A's completion
    // must survive in the queue — delivered exactly once, with data.
    let mut ch = clean_contutto();
    let line_a = CacheLine::patterned(77);
    ch.write_line_blocking(0, line_a).expect("write A");
    let line_b = CacheLine::patterned(88);
    ch.write_line_blocking(128, line_b).expect("write B");

    let tag_a = ch.submit(CommandOp::Read { addr: 0 }).expect("submit A");
    let (got_b, _) = ch.read_line_blocking(128).expect("read B");
    assert_eq!(got_b, line_b);

    // A completed while we waited on B (same memory, same latency) —
    // it must still be queued, exactly once.
    let drained = ch.take_completions();
    let a_completions: Vec<_> = drained.iter().filter(|c| c.tag == tag_a).collect();
    assert_eq!(a_completions.len(), 1, "A delivered exactly once");
    assert_eq!(a_completions[0].data, Some(line_a), "A's data intact");
    assert_eq!(ch.tags_available(), 32);
}

#[test]
fn interleaved_blocking_reads_both_correct() {
    // Two in-flight tags, waited on in the opposite order of
    // submission: both reads must return their own line.
    let mut ch = clean_contutto();
    let line0 = CacheLine::patterned(1);
    let line1 = CacheLine::patterned(2);
    ch.write_line_blocking(0, line0).expect("write 0");
    ch.write_line_blocking(128, line1).expect("write 1");

    let tag0 = ch.submit(CommandOp::Read { addr: 0 }).expect("submit 0");
    let (got1, _) = ch.read_line_blocking(128).expect("read 1");
    assert_eq!(got1, line1);
    let deadline = ch.now() + SimTime::from_ms(1);
    let c0 = ch.next_completion(deadline).expect("0 completes");
    assert_eq!(c0.tag, tag0);
    assert_eq!(c0.data, Some(line0));
}

// ---------------------------------------------------------- satellite 2

#[test]
fn next_completion_deadline_is_inclusive() {
    // Measure the exact completion time of a read, then replay the
    // identical schedule in a fresh channel with the deadline set to
    // exactly that instant: the completion must still be delivered.
    let exact = {
        let mut ch = clean_contutto();
        ch.submit(CommandOp::Read { addr: 0 }).expect("submit");
        let c = ch.next_completion(SimTime::from_ms(1)).expect("completes");
        c.completed_at
    };
    let mut ch = clean_contutto();
    ch.submit(CommandOp::Read { addr: 0 }).expect("submit");
    let c = ch.next_completion(exact);
    assert!(
        c.is_some(),
        "completion arriving exactly at the deadline is delivered"
    );
    // One slot earlier must miss it.
    let mut ch = clean_contutto();
    ch.submit(CommandOp::Read { addr: 0 }).expect("submit");
    assert!(ch.next_completion(exact - SimTime::from_ns(2)).is_none());
}

// ---------------------------------------------------------- satellite 3

#[test]
fn invalid_endpoint_configs_are_typed_errors() {
    let mut cfg = LinkEndpointConfig::host();
    cfg.ack_timeout_frames = 0;
    assert!(matches!(cfg.validate(), Err(DmiError::Config(_))));

    let mut cfg = LinkEndpointConfig::host();
    cfg.replay_buffer_frames = cfg.ack_timeout_frames as usize;
    assert!(matches!(cfg.validate(), Err(DmiError::Config(_))));

    let mut ch_cfg = ChannelConfig::contutto();
    ch_cfg.buffer_endpoint.ack_timeout_frames = 0;
    let built = DmiChannel::try_new(
        ch_cfg,
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    assert!(matches!(built, Err(DmiError::Config(_))));
}

// ------------------------------------------------- the ladder, end to end

#[test]
fn dead_link_times_out_typed_and_recovers_tags() {
    let mut cfg = ChannelConfig::contutto();
    cfg.down_errors = BitErrorInjector::bernoulli(1.0, 9);
    cfg.up_errors = BitErrorInjector::bernoulli(1.0, 10);
    let mut ch = DmiChannel::new(
        cfg,
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    ch.set_retry_policy(fast_policy());

    let err = ch.read_line_blocking(0).expect_err("link is dead");
    assert!(matches!(err, DmiError::Timeout { .. }), "{err}");
    assert!(ch.link_retrains() >= 1, "ladder escalated to retrain");
    assert!(ch.retries_scheduled() >= 1, "ladder retried first");

    // Quarantined tags age back into the pool within 2x the op
    // timeout even though no response will ever arrive.
    ch.run_until(ch.now() + fast_policy().op_timeout * 2 + SimTime::from_us(1));
    assert_eq!(ch.quarantined_tags(), 0, "quarantine drained");
    assert_eq!(ch.tags_available(), 32, "no tag leaked");

    // Heal the link: traffic flows again on the same channel, proving
    // the reclaimed tags are reusable.
    ch.set_down_injector(BitErrorInjector::never());
    ch.set_up_injector(BitErrorInjector::never());
    let line = CacheLine::patterned(5);
    ch.write_line_blocking(0, line).expect("healed write");
    let (back, _) = ch.read_line_blocking(0).expect("healed read");
    assert_eq!(back, line);
    assert_eq!(ch.tags_available(), 32);
}

#[test]
fn timeout_retry_ladder_counts_and_recovers() {
    // A 30 us downstream blackout outlasts the 20 us op timeout: the
    // first attempt is abandoned (tag quarantined), the retried
    // attempt succeeds after the window, and the late response to the
    // abandoned command releases its quarantined tag.
    let mut cfg = ChannelConfig::contutto();
    cfg.down_errors = BitErrorInjector::at_frames((200..15_200).collect());
    let mut ch = DmiChannel::new(
        cfg,
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    ch.set_retry_policy(fast_policy());

    // Several lines so traffic is in flight when the window opens.
    for i in 0..4u64 {
        let line = CacheLine::patterned(42 + i);
        ch.write_line_blocking(i * 128, line)
            .expect("write retried");
        let (back, _) = ch.read_line_blocking(i * 128).expect("read");
        assert_eq!(back, line, "retried op {i} is byte-identical");
    }
    assert!(ch.retries_scheduled() >= 1, "a retry was scheduled");
    assert_eq!(ch.link_retrains(), 0, "retry alone sufficed");
    assert!(ch.tags_reclaimed() >= 1, "quarantined tag reclaimed");
    ch.run_until(ch.now() + fast_policy().op_timeout * 2 + SimTime::from_us(1));
    assert_eq!(ch.tags_available(), 32);
}

// ---------------------------------------------------------- satellite 4

#[test]
fn ladder_seed_sweep_is_byte_identical() {
    for seed in 1..=5u64 {
        let a = run_scenario(Scenario::RetrainLadder, seed, 3);
        let b = run_scenario(Scenario::RetrainLadder, seed, 3);
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed}");
        assert_eq!(a.record().outcome, b.record().outcome, "seed {seed}");
        assert_eq!(a.record().outcome, Outcome::Degraded, "seed {seed}");
        assert!(a.record().retrains >= 1, "seed {seed} escalated to retrain");
        assert!(a.record().reclaimed >= 1, "seed {seed} reclaimed tags");
        assert_eq!(a.record().tags_free_after, 32, "seed {seed} leaked no tags");
    }
}

#[test]
fn scrub_seed_sweep_is_byte_identical() {
    // Media-RAS determinism: with patrol scrub enabled, the same seed
    // must replay to a byte-identical trace fingerprint — the scrub
    // scheduler, fault injector and ECC pipeline contain no hidden
    // nondeterminism. Eight seeds, each run twice.
    use contutto_bench::media;
    for seed in 1..=8u64 {
        let scenario = media::Scenario {
            media: media::Media::Dram,
            scrub: true,
        };
        let a = media::run_scenario(scenario, seed, 8);
        let b = media::run_scenario(scenario, seed, 8);
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed}");
        assert_eq!(a.record().outcome, b.record().outcome, "seed {seed}");
        assert_eq!(a.record().corrected, b.record().corrected, "seed {seed}");
        assert_eq!(
            a.record().uncorrectable,
            b.record().uncorrectable,
            "seed {seed}"
        );
        assert_eq!(
            a.record().scrub_passes,
            b.record().scrub_passes,
            "seed {seed}"
        );
        assert!(!a.is_violation(), "seed {seed}: {}", a.record().outcome);
        assert!(a.record().scrub_passes > 0, "seed {seed}: scrub must run");
    }
}

#[test]
fn campaign_smoke_is_deterministic_and_violation_free() {
    let cfg = CampaignConfig::smoke();
    let runs_a = contutto_bench::faults::run_campaign(&cfg);
    let runs_b = contutto_bench::faults::run_campaign(&cfg);
    assert!(runs_a.violations().is_empty());
    let fps = |r: &contutto_bench::faults::CampaignReport| {
        r.runs.iter().map(|x| x.fingerprint).collect::<Vec<_>>()
    };
    assert_eq!(fps(&runs_a), fps(&runs_b), "campaign replays identically");
    assert_eq!(runs_a.render_table(), runs_b.render_table());
}

// ---------------------------------------------------------- PR-4: channel failover

#[test]
fn budget_exhaustion_without_spare_is_contained_not_fatal() {
    // A noisy channel blows the FSP error budget mid-workload with no
    // redundancy configured: the verdict must be contained — typed
    // errors on every subsequent access — never a panic.
    use contutto_system::power8::firmware::layouts;
    use contutto_system::power8::system::{Power8System, SystemError};
    use contutto_system::power8::FspError;

    let mut sys = Power8System::boot(
        layouts::failover_pair(
            contutto_system::contutto::ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        ),
        13,
    )
    .unwrap();
    let base = sys
        .memory_map()
        .regions()
        .iter()
        .find(|r| r.channel == 2)
        .unwrap()
        .base;
    let written: Vec<_> = (0..12u64)
        .map(|i| (base + i * 128, CacheLine::patterned(300 + i)))
        .collect();
    for (addr, line) in &written {
        sys.store_line(*addr, *line).unwrap();
    }
    // Rot four lines in place: each demand read of one is an
    // unrecovered machine check charged against the channel's budget
    // of 3, so the fourth read deconfigures the slot.
    for i in 0..4u64 {
        let ch = sys.channel_mut(2).unwrap();
        let now = ch.channel.now();
        let (bytes, _) = ch
            .channel
            .buffer_mut()
            .sideband_read_line(now, i * 128)
            .unwrap();
        ch.channel
            .buffer_mut()
            .sideband_write_line(i * 128, &bytes, true);
    }
    let mut poisoned = 0;
    let mut deconfigured = 0;
    for (addr, _) in &written {
        match sys.load_line(*addr) {
            Ok(_) => {}
            Err(SystemError::Dmi(DmiError::Poisoned { .. })) => poisoned += 1,
            Err(SystemError::Fsp(FspError::ChannelDeconfigured { channel: 2 })) => {
                deconfigured += 1
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(poisoned, 4, "every rotted read surfaced as typed poison");
    assert_eq!(
        sys.fsp().deconfigured_channels(),
        &[2],
        "budget exhaustion deconfigured the victim"
    );
    assert!(deconfigured > 0, "later accesses see the typed FSP verdict");
    // The verdict is sticky and still typed.
    assert!(matches!(
        sys.load_line(base),
        Err(SystemError::Fsp(FspError::ChannelDeconfigured {
            channel: 2
        }))
    ));
}

#[test]
fn budget_exhaustion_with_spare_loses_no_line() {
    // The same noisy channel, but a hot spare is configured: the FSP
    // verdict triggers quiesce → evacuate → remap, and afterwards every
    // line ever written is either byte-identical or explicit poison.
    use contutto_system::power8::failover::FailoverMode;
    use contutto_system::power8::firmware::layouts;
    use contutto_system::power8::system::{Power8System, SystemError};

    let mut sys = Power8System::boot_with_failover(
        layouts::failover_pair(
            contutto_system::contutto::ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        ),
        13,
        FailoverMode::Spare { spare: 4 },
    )
    .unwrap();
    let base = sys
        .memory_map()
        .regions()
        .iter()
        .find(|r| r.channel == 2)
        .unwrap()
        .base;
    let written: Vec<_> = (0..12u64)
        .map(|i| (base + i * 128, CacheLine::patterned(600 + i)))
        .collect();
    for (addr, line) in &written {
        sys.store_line(*addr, *line).unwrap();
    }
    for i in 0..4u64 {
        let ch = sys.channel_mut(2).unwrap();
        let now = ch.channel.now();
        let (bytes, _) = ch
            .channel
            .buffer_mut()
            .sideband_read_line(now, i * 128)
            .unwrap();
        ch.channel
            .buffer_mut()
            .sideband_write_line(i * 128, &bytes, true);
    }
    // The read pass blows the budget mid-stream; accesses after the
    // failover are served through the spare (demand-pulled ahead of
    // the copy frontier where needed).
    for (addr, _) in &written {
        let _ = sys.load_line(*addr);
    }
    assert_eq!(sys.fsp().deconfigured_channels(), &[2]);
    assert_eq!(sys.failover_stats().failovers, 1);
    sys.complete_migration();
    assert_eq!(sys.migration_backlog(), 0);
    let mut clean = 0;
    let mut poisoned = 0;
    for (addr, line) in &written {
        match sys.load_line(*addr) {
            Ok((back, _)) => {
                assert_eq!(back, *line, "line {addr:#x} must be byte-identical");
                clean += 1;
            }
            Err(SystemError::Dmi(DmiError::Poisoned { .. })) => poisoned += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(clean, 8, "every untouched line survived byte-identical");
    assert_eq!(poisoned, 4, "rotted lines travelled as explicit poison");
    assert!(
        !sys.fsp().is_deconfigured(4),
        "inherited poison must not charge the spare"
    );
}

#[test]
fn failover_campaign_smoke_is_deterministic_and_violation_free() {
    use contutto_bench::failover;
    let cfg = failover::CampaignConfig::smoke();
    let a = failover::run_campaign(&cfg);
    let b = failover::run_campaign(&cfg);
    assert!(a.violations().is_empty(), "{}", a.violations().join("\n"));
    let fps =
        |r: &failover::CampaignReport| r.runs.iter().map(|x| x.fingerprint).collect::<Vec<_>>();
    assert_eq!(fps(&a), fps(&b), "campaign replays identically");
    assert_eq!(a.render_table(), b.render_table());
}
