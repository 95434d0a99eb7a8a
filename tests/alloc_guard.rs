//! Allocation guard for the link and the command path: recording a
//! trace event allocates nothing, an idle frame slot stepped on a
//! traced ConTutto channel allocates nothing (clean frames ride the
//! wire as frames, not as freshly serialized bytes), a long idle
//! stretch passed with `run_until` allocates a few blocks in total, a
//! closed loop of pipelined reads allocates at most two blocks per
//! read, and a snapshot encodes its sections in place in the image
//! instead of copying each one through buffers of its own.
//!
//! A counting global allocator tallies heap blocks and bytes per
//! thread, so the tests in this binary can run in parallel without
//! seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use contutto_system::contutto::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_system::dmi::CacheLine;
use contutto_system::power8::channel::{ChannelConfig, DmiChannel};
use contutto_system::power8::firmware::layouts;
use contutto_system::power8::Power8System;
use contutto_system::sim::{LinkDir, SimRng, SimTime, TraceEvent, Tracer};

struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one block of `size` bytes; a `realloc` counts as a fresh
/// block of its new size.
fn tally(size: usize) {
    BLOCKS.with(|b| b.set(b.get() + 1));
    BYTES.with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a pair of thread-local counters with no destructor,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap blocks and bytes this thread allocated while running `f`.
fn heap_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (BLOCKS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        BLOCKS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Heap blocks this thread allocated while running `f`.
fn blocks_during(f: impl FnOnce()) -> u64 {
    heap_during(f).0
}

#[test]
fn recording_into_a_full_ring_allocates_nothing() {
    const RING: usize = 1 << 12;
    let tracer = Tracer::ring(RING);
    for tag in 0..RING {
        tracer.record(TraceEvent::TagAcquire { tag: tag as u8 });
    }
    let blocks = blocks_during(|| {
        for i in 0..10_000u64 {
            tracer.advance(SimTime::from_ps(i));
            tracer.record(TraceEvent::FrameTx {
                dir: LinkDir::Downstream,
                seq: (i % 128) as u8,
                replayed: i % 7 == 0,
            });
            tracer.record(TraceEvent::MigrationProgress {
                from: 2,
                to: 4,
                migrated: i,
                remaining: u64::MAX - i,
            });
        }
    });
    assert_eq!(tracer.total_recorded(), RING as u64 + 20_000);
    assert_eq!(blocks, 0, "Tracer::record allocated on a full ring");
}

const SLOTS: u64 = 10_000;

/// A traced ConTutto channel warmed up until the trace ring and every
/// queue reach their steady-state capacity.
fn warm_traced_channel() -> (DmiChannel, Tracer) {
    let mut ch = DmiChannel::new(
        ChannelConfig::contutto(),
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    let tracer = ch.enable_tracing(1 << 12);
    for _ in 0..SLOTS {
        ch.step();
    }
    (ch, tracer)
}

#[test]
fn idle_slots_of_a_traced_channel_allocate_nothing() {
    let (mut ch, tracer) = warm_traced_channel();
    let recorded = tracer.total_recorded();
    let blocks = blocks_during(|| {
        for _ in 0..SLOTS {
            ch.step();
        }
    });
    assert!(
        tracer.total_recorded() - recorded >= 2 * SLOTS,
        "the channel must trace while it steps"
    );
    assert_eq!(
        blocks, 0,
        "{blocks} heap blocks over {SLOTS} stepped idle slots: a clean frame was serialized"
    );
}

#[test]
fn an_idle_run_of_a_traced_channel_is_not_serialized_frame_by_frame() {
    let (mut ch, tracer) = warm_traced_channel();
    let frame = ChannelConfig::contutto().speed.frame_time();
    let recorded = tracer.total_recorded();
    let blocks = blocks_during(|| ch.run_until(ch.now() + frame * SLOTS));
    assert_eq!(
        tracer.total_recorded() - recorded,
        4 * SLOTS,
        "every skipped slot still leaves its four frame records"
    );
    assert!(
        blocks <= 8,
        "{blocks} heap blocks over a {SLOTS}-slot idle run: the jump serialized frames"
    );
}

#[test]
fn a_pipelined_closed_loop_allocates_at_most_two_blocks_per_read() {
    const DEPTH: usize = 16;
    const LINES: u64 = 256;
    const READS: u64 = 4_000;
    let mut sys = Power8System::boot(
        layouts::single_contutto_for_latency(ContuttoConfig::base()),
        1,
    )
    .expect("boot");
    let base = sys
        .memory_map()
        .regions()
        .iter()
        .find(|r| r.channel == 2)
        .expect("the ConTutto at slot 2 is mapped")
        .base;
    for line in 0..LINES {
        sys.store_line(base + line * 128, CacheLine::patterned(line))
            .expect("prefill store");
    }
    let mut rng = SimRng::seed_from_u64(5);
    let mut in_flight = 0;
    // Completes `reads` reads, keeping the window at DEPTH throughout,
    // so the measured stretch neither fills nor drains it.
    let mut closed_loop = |sys: &mut Power8System, reads: u64| {
        let mut done = 0;
        while done < reads {
            while in_flight < DEPTH {
                sys.submit_load(base + rng.gen_below(LINES) * 128)
                    .expect("read submits");
                in_flight += 1;
            }
            for (_, res) in sys.poll() {
                assert!(res.expect("read completes").data.is_some());
                in_flight -= 1;
                done += 1;
            }
        }
    };
    closed_loop(&mut sys, READS);
    let blocks = blocks_during(|| closed_loop(&mut sys, READS));
    let per_read = blocks as f64 / READS as f64;
    assert!(
        per_read <= 2.0,
        "{blocks} heap blocks over {READS} pipelined reads at depth {DEPTH}"
    );
}

#[test]
fn a_snapshot_encodes_in_place_in_one_image_buffer() {
    let mut sys = Power8System::boot(
        layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        3,
    )
    .expect("boot");
    let mut image = Vec::new();
    let (blocks, bytes) = heap_during(|| image = sys.snapshot());
    let ratio = bytes as f64 / image.len() as f64;
    assert!(
        blocks <= 40,
        "{blocks} heap blocks for one {}-byte snapshot: sections are copied through buffers of their own",
        image.len()
    );
    assert!(
        ratio <= 3.0,
        "{bytes} heap bytes for one {}-byte snapshot ({ratio:.2}x the image)",
        image.len()
    );
}
