//! Layer probes: host cost of single lower-layer operations, measured
//! on standalone instances through their public functions, plus the
//! model's error against the paper's Table 3.
//!
//! Every probe repeats its measurement and keeps the median, so one
//! preempted repetition does not move it.

use std::time::Instant;

use contutto_centaur::{Centaur, CentaurConfig};
use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_dmi::CacheLine;
use contutto_memdev::{DdrTimings, Dram, MemoryDevice};
use contutto_power8::{ChannelConfig, DmiChannel, LatencyProbe, MeasurementLevel};
use contutto_sim::SimTime;

use crate::workloads::TRACE_RING;

/// The paper's software-level round trip through a base ConTutto
/// (Table 3), in ns.
pub const TABLE3_CONTUTTO_NS: f64 = 390.0;

/// Repetitions behind each probe's median.
const REPS: usize = 3;

/// What the probes measured, host ns unless named otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub channel_idle_slot_ns: f64,
    pub trace_idle_slot_ns: f64,
    pub trace_ns_per_record: f64,
    pub channel_read_ns: f64,
    pub channel_write_ns: f64,
    pub centaur_read_ns: f64,
    pub memdev_read_ns: f64,
    pub memdev_write_ns: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn contutto_channel() -> DmiChannel {
    DmiChannel::new(
        ChannelConfig::contutto(),
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    )
}

/// Host ns per `f(i)` over `n` calls, median of [`REPS`].
fn ns_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                for i in 0..n {
                    f(i);
                }
                start.elapsed().as_nanos() as f64 / n as f64
            })
            .collect(),
    )
}

/// Host ns per idle frame slot of a ConTutto channel, and trace
/// records per slot.
fn idle_slot(slots: u64, traced: bool) -> (f64, f64) {
    let frame = ChannelConfig::contutto().speed.frame_time();
    let runs: Vec<(f64, f64)> = (0..REPS)
        .map(|_| {
            let mut ch = contutto_channel();
            let tracer = traced.then(|| ch.enable_tracing(TRACE_RING));
            let target = ch.now() + frame * slots;
            let start = Instant::now();
            ch.run_until(target);
            let ns = start.elapsed().as_nanos() as f64;
            let stepped = ch.metrics().counter("link.down.frames_sent").max(1) as f64;
            let records = tracer.map_or(0, |t| t.total_recorded()) as f64;
            (ns / stepped, records / stepped)
        })
        .collect();
    let records = runs[0].1;
    (median(runs.into_iter().map(|r| r.0).collect()), records)
}

/// Runs every probe. `slots` idle slots are stepped per repetition.
pub fn run(slots: u64, ops: u64) -> Probes {
    let (channel_idle_slot_ns, _) = idle_slot(slots, false);
    let (trace_idle_slot_ns, records_per_slot) = idle_slot(slots, true);
    let trace_ns_per_record =
        (trace_idle_slot_ns - channel_idle_slot_ns).max(0.0) / records_per_slot.max(1e-9);

    let mut ch = contutto_channel();
    let channel_read_ns = ns_per_call(ops, |i| {
        ch.read_line_blocking((i % 64) * 128)
            .expect("probe read completes");
    });
    let channel_write_ns = ns_per_call(ops, |i| {
        ch.write_line_blocking((i % 64) * 128, CacheLine::patterned(i))
            .expect("probe write completes");
    });
    let mut cen = DmiChannel::new(
        ChannelConfig::centaur(),
        Box::new(Centaur::new(CentaurConfig::optimized(), 8 << 30)),
    );
    let centaur_read_ns = ns_per_call(ops, |i| {
        cen.read_line_blocking((i % 64) * 128)
            .expect("probe read completes");
    });

    let mut dram = Dram::new(1 << 30, DdrTimings::ddr3_1600());
    let mut now = SimTime::ZERO;
    let mut buf = [0u8; 128];
    let lines = 4096;
    let memdev_write_ns = ns_per_call(ops * 10, |i| {
        now = dram.write(now, (i % lines) * 128, &CacheLine::patterned(i).0);
    });
    let memdev_read_ns = ns_per_call(ops * 10, |i| {
        now = dram.read(now, (i % lines) * 128, &mut buf).done;
    });

    Probes {
        channel_idle_slot_ns,
        trace_idle_slot_ns,
        trace_ns_per_record,
        channel_read_ns,
        channel_write_ns,
        centaur_read_ns,
        memdev_read_ns,
        memdev_write_ns,
    }
}

/// Host ms per `boot()`, median of [`REPS`].
pub fn boot_ms(mut boot: impl FnMut()) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                boot();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// The model's error, in percent, against the paper's Table 3
/// software-level base ConTutto latency. The traffic tails have no
/// hardware reference; this is the one simulated number that does.
pub fn table3_err_pct() -> f64 {
    let ns = LatencyProbe::default()
        .measure(&mut contutto_channel(), MeasurementLevel::Software)
        .as_ns_f64();
    (ns - TABLE3_CONTUTTO_NS).abs() / TABLE3_CONTUTTO_NS * 100.0
}
