//! The four workloads: testbeds, seeded inputs, the load generators
//! that feed those inputs to `Power8System`, and the checks on what
//! comes back.
//!
//! A pass sets up (boot, inputs, prefill) several times and keeps the
//! last set-up. Its measured phase then runs in two legs. The first
//! leg completes a fixed prefix of work and stops where nothing is in
//! flight. The machine is then snapshotted into a twin a number of
//! times, and the second leg runs on for the rest of the host-time
//! budget. Finally a sample of the data is read back with `load_line`.
//! The checkpoint workload instead snapshots, boots a twin and restores
//! into it on every cycle of its measured phase.
//!
//! The prefix, and the snapshot taken at its end, do not depend on
//! host speed: the simulated results and the image size come from
//! there. A pass replayed with the first pass's unit count simulates
//! exactly the same machine. Every call into the system goes through
//! [`Spans`].
//!
//! Every host time a pass measures, each set-up, throughput window,
//! snapshot and restore, is scaled to the reference speed of
//! [`crate::reference`] with a timing of its kernel taken next to it.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use contutto_core::{ContuttoConfig, MemoryPopulation};
use contutto_dmi::CacheLine;
use contutto_power8::firmware::layouts;
use contutto_power8::system::{MemCompletion, Power8System, ReqId, SystemError};
use contutto_power8::{FailoverMode, SlotPopulation};
use contutto_sim::{MetricsRegistry, SimRng, SimTime};

use crate::reference::{Kernel, Reference};
use crate::spans::Spans;

/// Ring size of the simulator's tracer, where a workload turns it on.
/// The tracer's cost is per record; a ring that fits in the L2 cache
/// keeps the workloads from also measuring the host's cache contention.
pub const TRACE_RING: usize = 1 << 12;
/// Offered load of the open-loop workloads: 4M requests per simulated
/// second.
const OFFERED_PER_US: f64 = 4.0;
/// Per-channel in-flight window of the open-loop workloads.
const OPEN_WINDOW: usize = 16;
/// Outstanding reads of the closed loop.
const CLOSED_DEPTH: usize = 16;
/// ConTutto lines the closed loop prefills and reads.
const CLOSED_LINES: u64 = 1024;
/// Open-loop requests per checkpoint cycle.
const CYCLE_REQS: u64 = 64;
/// Throughput windows the measured phase is cut into. Short windows
/// keep each close to the reference timing that scales it.
const WINDOWS: u32 = 400;
/// Failure messages kept per pass (the count is always exact).
const MAX_FAILURE_NOTES: usize = 16;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OpenZipf,
    ClosedD16,
    WriteMirror,
    Checkpoint,
}

/// The open-loop traffic shape of a workload.
#[derive(Debug, Clone, Copy)]
struct OpenLoad {
    keys: u64,
    zipf_theta: f64,
    read_fraction: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OpenZipf,
        Workload::ClosedD16,
        Workload::WriteMirror,
        Workload::Checkpoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenZipf => "open-zipf",
            Workload::ClosedD16 => "closed-d16",
            Workload::WriteMirror => "write-mirror",
            Workload::Checkpoint => "checkpoint",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn testbed(self) -> (Vec<SlotPopulation>, FailoverMode) {
        let pair = || layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
        match self {
            Workload::OpenZipf => (pair(), FailoverMode::Spare { spare: 4 }),
            Workload::WriteMirror => (
                pair(),
                FailoverMode::Mirrored {
                    primary: 2,
                    mirror: 4,
                },
            ),
            Workload::ClosedD16 => (
                layouts::single_contutto_for_latency(ContuttoConfig::base()),
                FailoverMode::None,
            ),
            Workload::Checkpoint => (
                layouts::one_contutto_six_cdimm(
                    ContuttoConfig::base(),
                    MemoryPopulation::dram_8gb(),
                ),
                FailoverMode::None,
            ),
        }
    }

    /// Whether the simulator's tracer runs in this workload.
    pub fn sim_tracer_on(self) -> bool {
        self != Workload::ClosedD16
    }

    fn open_load(self) -> OpenLoad {
        match self {
            Workload::WriteMirror => OpenLoad {
                keys: 32_768,
                zipf_theta: 0.6,
                read_fraction: 0.2,
            },
            _ => OpenLoad {
                keys: 2048,
                zipf_theta: 0.99,
                read_fraction: 0.9,
            },
        }
    }

    /// Boots this workload's testbed.
    pub fn boot(self, seed: u64) -> Power8System {
        let (layout, mode) = self.testbed();
        let mut sys =
            Power8System::boot_with_failover(layout, seed, mode).expect("the testbed boots");
        if self.sim_tracer_on() {
            sys.enable_tracing(TRACE_RING);
        }
        sys
    }
}

/// How much a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Requests (checkpoint: cycles) always completed first; the
    /// simulated results are taken over this prefix.
    pub prefix: u64,
    /// Host time the measured phase runs for, once the prefix is done.
    pub budget: Duration,
    /// Set-ups a pass makes; set-up time is their median. Repeated
    /// boots get cheaper over the first ~80 as the allocator warms up,
    /// so the count is fixed: a count bounded by time would put the
    /// median at a different point of that curve in every run.
    pub setups: usize,
    /// Snapshot/restore pairs at the end of the prefix (the checkpoint
    /// workload snapshots every cycle instead).
    pub tail_reps: u32,
    /// Lines read back with `load_line` after the measured phase.
    pub readback: u64,
}

impl Plan {
    /// The plan for a run of `seconds` host seconds; `smoke` shrinks
    /// the work to a few seconds for tests.
    pub fn new(w: Workload, seconds: f64, smoke: bool) -> Plan {
        let prefix = match (w, smoke) {
            (Workload::OpenZipf | Workload::WriteMirror, false) => 8000,
            (Workload::ClosedD16, false) => 400_000,
            (Workload::Checkpoint, false) => 32,
            (Workload::OpenZipf | Workload::WriteMirror, true) => 300,
            (Workload::ClosedD16, true) => 20_000,
            (Workload::Checkpoint, true) => 3,
        };
        Plan {
            prefix,
            budget: if smoke {
                Duration::ZERO
            } else {
                Duration::from_secs_f64(seconds)
            },
            setups: if smoke { 1 } else { 200 },
            tail_reps: if smoke { 2 } else { 40 },
            readback: if smoke { 32 } else { 256 },
        }
    }
}

/// When a load generator stops. It only stops where nothing is in flight.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// Once `units` are done and `budget` host time has passed.
    After { units: u64, budget: Duration },
    /// After exactly this many units.
    Units(u64),
}

impl Stop {
    fn done(self, units: u64, started: Instant) -> bool {
        match self {
            Stop::After { units: n, budget } => units >= n && started.elapsed() >= budget,
            Stop::Units(n) => units >= n,
        }
    }

    fn may_issue(self, units: u64) -> bool {
        match self {
            Stop::After { .. } => true,
            Stop::Units(n) => units < n,
        }
    }
}

/// One window of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Simulated µs and completed requests.
    pub sim_us: f64,
    pub completed: u64,
    /// Host seconds at the reference speed.
    pub ref_s: f64,
    /// The steps kernel's slowdown, timed right after the window.
    pub slowdown: f64,
}

/// Cuts the measured phase into windows of at least `len` host time.
struct Meter {
    len: Duration,
    mark: (Instant, u64, SimTime),
    windows: Vec<Window>,
    reference: Reference,
    /// Host time spent timing the reference, which no window includes.
    reference_time: Duration,
}

impl Meter {
    fn new(len: Duration, done: u64, now: SimTime) -> Meter {
        Meter {
            len,
            mark: (Instant::now(), done, now),
            windows: Vec::new(),
            reference: Reference::default(),
            reference_time: Duration::ZERO,
        }
    }

    fn tick(&mut self, done: u64, now: SimTime) {
        let t = Instant::now();
        if t.duration_since(self.mark.0) >= self.len {
            self.push(t, done, now);
        }
    }

    fn push(&mut self, t: Instant, done: u64, now: SimTime) {
        let slowdown = self.reference.slowdown(Kernel::Steps);
        self.windows.push(Window {
            sim_us: (now - self.mark.2).as_ps() as f64 / 1e6,
            completed: done - self.mark.1,
            ref_s: t.duration_since(self.mark.0).as_secs_f64() / slowdown,
            slowdown,
        });
        let resume = Instant::now();
        self.reference_time += resume - t;
        self.mark = (resume, done, now);
    }

    /// Leaves `d` of reference timing, taken inside the open window, out
    /// of it.
    fn exclude(&mut self, d: Duration) {
        self.mark.0 += d;
        self.reference_time += d;
    }

    /// Drops the open window: what happened since the last tick is not
    /// measured.
    fn restart(&mut self, done: u64, now: SimTime) {
        self.mark = (Instant::now(), done, now);
    }

    /// Closes the last window if it is at least half a window long, or
    /// if it is the only one. Windows closed by every tick (`len` 0)
    /// have no open window left to close.
    fn finish(mut self, done: u64, now: SimTime) -> (Vec<Window>, Duration) {
        let t = Instant::now();
        let open = t.duration_since(self.mark.0);
        if self.windows.is_empty() || (!self.len.is_zero() && open >= self.len / 2) {
            self.push(t, done, now);
        }
        (self.windows, self.reference_time)
    }
}

/// Request accounting and simulated-latency samples of one pass.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Requests whose latency lands in `prefix_lat_ps`.
    prefix_reqs: u64,
    /// Simulated latency of every completed prefix request, in ps.
    pub prefix_lat_ps: Vec<u64>,
    /// Completion time of the last prefix request.
    pub prefix_end: SimTime,
    /// Sum and count of every completed request's latency.
    pub lat_sum_ps: u128,
    pub lat_count: u64,
    /// How late the benchmark submitted each open-loop request, in ps.
    pub late_ps: Vec<u64>,
    pub failures: Vec<String>,
}

impl Tally {
    fn note_failure(&mut self, msg: String) {
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(msg);
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note_failure(msg);
    }

    fn complete(&mut self, idx: u64, start: SimTime, done: SimTime) {
        self.completed += 1;
        let lat = done.saturating_sub(start).as_ps();
        self.lat_sum_ps += u128::from(lat);
        self.lat_count += 1;
        if idx < self.prefix_reqs {
            self.prefix_lat_ps.push(lat);
            self.prefix_end = self.prefix_end.max(done);
        }
    }
}

/// The value the `version`-th store to `key` writes.
pub fn value_of(key: u64, version: u32) -> CacheLine {
    CacheLine::patterned(key << 20 | u64::from(version))
}

/// Whether a read of `key` may return `data`: the version acknowledged
/// before the read was submitted (`acked`, 0 if none), any newer
/// version up to the latest submitted (`issued`), or zeros if nothing
/// had been acknowledged.
pub fn open_read_ok(key: u64, data: &CacheLine, acked: u32, issued: u32) -> bool {
    (acked == 0 && *data == CacheLine::ZERO)
        || (acked.max(1)..=issued).any(|v| *data == value_of(key, v))
}

/// The value the closed loop prefills into line `line`, and so the
/// only value a read of it may return.
pub fn closed_value(line: u64) -> CacheLine {
    CacheLine::patterned(line + 1)
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    key: u64,
    read: bool,
}

/// Poisson arrivals with zipfian keys, drawn from the seed alone.
struct ArrivalGen {
    rng: SimRng,
    cdf: Vec<f64>,
    mean_gap_ps: f64,
    read_fraction: f64,
    next: Arrival,
}

impl ArrivalGen {
    fn new(load: OpenLoad, seed: u64, start: SimTime) -> ArrivalGen {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..load.keys)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(load.zipf_theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut gen = ArrivalGen {
            rng: SimRng::seed_from_stream(seed, 0xA771),
            cdf,
            mean_gap_ps: 1e6 / OFFERED_PER_US,
            read_fraction: load.read_fraction,
            next: Arrival {
                at: start,
                key: 0,
                read: true,
            },
        };
        gen.next = gen.draw(start);
        gen
    }

    fn draw(&mut self, after: SimTime) -> Arrival {
        let gap = -(1.0 - self.rng.next_f64()).ln() * self.mean_gap_ps;
        let u = self.rng.next_f64();
        let key = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64;
        Arrival {
            at: after + SimTime::from_ps((gap as u64).max(1)),
            key,
            read: self.rng.gen_bool(self.read_fraction),
        }
    }

    fn pop(&mut self) -> Arrival {
        let a = self.next;
        self.next = self.draw(a.at);
        a
    }
}

/// Per-key store versions: the latest submitted and the latest
/// acknowledged.
#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    issued: u32,
    acked: u32,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A read, with the key's acknowledged version at submission.
    Read {
        acked: u32,
    },
    Write {
        version: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    idx: u64,
    key: u64,
    arrival: SimTime,
    op: Op,
}

/// Key addresses spread round-robin over every mapped region.
fn key_addresses(sys: &Power8System, keys: u64) -> Vec<u64> {
    let regions = sys.memory_map().regions();
    let n = regions.len() as u64;
    (0..keys)
        .map(|key| {
            let r = &regions[(key % n) as usize];
            r.base + ((key / n) % (r.os_size / 128).max(1)) * 128
        })
        .collect()
}

/// The open-loop generator shared by `open-zipf`, `write-mirror` and
/// `checkpoint`.
struct OpenLoop {
    gen: ArrivalGen,
    addrs: Vec<u64>,
    keys: Vec<KeyState>,
    pending: BTreeMap<ReqId, InFlight>,
    /// Requests issued so far (the unit count).
    issued: u64,
}

impl OpenLoop {
    fn new(w: Workload, sys: &mut Power8System, seed: u64) -> OpenLoop {
        let load = w.open_load();
        sys.set_mlp_window(OPEN_WINDOW);
        OpenLoop {
            gen: ArrivalGen::new(load, seed, sys.now()),
            addrs: key_addresses(sys, load.keys),
            keys: vec![KeyState::default(); load.keys as usize],
            pending: BTreeMap::new(),
            issued: 0,
        }
    }

    fn submit(&mut self, sys: &mut Power8System, spans: &mut Spans, t: &mut Tally) {
        let a = self.gen.pop();
        let idx = self.issued;
        self.issued += 1;
        t.attempted += 1;
        t.late_ps.push(sys.now().saturating_sub(a.at).as_ps());
        let addr = self.addrs[a.key as usize];
        let state = &mut self.keys[a.key as usize];
        let op = if a.read {
            Op::Read { acked: state.acked }
        } else {
            state.issued += 1;
            assert!(state.issued < 1 << 20, "key version overflows its value");
            Op::Write {
                version: state.issued,
            }
        };
        let res = spans.call("system.submit", || match op {
            Op::Read { .. } => sys.submit_load(addr),
            Op::Write { version } => sys.submit_store(addr, value_of(a.key, version)),
        });
        match res {
            Ok(id) => {
                spans.tag_reqs([id.raw()]);
                self.pending.insert(
                    id,
                    InFlight {
                        idx,
                        key: a.key,
                        arrival: a.at,
                        op,
                    },
                );
            }
            Err(e) => t.fail(format!("submit of request {idx} failed: {e}")),
        }
    }

    fn collect(&mut self, done: Vec<(ReqId, Result<MemCompletion, SystemError>)>, t: &mut Tally) {
        for (id, res) in done {
            let Some(req) = self.pending.remove(&id) else {
                t.fail(format!("completion for unknown request {}", id.raw()));
                continue;
            };
            let c = match res {
                Ok(c) => c,
                Err(e) => {
                    t.fail(format!("request {} failed: {e}", req.idx));
                    continue;
                }
            };
            let state = &mut self.keys[req.key as usize];
            match req.op {
                Op::Write { version } => state.acked = state.acked.max(version),
                Op::Read { acked } => {
                    let ok = c
                        .data
                        .is_some_and(|d| open_read_ok(req.key, &d, acked, state.issued));
                    if !ok {
                        t.fail(format!(
                            "read of key {} returned a value that was never current",
                            req.key
                        ));
                        continue;
                    }
                }
            }
            t.complete(req.idx, req.arrival, c.completed_at);
        }
    }

    /// Drives arrivals until `stop` says so.
    fn run(
        &mut self,
        sys: &mut Power8System,
        spans: &mut Spans,
        stop: Stop,
        t: &mut Tally,
        mut meter: Option<&mut Meter>,
    ) {
        let started = Instant::now();
        loop {
            let now = sys.now();
            if stop.may_issue(self.issued) && self.gen.next.at <= now {
                // No channel may lag the clock the arrivals are stamped
                // with, or a completion could predate its arrival.
                spans.call("system.advance", || sys.advance_to(now));
                while stop.may_issue(self.issued) && self.gen.next.at <= now {
                    self.submit(sys, spans, t);
                }
            }
            let done = spans.call("system.poll", || sys.poll());
            if !done.is_empty() {
                spans.tag_reqs(done.iter().map(|(id, _)| id.raw()));
                self.collect(done, t);
            }
            if self.pending.is_empty() {
                if let Some(m) = meter.as_deref_mut() {
                    m.tick(t.completed, sys.now());
                }
                if stop.done(self.issued, started) {
                    return;
                }
                let next = self.gen.next.at;
                spans.call("system.advance", || sys.advance_to(next.max(now)));
            }
        }
    }

    /// Reads back up to `n` written keys, in key order, and checks each
    /// holds its last acknowledged value.
    fn read_back(&self, sys: &mut Power8System, spans: &mut Spans, n: u64, t: &mut Tally) {
        let written = self.keys.iter().enumerate().filter(|(_, s)| s.acked > 0);
        for (key, s) in written.take(n as usize) {
            let addr = self.addrs[key];
            match spans.call("system.verify", || sys.load_line(addr)) {
                Ok((line, _)) if line == value_of(key as u64, s.acked) => {}
                Ok(_) => t.fail(format!("read-back of key {key} lost its last store")),
                Err(e) => t.fail(format!("read-back of key {key} failed: {e}")),
            }
        }
    }
}

/// The closed loop: uniform reads over prefilled ConTutto lines.
struct ClosedLoop {
    rng: SimRng,
    addrs: Vec<u64>,
    issued: u64,
}

impl ClosedLoop {
    /// Builds the generator and prefills every line through the pipelined
    /// store path.
    fn new(sys: &mut Power8System, spans: &mut Spans, seed: u64) -> ClosedLoop {
        let region = sys
            .memory_map()
            .regions()
            .iter()
            .find(|r| r.channel == 2)
            .expect("the ConTutto at slot 2 is mapped");
        let addrs: Vec<u64> = (0..CLOSED_LINES).map(|l| region.base + l * 128).collect();
        let mut pending = BTreeSet::new();
        let mut next = 0u64;
        while next < CLOSED_LINES || !pending.is_empty() {
            while next < CLOSED_LINES && pending.len() < CLOSED_DEPTH {
                let addr = addrs[next as usize];
                let id = spans
                    .call("system.submit", || {
                        sys.submit_store(addr, closed_value(next))
                    })
                    .expect("prefill store submits");
                pending.insert(id);
                next += 1;
            }
            for (id, res) in spans.call("system.poll", || sys.poll()) {
                res.expect("prefill store completes");
                pending.remove(&id);
            }
        }
        ClosedLoop {
            rng: SimRng::seed_from_stream(seed, 0xC105),
            addrs,
            issued: 0,
        }
    }

    /// Keeps [`CLOSED_DEPTH`] reads outstanding until `stop` says so,
    /// then drains.
    fn run(
        &mut self,
        sys: &mut Power8System,
        spans: &mut Spans,
        stop: Stop,
        t: &mut Tally,
        meter: &mut Meter,
    ) {
        let started = Instant::now();
        let mut pending: BTreeMap<ReqId, (u64, u64, SimTime)> = BTreeMap::new();
        let mut stopped = false;
        loop {
            while !stopped && pending.len() < CLOSED_DEPTH {
                if stop.done(self.issued, started) {
                    stopped = true;
                    break;
                }
                let line = self.rng.gen_below(CLOSED_LINES);
                let addr = self.addrs[line as usize];
                let idx = self.issued;
                self.issued += 1;
                t.attempted += 1;
                let at = sys.now();
                match spans.call("system.submit", || sys.submit_load(addr)) {
                    Ok(id) => {
                        spans.tag_reqs([id.raw()]);
                        pending.insert(id, (idx, line, at));
                    }
                    Err(e) => t.fail(format!("submit of read {idx} failed: {e}")),
                }
            }
            if pending.is_empty() {
                return;
            }
            let done = spans.call("system.poll", || sys.poll());
            if done.is_empty() {
                continue;
            }
            spans.tag_reqs(done.iter().map(|(id, _)| id.raw()));
            for (id, res) in done {
                let Some((idx, line, at)) = pending.remove(&id) else {
                    t.fail(format!("completion for unknown request {}", id.raw()));
                    continue;
                };
                match res {
                    Ok(c) if c.data == Some(closed_value(line)) => {
                        t.complete(idx, at, c.completed_at);
                    }
                    Ok(_) => t.fail(format!("read {idx} of line {line} returned wrong data")),
                    Err(e) => t.fail(format!("read {idx} failed: {e}")),
                }
            }
            meter.tick(t.completed, sys.now());
        }
    }

    fn read_back(&self, sys: &mut Power8System, spans: &mut Spans, n: u64, t: &mut Tally) {
        for line in 0..n.min(CLOSED_LINES) {
            let addr = self.addrs[line as usize];
            match spans.call("system.verify", || sys.load_line(addr)) {
                Ok((data, _)) if data == closed_value(line) => {}
                Ok(_) => t.fail(format!("read-back of line {line} returned wrong data")),
                Err(e) => t.fail(format!("read-back of line {line} failed: {e}")),
            }
        }
    }
}

enum Load {
    Open(OpenLoop),
    Closed(ClosedLoop),
}

impl Load {
    fn new(w: Workload, sys: &mut Power8System, spans: &mut Spans, seed: u64) -> Load {
        match w {
            Workload::ClosedD16 => Load::Closed(ClosedLoop::new(sys, spans, seed)),
            _ => Load::Open(OpenLoop::new(w, sys, seed)),
        }
    }

    fn run(
        &mut self,
        sys: &mut Power8System,
        spans: &mut Spans,
        stop: Stop,
        t: &mut Tally,
        meter: &mut Meter,
    ) {
        match self {
            Load::Open(d) => d.run(sys, spans, stop, t, Some(meter)),
            Load::Closed(d) => d.run(sys, spans, stop, t, meter),
        }
    }

    fn issued(&self) -> u64 {
        match self {
            Load::Open(d) => d.issued,
            Load::Closed(d) => d.issued,
        }
    }

    fn read_back(&self, sys: &mut Power8System, spans: &mut Spans, n: u64, t: &mut Tally) {
        match self {
            Load::Open(d) => d.read_back(sys, spans, n, t),
            Load::Closed(d) => d.read_back(sys, spans, n, t),
        }
    }
}

/// Metrics that must match between a system and its restored twin:
/// everything but the `system.snapshot.*` observer namespace, which
/// counts the snapshots themselves.
fn comparable(m: &MetricsRegistry) -> Vec<String> {
    m.iter()
        .filter(|(name, _)| !name.starts_with("system.snapshot."))
        .map(|(name, metric)| format!("{name}={metric}"))
        .collect()
}

/// Host time of each snapshot and restore, at the reference speed.
#[derive(Default)]
struct Snapshots {
    snapshot_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    reference: Reference,
}

impl Snapshots {
    /// Snapshots `sys`, restores the image into `twin` and checks the
    /// twin is the same machine. Returns the image size and the host
    /// time spent timing the reference, before and after the pair.
    fn take(
        &mut self,
        sys: &mut Power8System,
        twin: &mut Power8System,
        spans: &mut Spans,
        t: &mut Tally,
    ) -> (u64, Duration) {
        let start = Instant::now();
        let before = self.reference.slowdown(Kernel::Image);
        let mut reference_time = start.elapsed();
        let start = Instant::now();
        let image = spans.call("system.snapshot", || sys.snapshot());
        let snapshot_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let restored = spans.call("system.restore", || twin.restore(&image));
        let restore_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let slowdown = (before + self.reference.slowdown(Kernel::Image)) / 2.0;
        reference_time += start.elapsed();
        self.snapshot_ms.push(snapshot_ms / slowdown);
        self.restore_ms.push(restore_ms / slowdown);
        match restored {
            Ok(()) => {
                let ours = comparable(&spans.call("system.metrics", || sys.metrics()));
                let theirs = comparable(&spans.call("system.metrics", || twin.metrics()));
                if twin.tracer().fingerprint() != sys.tracer().fingerprint() || ours != theirs {
                    t.note_failure("a restored twin differs from its source".to_string());
                }
            }
            Err(e) => t.note_failure(format!("restore failed: {e}")),
        }
        (image.len() as u64, reference_time)
    }
}

/// What one pass measured.
pub struct Pass {
    /// Units the measured phase ran: requests, or checkpoint cycles.
    pub units: u64,
    /// Host seconds of each set-up, at the reference speed.
    pub setup_s: Vec<f64>,
    /// Host seconds of the whole pass, and of its measured phase less
    /// the snapshots taken at the end of the prefix and the reference
    /// timings.
    pub wall_s: f64,
    pub measure_s: f64,
    /// Measured phase start, for the prefix's throughput.
    pub sim_start: SimTime,
    pub windows: Vec<Window>,
    pub tally: Tally,
    pub snapshot_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    /// Size of the image taken at the end of the prefix.
    pub image_bytes: u64,
    /// Registry at the start and end of the measured phase.
    pub before: MetricsRegistry,
    pub after: MetricsRegistry,
    /// Trace records the simulator's tracer took in the measured phase.
    pub trace_records: u64,
    /// End-of-pass fingerprint and comparable metrics: the identity a
    /// replayed pass must reproduce.
    pub fingerprint: u64,
    pub final_metrics: Vec<String>,
    pub spans: Spans,
}

/// Runs one pass of `w`: measured for the plan's budget, or with
/// `replay` for exactly that many units. `traced` turns spans on.
pub fn run_pass(w: Workload, seed: u64, plan: &Plan, replay: Option<u64>, traced: bool) -> Pass {
    let mut spans = Spans::new(traced);
    let origin = Instant::now();
    let mut t = Tally {
        prefix_reqs: match w {
            Workload::Checkpoint => plan.prefix * CYCLE_REQS,
            _ => plan.prefix,
        },
        ..Tally::default()
    };

    // -- Set-up: boot, build the inputs, prefill. --
    let mut setup_s = Vec::new();
    let mut bed = None;
    let mut reference = Reference::default();
    for _ in 0..plan.setups.max(1) {
        drop(bed.take());
        spans.begin_phase("bench.setup");
        let start = Instant::now();
        let mut sys = spans.call("system.boot", || w.boot(seed));
        let load = Load::new(w, &mut sys, &mut spans, seed);
        let host_s = start.elapsed().as_secs_f64();
        spans.end_phase();
        setup_s.push(host_s / reference.slowdown(Kernel::Steps));
        bed = Some((sys, load));
    }
    let (mut sys, mut load) = bed.expect("at least one set-up ran");

    // -- Measured phase. --
    spans.begin_phase("bench.measure");
    let before = spans.call("system.metrics", || sys.metrics());
    let records_before = sys.tracer().total_recorded();
    let sim_start = sys.now();
    let window = (plan.budget / WINDOWS).max(Duration::from_millis(10));
    let mut meter = Meter::new(window, 0, sim_start);
    let started = Instant::now();
    let mut snaps = Snapshots::default();
    let mut image_bytes = 0;
    let mut paused = Duration::ZERO;
    let units = if let (Workload::Checkpoint, Load::Open(d)) = (w, &mut load) {
        let stop = replay.map_or(
            Stop::After {
                units: plan.prefix,
                budget: plan.budget,
            },
            Stop::Units,
        );
        // Every cycle is one window: traffic, a snapshot, a twin's boot
        // and restore, then the twin carries on.
        meter.len = Duration::ZERO;
        let mut cycles = 0;
        while !stop.done(cycles, started) {
            spans.switch_phase("bench.cycle");
            d.run(
                &mut sys,
                &mut spans,
                Stop::Units(d.issued + CYCLE_REQS),
                &mut t,
                None,
            );
            let mut twin = spans.call("system.boot", || w.boot(seed));
            let (bytes, reference_time) = snaps.take(&mut sys, &mut twin, &mut spans, &mut t);
            meter.exclude(reference_time);
            sys = twin;
            cycles += 1;
            if cycles == plan.prefix {
                image_bytes = bytes;
            }
            meter.tick(t.completed, sys.now());
        }
        cycles
    } else {
        // Leg one completes the prefix, whatever the budget.
        let prefix = Stop::After {
            units: plan.prefix,
            budget: Duration::ZERO,
        };
        load.run(&mut sys, &mut spans, prefix, &mut t, &mut meter);
        // The snapshot tail, at a state that host speed cannot change;
        // its host time is not part of the measured phase.
        let tail = Instant::now();
        spans.switch_phase("bench.tail");
        let mut twin = spans.call("system.boot", || w.boot(seed));
        for _ in 0..plan.tail_reps.max(1) {
            image_bytes = snaps.take(&mut sys, &mut twin, &mut spans, &mut t).0;
        }
        drop(twin);
        spans.switch_phase("bench.measure");
        paused = tail.elapsed();
        meter.restart(t.completed, sys.now());
        // Leg two runs out the budget.
        let rest = replay.map_or(
            Stop::After {
                units: 0,
                budget: plan.budget.saturating_sub(started.elapsed() - paused),
            },
            Stop::Units,
        );
        load.run(&mut sys, &mut spans, rest, &mut t, &mut meter);
        load.issued()
    };
    let (windows, reference_time) = meter.finish(t.completed, sys.now());
    let measure_s = (started.elapsed() - paused)
        .saturating_sub(reference_time)
        .as_secs_f64();
    let after = spans.call("system.metrics", || sys.metrics());
    let trace_records = sys.tracer().total_recorded() - records_before;
    spans.end_phase();

    if t.attempted != t.completed + t.failed {
        t.note_failure(format!(
            "{} requests attempted, but {} completed and {} failed",
            t.attempted, t.completed, t.failed
        ));
    }
    spans.begin_phase("bench.verify");
    load.read_back(&mut sys, &mut spans, plan.readback, &mut t);
    spans.end_phase();

    let fingerprint = sys.tracer().fingerprint();
    let final_metrics = comparable(&sys.metrics());
    Pass {
        units,
        setup_s,
        wall_s: origin.elapsed().as_secs_f64(),
        measure_s,
        sim_start,
        windows,
        tally: t,
        snapshot_ms: snaps.snapshot_ms,
        restore_ms: snaps.restore_ms,
        image_bytes,
        before,
        after,
        trace_records,
        fingerprint,
        final_metrics,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_read_check_accepts_only_current_or_newer_values() {
        let key = 7;
        assert!(open_read_ok(key, &CacheLine::ZERO, 0, 0));
        assert!(open_read_ok(key, &CacheLine::ZERO, 0, 2));
        assert!(open_read_ok(key, &value_of(key, 2), 1, 2));
        assert!(open_read_ok(key, &value_of(key, 1), 1, 2));
        // A stale version, zeros after an acknowledged store, another
        // key's value and a version never submitted are all wrong.
        assert!(!open_read_ok(key, &value_of(key, 1), 2, 3));
        assert!(!open_read_ok(key, &CacheLine::ZERO, 1, 1));
        assert!(!open_read_ok(key, &value_of(key + 1, 1), 1, 1));
        assert!(!open_read_ok(key, &value_of(key, 3), 1, 2));
    }

    #[test]
    fn lines_holding_a_wrong_pattern_fail_the_closed_read_check() {
        let mut spans = Spans::new(false);
        let mut sys = Workload::ClosedD16.boot(1);
        let mut d = ClosedLoop::new(&mut sys, &mut spans, 1);
        for (line, &addr) in d.addrs.iter().enumerate() {
            sys.store_line(addr, CacheLine::patterned(line as u64))
                .expect("overwrite lands");
        }
        let mut t = Tally::default();
        let mut meter = Meter::new(Duration::ZERO, 0, sys.now());
        d.run(&mut sys, &mut spans, Stop::Units(64), &mut t, &mut meter);
        assert_eq!((t.attempted, t.completed, t.failed), (64, 0, 64));
        assert!(t.failures[0].contains("wrong data"), "{:?}", t.failures);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
