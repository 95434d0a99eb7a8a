//! The Centaur buffer chip model.
//!
//! Implements [`DmiBuffer`]: parses downstream command/data payloads,
//! executes reads/writes/RMWs against four DDR ports (line-interleaved
//! [`Dram`] devices) through the eDRAM cache, and queues upstream
//! read-data beats and done notifications.
//!
//! Timing: each command pays `rx_latency` (PHY + MBI + decode) and any
//! configured `extra_command_delay` before touching the cache/DRAM,
//! and `tx_latency` before its response reaches the upstream
//! serializer. The cache converts DRAM-array time into
//! `cache_hit_latency` on hits.

use contutto_dmi::buffer::{BufferFrontEnd, DmiBuffer, WriteBeat};
use contutto_dmi::command::{CacheLine, Tag, CACHE_LINE_BYTES};
use contutto_dmi::frame::{CommandHeader, DownstreamPayload, UpstreamPayload};
use contutto_memdev::{
    line_ok, range_ok, DdrTimings, Dram, MemoryDevice, RasCounters, ReadOutcome,
};
use contutto_sim::persist_fields;
use contutto_sim::{MetricsRegistry, SimTime, TraceEvent, Tracer};

use crate::cache::EdramCache;
use crate::config::CentaurConfig;

/// Number of DDR ports per Centaur (paper §2.1).
pub const DDR_PORTS: usize = 4;

/// Cumulative Centaur statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CentaurStats {
    /// Read commands executed.
    pub reads: u64,
    /// Write commands executed.
    pub writes: u64,
    /// Read-modify-write commands executed.
    pub rmws: u64,
    /// Commands Centaur has no hardware for (e.g. ConTutto's flush) —
    /// completed as no-ops but flagged.
    pub unsupported: u64,
    /// Done pairs packed into a single upstream frame.
    pub coalesced_dones: u64,
    /// Demand reads whose line needed (successful) ECC correction.
    pub corrected_reads: u64,
    /// Demand reads answered with the poison bit set (uncorrectable).
    pub poisoned_reads: u64,
    /// RMWs whose read-half hit a poisoned line; the merge is dropped
    /// rather than laundering the poison into a fresh write.
    pub poisoned_rmws: u64,
    /// WriteData frames that arrived for an idle/unknown tag (late
    /// delivery after a retrain, or decode aliasing) and were dropped.
    pub frames_orphaned: u64,
}

persist_fields!(CentaurStats {
    reads,
    writes,
    rmws,
    unsupported,
    coalesced_dones,
    corrected_reads,
    poisoned_reads,
    poisoned_rmws,
    frames_orphaned
});

/// The Centaur memory-buffer ASIC.
///
/// # Example
///
/// ```
/// use contutto_centaur::{Centaur, CentaurConfig};
/// use contutto_dmi::DmiBuffer;
///
/// let c = Centaur::new(CentaurConfig::optimized(), 8 << 30);
/// assert_eq!(c.name(), "centaur-optimized");
/// assert!(c.frtl_turnaround().as_ns() < 20);
/// ```
#[derive(Debug)]
pub struct Centaur {
    cfg: CentaurConfig,
    cache: EdramCache,
    ports: Vec<Dram>,
    port_capacity: u64,
    front: BufferFrontEnd,
    stats: CentaurStats,
    tracer: Tracer,
}

impl Centaur {
    /// Creates a Centaur with `capacity` bytes of DRAM spread over its
    /// four DDR ports.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is a positive multiple of
    /// `4 * 128` bytes.
    pub fn new(cfg: CentaurConfig, capacity: u64) -> Self {
        assert!(
            capacity > 0 && capacity.is_multiple_of(DDR_PORTS as u64 * CACHE_LINE_BYTES as u64),
            "capacity must be a multiple of ports x line size"
        );
        let port_capacity = capacity / DDR_PORTS as u64;
        let mut cache = EdramCache::centaur();
        cache.set_prefetch_degree(cfg.prefetch_degree);
        Centaur {
            cfg,
            cache,
            ports: (0..DDR_PORTS)
                .map(|_| Dram::new(port_capacity, DdrTimings::ddr3_1600()))
                .collect(),
            port_capacity,
            front: BufferFrontEnd::default(),
            stats: CentaurStats::default(),
            tracer: Tracer::off(),
        }
    }

    /// Total DRAM capacity behind this buffer.
    pub fn capacity_bytes(&self) -> u64 {
        self.port_capacity * DDR_PORTS as u64
    }

    /// Statistics so far.
    pub fn stats(&self) -> CentaurStats {
        self.stats
    }

    /// Cache statistics (hits/misses/prefetch fills).
    pub fn cache(&self) -> &EdramCache {
        &self.cache
    }

    /// The active configuration.
    pub fn config(&self) -> &CentaurConfig {
        &self.cfg
    }

    /// DDR ports behind the buffer, checked on restore.
    fn port_count(&self) -> usize {
        self.ports.len()
    }

    fn route(&self, addr: u64) -> (usize, u64) {
        let line = addr / CACHE_LINE_BYTES as u64;
        let port = (line % DDR_PORTS as u64) as usize;
        let local_line = line / DDR_PORTS as u64;
        (
            port,
            local_line * CACHE_LINE_BYTES as u64 + addr % CACHE_LINE_BYTES as u64,
        )
    }

    /// A line beyond the DRAM reads back poisoned: the host gets a
    /// typed poisoned-read error, not an aborted process.
    fn read_line(&mut self, start: SimTime, addr: u64) -> (CacheLine, SimTime, ReadOutcome) {
        if !range_ok(self.capacity_bytes(), addr, CACHE_LINE_BYTES) {
            return (CacheLine::ZERO, start, ReadOutcome::Uncorrectable);
        }
        let (port, local) = self.route(addr);
        let mut line = CacheLine::ZERO;
        if self.cfg.cache_enabled && self.cache.access(addr) {
            self.tracer.record(TraceEvent::CacheHit { addr });
            // Cache hits serve the verified-at-fill copy; the eDRAM
            // array itself is assumed protected, so the hit is clean.
            self.ports[port].array().peek(local, &mut line.0);
            (line, start + self.cfg.cache_hit_latency, ReadOutcome::Clean)
        } else {
            if self.cfg.cache_enabled {
                self.tracer.record(TraceEvent::CacheMiss { addr });
            }
            let result = self.ports[port].read(start, local, &mut line.0);
            match result.outcome {
                ReadOutcome::Clean => {}
                ReadOutcome::Corrected { bits } => {
                    self.stats.corrected_reads += 1;
                    self.tracer.record(TraceEvent::EccCorrected { addr, bits });
                }
                ReadOutcome::Uncorrectable => {
                    self.tracer.record(TraceEvent::EccUncorrectable { addr });
                }
            }
            (line, result.done, result.outcome)
        }
    }

    /// A write to a line beyond the DRAM is dropped.
    fn write_line(&mut self, start: SimTime, addr: u64, line: &CacheLine) -> SimTime {
        if !range_ok(self.capacity_bytes(), addr, CACHE_LINE_BYTES) {
            return start;
        }
        let (port, local) = self.route(addr);
        if self.cfg.cache_enabled {
            // Write-allocate so subsequent reads hit.
            self.cache.fill(addr);
        }
        self.ports[port].write(start, local, &line.0)
    }

    fn complete_read(&mut self, start: SimTime, tag: Tag, addr: u64) {
        self.stats.reads += 1;
        self.tracer.record(TraceEvent::DeviceRead { addr });
        let (line, data_ready, outcome) = self.read_line(start, addr);
        let poison = outcome.is_uncorrectable();
        if poison {
            self.stats.poisoned_reads += 1;
        }
        self.front
            .push_read(data_ready + self.cfg.tx_latency, tag, &line, poison);
    }

    /// Drops a write-data frame or assembly that no command can own.
    fn orphan(&mut self, tag: Tag) {
        self.stats.frames_orphaned += 1;
        self.tracer
            .record(TraceEvent::FrameOrphaned { tag: tag.raw() });
    }

    fn complete_write(&mut self, start: SimTime, tag: Tag, header: CommandHeader, line: CacheLine) {
        let done = match header {
            CommandHeader::Write { addr } => {
                self.stats.writes += 1;
                self.tracer.record(TraceEvent::DeviceWrite { addr });
                self.write_line(start, addr, &line)
            }
            CommandHeader::Rmw { addr, op } => {
                self.stats.rmws += 1;
                self.tracer.record(TraceEvent::DeviceWrite { addr });
                let (current, read_done, outcome) = self.read_line(start, addr);
                if outcome.is_uncorrectable() {
                    // Do not merge against poisoned data; the line
                    // stays poisoned in the media so reads stay loud.
                    self.stats.poisoned_rmws += 1;
                    read_done
                } else {
                    let merged = op.apply(current, line);
                    self.write_line(read_done, addr, &merged)
                }
            }
            _ => unreachable!("only write-class headers open an engine"),
        };
        self.front.push_done(done + self.cfg.tx_latency, tag);
    }
}

impl DmiBuffer for Centaur {
    fn push_downstream(&mut self, now: SimTime, payload: DownstreamPayload) {
        let start = now + self.cfg.rx_latency + self.cfg.extra_command_delay;
        match payload {
            DownstreamPayload::Idle | DownstreamPayload::Control(_) => {}
            DownstreamPayload::Command { tag, header } => match header {
                CommandHeader::Read { addr } => self.complete_read(start, tag, addr),
                CommandHeader::Write { .. } | CommandHeader::Rmw { .. } => {
                    if self.front.open(tag, header) {
                        self.orphan(tag);
                    }
                }
                CommandHeader::Flush => {
                    // Paper §4.2: "this functionality does not exist in
                    // the Centaur ASIC". Complete as a no-op, flagged.
                    self.stats.unsupported += 1;
                    self.front.push_done(start + self.cfg.tx_latency, tag);
                }
            },
            DownstreamPayload::WriteData { tag, beat, data } => {
                match self.front.write_data(tag, beat, &data) {
                    WriteBeat::Pending => {}
                    WriteBeat::Complete(header, line) => {
                        self.complete_write(start, tag, header, line);
                    }
                    WriteBeat::Orphaned => self.orphan(tag),
                }
            }
        }
    }

    fn pull_upstream(&mut self, now: SimTime) -> Option<UpstreamPayload> {
        self.front.pull(now, &mut self.stats.coalesced_dones)
    }

    fn next_upstream_ready(&self) -> Option<SimTime> {
        self.front.next_ready()
    }

    fn frtl_turnaround(&self) -> SimTime {
        self.cfg.rx_latency + self.cfg.tx_latency
    }

    fn name(&self) -> &str {
        self.cfg.name
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn sideband_read_line(&mut self, now: SimTime, addr: u64) -> Option<([u8; 128], bool)> {
        // The sideband takes external addresses (maintenance tools,
        // fault reproducers): refuse an out-of-range or unaligned line
        // instead of letting the array's assertions abort the process.
        if !line_ok(self.capacity_bytes(), addr) {
            return None;
        }
        let (port, local) = self.route(addr);
        Some(self.ports[port].array_mut().sideband_read_line(now, local))
    }

    fn sideband_write_line(&mut self, addr: u64, data: &[u8; 128], poison: bool) -> bool {
        if !line_ok(self.capacity_bytes(), addr) {
            return false;
        }
        let (port, local) = self.route(addr);
        self.ports[port]
            .array_mut()
            .sideband_write_line(local, data, poison);
        true
    }

    /// Centaur is fully volatile: the eDRAM cache, pending-write
    /// assemblies, response queue and all four DRAM ports lose their
    /// contents the instant the rail drops. (No `epow_flush` either —
    /// the flush extension "does not exist in the Centaur ASIC",
    /// paper §4.2; the default `power_restore` correctly reports
    /// `Volatile`.)
    fn power_cut(&mut self, now: SimTime) -> SimTime {
        for p in &mut self.ports {
            p.power_loss();
        }
        self.cache.invalidate_all();
        self.front.clear();
        now
    }

    contutto_sim::state_fields!({
        state cache,
        same_as(Centaur::port_count) => "centaur port count",
        state each ports,
        front,
        stats,
    });

    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        let s = self.stats;
        let media: RasCounters = self.ports.iter().map(|p| p.array().ras_counters()).sum();
        for (name, value) in [
            ("reads", s.reads),
            ("writes", s.writes),
            ("rmws", s.rmws),
            ("unsupported", s.unsupported),
            ("frames_orphaned", s.frames_orphaned),
            ("coalesced_dones", s.coalesced_dones),
            ("cache.hits", self.cache.hits()),
            ("cache.misses", self.cache.misses()),
            ("cache.prefetch_fills", self.cache.prefetch_fills()),
            ("media.demand_corrected", media.demand_corrected),
            ("media.demand_uncorrectable", media.demand_uncorrectable),
            ("media.pages_retired", media.pages_retired),
        ] {
            registry.set_counter(&format!("{prefix}.{name}"), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contutto_dmi::command::RmwOp;
    use contutto_dmi::frame::{line_to_downstream_beats, LineAssembler};
    use contutto_sim::snapshot::{self, SnapReader};

    fn t(n: u8) -> Tag {
        Tag::new(n).unwrap()
    }

    fn centaur() -> Centaur {
        Centaur::new(CentaurConfig::optimized(), 1 << 30)
    }

    #[test]
    fn sideband_refuses_out_of_range_addresses() {
        let mut c = centaur();
        let cap = c.capacity_bytes();
        for addr in [cap, u64::MAX - 64, 1, 64] {
            assert!(c.sideband_read_line(SimTime::ZERO, addr).is_none());
            assert!(!c.sideband_write_line(addr, &[0u8; 128], false));
        }
        // In-range maintenance access still works.
        assert!(c.sideband_read_line(SimTime::ZERO, cap - 128).is_some());
    }

    /// Pushes a full write (command + 8 beats) starting at `now`, one
    /// beat per 2 ns frame slot. Returns the last push time.
    fn push_write(c: &mut Centaur, now: SimTime, tag: Tag, addr: u64, line: &CacheLine) -> SimTime {
        c.push_downstream(
            now,
            DownstreamPayload::Command {
                tag,
                header: CommandHeader::Write { addr },
            },
        );
        let mut at = now;
        for (i, beat) in line_to_downstream_beats(tag, line).into_iter().enumerate() {
            at = now + SimTime::from_ns(2) * (i as u64 + 1);
            c.push_downstream(at, beat);
        }
        at
    }

    fn drain_all(c: &mut Centaur, until: SimTime) -> Vec<(SimTime, UpstreamPayload)> {
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        while now <= until {
            while let Some(p) = c.pull_upstream(now) {
                out.push((now, p));
            }
            now += SimTime::from_ns(2);
        }
        out
    }

    #[test]
    fn orphan_write_beat_is_dropped_not_fatal() {
        let mut c = centaur();
        let tracer = Tracer::ring(16);
        c.attach_tracer(tracer.clone());
        let line = CacheLine::patterned(7);
        // A stray data beat with no pending write: dropped and flagged.
        let beats = line_to_downstream_beats(t(9), &line);
        c.push_downstream(SimTime::ZERO, beats[0].clone());
        assert_eq!(c.stats().frames_orphaned, 1);
        assert_eq!(
            tracer.count_matching(|e| matches!(e, TraceEvent::FrameOrphaned { tag: 9 })),
            1
        );
        // Real traffic still completes afterwards.
        push_write(&mut c, SimTime::from_ns(100), t(0), 0x8000, &line);
        let resp = drain_all(&mut c, SimTime::from_us(2));
        assert!(resp
            .iter()
            .any(|(_, p)| matches!(p, UpstreamPayload::Done { .. })));

        // A tag reused while its write was still assembling: the host
        // abandoned that write, so its partial data is dropped, flagged,
        // and only the fresh write lands.
        let mut c = centaur();
        let tracer = Tracer::ring(16);
        c.attach_tracer(tracer.clone());
        c.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: t(4),
                header: CommandHeader::Write { addr: 0x8000 },
            },
        );
        let partial = line_to_downstream_beats(t(4), &line).swap_remove(0);
        c.push_downstream(SimTime::from_ns(2), partial);
        let fresh = CacheLine::patterned(8);
        push_write(&mut c, SimTime::from_ns(100), t(4), 0x9000, &fresh);
        drain_all(&mut c, SimTime::from_us(2));
        assert_eq!(c.stats().writes, 1);
        assert_eq!(c.stats().frames_orphaned, 1);
        assert_eq!(
            tracer.count_matching(|e| matches!(e, TraceEvent::FrameOrphaned { tag: 4 })),
            1
        );
        let now = SimTime::from_us(3);
        assert_eq!(c.sideband_read_line(now, 0x9000).unwrap().0, fresh.0);
        assert_eq!(c.sideband_read_line(now, 0x8000).unwrap().0, [0u8; 128]);
    }

    #[test]
    fn empty_ready_queue_pull_is_none_not_fatal() {
        let mut c = centaur();
        assert!(c.pull_upstream(SimTime::from_us(1)).is_none());
    }

    #[test]
    fn malformed_beat_index_is_dropped_not_fatal() {
        let mut c = centaur();
        let tracer = Tracer::ring(16);
        c.attach_tracer(tracer.clone());
        c.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: t(2),
                header: CommandHeader::Write { addr: 0x4000 },
            },
        );
        // Beat index past the 8-beat line: dropped loudly, the pending
        // write keeps waiting for real beats.
        c.push_downstream(
            SimTime::from_ns(2),
            DownstreamPayload::WriteData {
                tag: t(2),
                beat: 12,
                data: [0u8; 16],
            },
        );
        assert_eq!(c.stats().frames_orphaned, 1);
        assert_eq!(
            tracer.count_matching(|e| matches!(e, TraceEvent::FrameOrphaned { tag: 2 })),
            1
        );
        // The real beats still complete the write.
        let line = CacheLine::patterned(5);
        for (i, beat) in line_to_downstream_beats(t(2), &line)
            .into_iter()
            .enumerate()
        {
            c.push_downstream(SimTime::from_ns(4) + SimTime::from_ns(2) * (i as u64), beat);
        }
        let resp = drain_all(&mut c, SimTime::from_us(2));
        assert!(resp
            .iter()
            .any(|(_, p)| matches!(p, UpstreamPayload::Done { .. })));
        assert_eq!(c.stats().writes, 1);
    }

    #[test]
    fn power_cut_discards_everything() {
        use contutto_dmi::buffer::PowerRestoreOutcome;
        let mut c = centaur();
        let line = CacheLine::patterned(3);
        push_write(&mut c, SimTime::ZERO, t(0), 0x8000, &line);
        // A second write left mid-assembly (command, no beats yet).
        c.push_downstream(
            SimTime::from_ns(40),
            DownstreamPayload::Command {
                tag: t(1),
                header: CommandHeader::Write { addr: 0x9000 },
            },
        );
        let quiet = c.power_cut(SimTime::from_us(1));
        assert_eq!(quiet, SimTime::from_us(1), "volatile: nothing to save");
        let (_, outcome) = c.power_restore(quiet);
        assert_eq!(outcome, PowerRestoreOutcome::Volatile);
        // Queued responses died with the rail...
        assert!(c.pull_upstream(SimTime::from_secs(1)).is_none());
        // ...and so did the DRAM contents.
        let (back, _) = c.sideband_read_line(SimTime::from_secs(1), 0x8000).unwrap();
        assert_eq!(back, [0u8; 128]);
        assert_eq!(c.cache().hits(), 0);
    }

    #[test]
    fn snapshot_mid_assembly_resumes_identically() {
        let mut c = centaur();
        let line = CacheLine::patterned(21);
        // A completed write warms the cache and DRAM.
        push_write(&mut c, SimTime::ZERO, t(0), 0x8000, &line);
        drain_all(&mut c, SimTime::from_us(1));
        // A second write left mid-assembly: command plus 3 of 8 beats.
        c.push_downstream(
            SimTime::from_us(2),
            DownstreamPayload::Command {
                tag: t(3),
                header: CommandHeader::Write { addr: 0x9000 },
            },
        );
        let beats = line_to_downstream_beats(t(3), &CacheLine::patterned(9));
        for (i, beat) in beats.iter().take(3).cloned().enumerate() {
            c.push_downstream(
                SimTime::from_us(2) + SimTime::from_ns(2) * (i as u64 + 1),
                beat,
            );
        }
        // A read whose response is still queued.
        c.push_downstream(
            SimTime::from_us(2),
            DownstreamPayload::Command {
                tag: t(4),
                header: CommandHeader::Read { addr: 0x8000 },
            },
        );

        let mut img = Vec::new();
        c.snapshot_state(&mut img);
        // Pinned image of an open write engine and a non-empty queue.
        assert_eq!((img.len(), snapshot::crc32(&img)), (5_549, 0xfd85_f74d));
        let mut fresh = centaur();
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();

        // Finish the interrupted write on both copies; feed the
        // remaining beats and drain: byte-identical upstream streams.
        for (i, beat) in beats.iter().skip(3).cloned().enumerate() {
            let at = SimTime::from_us(3) + SimTime::from_ns(2) * (i as u64);
            c.push_downstream(at, beat.clone());
            fresh.push_downstream(at, beat);
        }
        let a = drain_all(&mut c, SimTime::from_us(6));
        let b = drain_all(&mut fresh, SimTime::from_us(6));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_eq!(c.stats(), fresh.stats());
        assert_eq!(c.cache().hits(), fresh.cache().hits());
    }

    #[test]
    fn snapshot_restore_rejects_capacity_mismatch() {
        let c = centaur();
        let mut img = Vec::new();
        c.snapshot_state(&mut img);
        let mut small = Centaur::new(CentaurConfig::optimized(), 1 << 20);
        let err = small.restore_state(&mut SnapReader::new(&img)).unwrap_err();
        assert!(
            matches!(err, snapshot::RestoreError::TopologyMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut c = centaur();
        let line = CacheLine::patterned(42);
        let end = push_write(&mut c, SimTime::ZERO, t(0), 0x8000, &line);
        // Drain the write's done.
        let resp = drain_all(&mut c, end + SimTime::from_us(1));
        assert!(
            matches!(resp.last().unwrap().1, UpstreamPayload::Done { first, .. } if first == t(0))
        );

        c.push_downstream(
            SimTime::from_us(2),
            DownstreamPayload::Command {
                tag: t(1),
                header: CommandHeader::Read { addr: 0x8000 },
            },
        );
        let resp = drain_all(&mut c, SimTime::from_us(3));
        let mut asm = LineAssembler::upstream();
        let mut saw_done = false;
        for (_, p) in resp {
            match p {
                UpstreamPayload::ReadData {
                    tag, beat, data, ..
                } => {
                    assert_eq!(tag, t(1));
                    asm.add_beat(beat, &data);
                }
                UpstreamPayload::Done { first, .. } => {
                    assert_eq!(first, t(1));
                    saw_done = true;
                }
                _ => {}
            }
        }
        assert!(saw_done);
        assert_eq!(asm.into_line(), line);
        assert_eq!(c.stats().writes, 1);
        assert_eq!(c.stats().reads, 1);
    }

    #[test]
    fn read_beats_precede_done_and_are_contiguous() {
        let mut c = centaur();
        c.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: t(5),
                header: CommandHeader::Read { addr: 0 },
            },
        );
        let resp = drain_all(&mut c, SimTime::from_us(1));
        let kinds: Vec<u8> = resp
            .iter()
            .map(|(_, p)| match p {
                UpstreamPayload::ReadData { .. } => 1,
                UpstreamPayload::Done { .. } => 2,
                _ => 0,
            })
            .collect();
        assert_eq!(kinds, vec![1, 1, 1, 1, 2]);
    }

    #[test]
    fn rmw_merges_previous_contents() {
        let mut c = centaur();
        let mut base = CacheLine::ZERO;
        base.set_word(0, 100);
        push_write(&mut c, SimTime::ZERO, t(0), 0, &base);
        let mut addend = CacheLine::ZERO;
        addend.set_word(0, 11);
        // RMW atomic-add.
        c.push_downstream(
            SimTime::from_us(1),
            DownstreamPayload::Command {
                tag: t(1),
                header: CommandHeader::Rmw {
                    addr: 0,
                    op: RmwOp::AtomicAdd,
                },
            },
        );
        for (i, beat) in line_to_downstream_beats(t(1), &addend)
            .into_iter()
            .enumerate()
        {
            c.push_downstream(
                SimTime::from_us(1) + SimTime::from_ns(2) * (i as u64 + 1),
                beat,
            );
        }
        drain_all(&mut c, SimTime::from_us(2));
        // Read back.
        c.push_downstream(
            SimTime::from_us(3),
            DownstreamPayload::Command {
                tag: t(2),
                header: CommandHeader::Read { addr: 0 },
            },
        );
        let resp = drain_all(&mut c, SimTime::from_us(4));
        let mut asm = LineAssembler::upstream();
        for (_, p) in resp {
            if let UpstreamPayload::ReadData { beat, data, .. } = p {
                asm.add_beat(beat, &data);
            }
        }
        assert_eq!(asm.into_line().word(0), 111);
        assert_eq!(c.stats().rmws, 1);
    }

    #[test]
    fn cache_hit_is_faster_than_miss() {
        let mut c = centaur();
        // Cold read (miss).
        c.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: t(0),
                header: CommandHeader::Read { addr: 0x10000 },
            },
        );
        let cold = drain_all(&mut c, SimTime::from_us(1));
        let cold_done = cold.last().unwrap().0;
        // Warm read (hit) — same line.
        let issue = SimTime::from_us(10);
        c.push_downstream(
            issue,
            DownstreamPayload::Command {
                tag: t(1),
                header: CommandHeader::Read { addr: 0x10000 },
            },
        );
        let mut warm_done = SimTime::ZERO;
        let mut now = issue;
        while now < issue + SimTime::from_us(1) {
            while let Some(p) = c.pull_upstream(now) {
                if matches!(p, UpstreamPayload::Done { .. }) {
                    warm_done = now;
                }
            }
            now += SimTime::from_ns(2);
        }
        let cold_lat = cold_done;
        let warm_lat = warm_done - issue;
        assert!(warm_lat < cold_lat, "warm {warm_lat} !< cold {cold_lat}");
        assert_eq!(c.cache().hits(), 1);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = Centaur::new(CentaurConfig::contutto_matched(), 1 << 30);
        for i in 0..3 {
            c.push_downstream(
                SimTime::from_us(i),
                DownstreamPayload::Command {
                    tag: t(i as u8),
                    header: CommandHeader::Read { addr: 0x4000 },
                },
            );
        }
        drain_all(&mut c, SimTime::from_us(10));
        assert_eq!(c.cache().hits(), 0);
        assert_eq!(c.stats().reads, 3);
    }

    #[test]
    fn flush_is_unsupported_but_completes() {
        let mut c = centaur();
        c.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: t(9),
                header: CommandHeader::Flush,
            },
        );
        let resp = drain_all(&mut c, SimTime::from_us(1));
        assert!(matches!(resp[0].1, UpstreamPayload::Done { first, .. } if first == t(9)));
        assert_eq!(c.stats().unsupported, 1);
    }

    #[test]
    fn lines_interleave_across_ports() {
        let c = centaur();
        let (p0, _) = c.route(0);
        let (p1, _) = c.route(128);
        let (p2, _) = c.route(256);
        let (p3, _) = c.route(384);
        let (p4, l4) = c.route(512);
        assert_eq!((p0, p1, p2, p3, p4), (0, 1, 2, 3, 0));
        assert_eq!(l4, 128); // second line of port 0
    }

    #[test]
    fn slower_config_has_higher_latency() {
        let run = |cfg: CentaurConfig| {
            let mut c = Centaur::new(cfg, 1 << 30);
            c.push_downstream(
                SimTime::ZERO,
                DownstreamPayload::Command {
                    tag: t(0),
                    header: CommandHeader::Read { addr: 0x2000 },
                },
            );
            drain_all(&mut c, SimTime::from_us(2)).last().unwrap().0
        };
        let fast = run(CentaurConfig::optimized());
        let slow = run(CentaurConfig::serialized());
        assert!(
            slow > fast + SimTime::from_ns(150),
            "fast {fast} slow {slow}"
        );
    }

    #[test]
    fn simultaneous_dones_coalesce() {
        let mut c = centaur();
        let l = CacheLine::patterned(1);
        push_write(&mut c, SimTime::ZERO, t(0), 0, &l);
        push_write(&mut c, SimTime::ZERO, t(1), 128, &l);
        let resp = drain_all(&mut c, SimTime::from_us(2));
        let dones: Vec<_> = resp
            .iter()
            .filter_map(|(_, p)| match p {
                UpstreamPayload::Done { first, second } => Some((*first, *second)),
                _ => None,
            })
            .collect();
        // Different DDR ports complete near-simultaneously: one frame.
        assert_eq!(dones.len(), 1, "{dones:?}");
        assert!(dones[0].1.is_some());
        assert_eq!(c.stats().coalesced_dones, 1);
    }

    #[test]
    fn frtl_turnaround_matches_config() {
        let c = centaur();
        assert_eq!(c.frtl_turnaround(), SimTime::from_ns(11));
    }
}
