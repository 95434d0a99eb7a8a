//! Soft memory controllers.
//!
//! Paper §3.3(v): "Supporting these different memory types mainly
//! requires changes only to the memory controller ... For DRAM
//! enablement, we use the soft DDR3 memory controller from Altera. To
//! enable MRAM and NVDIMM devices, we use the generated code for the
//! DRAM memory controller as a starting point and make the necessary
//! changes as suggested by the memory vendors."
//!
//! Paper §4.2: the persistent-memory stack additionally needs a
//! **flush** command — "we extended the MBS logic to add a special
//! flush command ... this functionality does not exist in the Centaur
//! ASIC" — which completes once every outstanding write is durable at
//! the media. The controller tracks write completion times to serve
//! it.

use contutto_dmi::PowerRestoreOutcome;
use contutto_memdev::{
    DdrTimings, Dram, MediaArray, MemoryDevice, MramGeneration, NvdimmN, ReadOutcome, RestoreError,
    SaveState, SttMram,
};
use contutto_sim::snapshot::{self, SnapReader};
use contutto_sim::{SimTime, TraceEvent, Tracer};

/// The memory technology a controller instance drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// Standard DDR3 DRAM.
    Ddr3Dram,
    /// STT-MRAM of the given generation.
    SttMram(MramGeneration),
    /// Flash-backed NVDIMM-N.
    NvdimmN,
}

impl MemoryKind {
    /// Whether the media retains contents across power loss.
    pub fn is_nonvolatile(self) -> bool {
        !matches!(self, MemoryKind::Ddr3Dram)
    }
}

#[derive(Debug)]
enum PortDevice {
    Dram(Box<Dram>),
    Mram(Box<SttMram>),
    Nvdimm(Box<NvdimmN>),
}

impl PortDevice {
    /// The device image, tagged with the media kind so a restore into a
    /// differently populated port fails as a topology mismatch instead
    /// of misreading the bytes. Hand-written: the tag selects which
    /// device list follows.
    fn snapshot_state(&self, out: &mut Vec<u8>) {
        match self {
            PortDevice::Dram(d) => {
                out.push(0);
                d.snapshot_state(out);
            }
            PortDevice::Mram(d) => {
                out.push(1);
                d.snapshot_state(out);
            }
            PortDevice::Nvdimm(d) => {
                out.push(2);
                d.snapshot_state(out);
            }
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), snapshot::RestoreError> {
        match (self, r.u8()?) {
            (PortDevice::Dram(d), 0) => d.restore_state(r),
            (PortDevice::Mram(d), 1) => d.restore_state(r),
            (PortDevice::Nvdimm(d), 2) => d.restore_state(r),
            (_, 0..=2) => Err(snapshot::RestoreError::TopologyMismatch {
                context: "memory-controller media kind",
            }),
            _ => Err(snapshot::RestoreError::Malformed {
                context: "memory-controller media discriminant",
            }),
        }
    }

    fn as_device_mut(&mut self) -> &mut dyn MemoryDevice {
        match self {
            PortDevice::Dram(d) => d.as_mut(),
            PortDevice::Mram(d) => d.as_mut(),
            PortDevice::Nvdimm(d) => d.as_mut(),
        }
    }
}

/// One soft memory controller driving one DIMM port.
///
/// Besides demand traffic, the controller owns the port's patrol-scrub
/// schedule ([`MemoryController::enable_scrub`]): before each demand
/// access it replays any scrub passes that fell due, so background
/// correction interleaves deterministically with foreground traffic.
#[derive(Debug)]
pub struct MemoryController {
    kind: MemoryKind,
    device: PortDevice,
    /// Completion time of the latest write (for flush).
    last_write_durable: SimTime,
    reads: u64,
    writes: u64,
    flushes: u64,
    scrub_interval: Option<SimTime>,
    next_scrub: SimTime,
    tracer: Tracer,
}

impl MemoryController {
    /// Creates a controller for `capacity` bytes of the given media.
    pub fn new(kind: MemoryKind, capacity: u64) -> Self {
        let device = match kind {
            MemoryKind::Ddr3Dram => {
                PortDevice::Dram(Box::new(Dram::new(capacity, DdrTimings::ddr3_1600())))
            }
            MemoryKind::SttMram(gen) => PortDevice::Mram(Box::new(SttMram::new(capacity, gen))),
            MemoryKind::NvdimmN => {
                PortDevice::Nvdimm(Box::new(NvdimmN::new(capacity, DdrTimings::ddr3_1600())))
            }
        };
        MemoryController {
            kind,
            device,
            last_write_durable: SimTime::ZERO,
            reads: 0,
            writes: 0,
            flushes: 0,
            scrub_interval: None,
            next_scrub: SimTime::ZERO,
            tracer: Tracer::off(),
        }
    }

    /// Routes RAS trace events into a shared tracer.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        if let PortDevice::Nvdimm(d) = &mut self.device {
            d.attach_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Enables patrol scrub with the given interval; the first pass
    /// falls due one interval from time zero.
    pub fn enable_scrub(&mut self, interval: SimTime) {
        assert!(interval > SimTime::ZERO, "scrub interval must be nonzero");
        self.scrub_interval = Some(interval);
        self.next_scrub = interval;
    }

    /// Enables patrol scrub mid-run: the first pass falls due one
    /// interval after `now`, never retroactively. A zero interval is
    /// clamped to 1 ps — chaos plans are external input and must not
    /// abort the process.
    pub fn enable_scrub_at(&mut self, now: SimTime, interval: SimTime) {
        let interval = interval.max(SimTime::from_ps(1));
        self.scrub_interval = Some(interval);
        self.next_scrub = now + interval;
    }

    /// Disables patrol scrub.
    pub fn disable_scrub(&mut self) {
        self.scrub_interval = None;
    }

    /// Current patrol-scrub interval, if scrub is enabled.
    pub fn scrub_interval(&self) -> Option<SimTime> {
        self.scrub_interval
    }

    /// Replays every scrub pass that fell due at or before `now`, at
    /// its nominal time, so background correction interleaves
    /// deterministically with the demand stream.
    fn run_due_scrub(&mut self, now: SimTime) {
        let Some(interval) = self.scrub_interval else {
            return;
        };
        while self.next_scrub <= now {
            let at = self.next_scrub;
            let report = self.device.as_device_mut().scrub_pass(at);
            self.tracer.record(TraceEvent::ScrubPass {
                corrected: report.corrected,
                uncorrectable: report.uncorrectable,
            });
            for page in &report.retired_pages {
                self.tracer.record(TraceEvent::PageRetired { addr: *page });
            }
            self.next_scrub = at + interval;
        }
    }

    fn note_outcome(&mut self, addr: u64, outcome: ReadOutcome) {
        match outcome {
            ReadOutcome::Clean => {}
            ReadOutcome::Corrected { bits } => {
                self.tracer.record(TraceEvent::EccCorrected { addr, bits });
            }
            ReadOutcome::Uncorrectable => {
                self.tracer.record(TraceEvent::EccUncorrectable { addr });
            }
        }
    }

    /// The media kind.
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Capacity of the attached DIMM.
    pub fn capacity_bytes(&self) -> u64 {
        self.array().capacity()
    }

    /// The DIMM's cell array, the same for every media technology:
    /// untimed peek/poke (the accelerator DMA path, timed by the Access
    /// processor's transfer engine), the sideband, fault arming and RAS
    /// counters.
    pub fn array(&self) -> &MediaArray {
        match &self.device {
            PortDevice::Dram(d) => d.array(),
            PortDevice::Mram(d) => d.array(),
            PortDevice::Nvdimm(d) => d.array(),
        }
    }

    /// Mutable access to the DIMM's cell array.
    pub fn array_mut(&mut self) -> &mut MediaArray {
        match &mut self.device {
            PortDevice::Dram(d) => d.array_mut(),
            PortDevice::Mram(d) => d.array_mut(),
            PortDevice::Nvdimm(d) => d.array_mut(),
        }
    }

    /// Reads one 128 B line; returns data, availability time, and the
    /// media ECC outcome.
    pub fn read_line(&mut self, now: SimTime, addr: u64) -> ([u8; 128], SimTime, ReadOutcome) {
        self.run_due_scrub(now);
        self.reads += 1;
        let mut buf = [0u8; 128];
        let result = self.device.as_device_mut().read(now, addr, &mut buf);
        self.note_outcome(addr, result.outcome);
        (buf, result.done, result.outcome)
    }

    /// Writes one 128 B line; returns durability time.
    pub fn write_line(&mut self, now: SimTime, addr: u64, data: &[u8; 128]) -> SimTime {
        self.run_due_scrub(now);
        self.writes += 1;
        let done = self.device.as_device_mut().write(now, addr, data);
        self.last_write_durable = self.last_write_durable.max(done);
        done
    }

    /// Flush: completes when all previously issued writes are durable.
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        self.flushes += 1;
        now.max(self.last_write_durable)
    }

    /// (reads, writes, flushes) issued so far.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.reads, self.writes, self.flushes)
    }

    /// Power cut on this port: volatile contents are gone *now*; an
    /// armed NVDIMM's on-DIMM engine starts streaming DRAM to flash.
    /// Returns when the port is electrically quiet.
    pub fn power_cut(&mut self, now: SimTime) -> SimTime {
        // Outstanding-write bookkeeping dies with the power rail.
        self.last_write_durable = SimTime::ZERO;
        match &mut self.device {
            PortDevice::Dram(d) => {
                d.power_loss();
                now
            }
            PortDevice::Mram(d) => {
                d.power_loss();
                now
            }
            PortDevice::Nvdimm(d) => d.power_loss(now),
        }
    }

    /// Power returns on this port. Recovers whatever the media held:
    /// MRAM cells natively, an NVDIMM by restoring its save image.
    /// Every failure is typed — a torn or corrupt image leaves the
    /// port usable but *empty*, with the loss reported in the outcome,
    /// never silently presented as data.
    pub fn power_restore(&mut self, now: SimTime) -> (SimTime, PowerRestoreOutcome) {
        match &mut self.device {
            PortDevice::Dram(_) => (now, PowerRestoreOutcome::Volatile),
            PortDevice::Mram(_) => (now, PowerRestoreOutcome::Restored),
            PortDevice::Nvdimm(d) => {
                let was_lost = matches!(d.save_state(), SaveState::Lost);
                match d.power_restore(now) {
                    // Disarmed at the cut: contents are gone, and that
                    // is a loss the caller must surface.
                    Ok(ready) if was_lost => (ready, PowerRestoreOutcome::Lost),
                    Ok(ready) => (ready, PowerRestoreOutcome::Restored),
                    Err(e) => {
                        let outcome = match e {
                            RestoreError::TornSave { .. } => PowerRestoreOutcome::TornSave,
                            RestoreError::CrcMismatch { .. } => PowerRestoreOutcome::CorruptImage,
                            _ => PowerRestoreOutcome::Lost,
                        };
                        // The failed restore left the DIMM in `Lost`;
                        // a second restore brings it up usable-empty.
                        let ready = d.power_restore(now).unwrap_or(now);
                        (ready, outcome)
                    }
                }
            }
        }
    }

    /// Arms/disarms the port's NVDIMM save engine. Returns `true` if
    /// the port has one.
    pub fn set_save_armed(&mut self, armed: bool) -> bool {
        match &mut self.device {
            PortDevice::Nvdimm(d) => {
                d.set_armed(armed);
                true
            }
            _ => false,
        }
    }

    /// Installs a finite supercap budget on the port's NVDIMM save
    /// engine, if it has one.
    pub fn set_supercap_budget_nj(&mut self, nj: u64) {
        if let PortDevice::Nvdimm(d) = &mut self.device {
            d.set_supercap_budget_nj(nj);
        }
    }

    /// NVDIMM save/restore engine access (firmware path).
    pub fn as_nvdimm_mut(&mut self) -> Option<&mut NvdimmN> {
        match &mut self.device {
            PortDevice::Nvdimm(d) => Some(d.as_mut()),
            _ => None,
        }
    }

    contutto_sim::state_fields! {
        /// Serializes the controller's dynamic state: the device (contents,
        /// wear, save engine), flush bookkeeping, op counters and the
        /// patrol-scrub schedule.
        pub {
            state device,
            last_write_durable,
            reads,
            writes,
            flushes,
            scrub_interval,
            next_scrub,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_controller_roundtrip() {
        let mut mc = MemoryController::new(MemoryKind::Ddr3Dram, 1 << 30);
        let data = [0xABu8; 128];
        let t1 = mc.write_line(SimTime::ZERO, 0x100_0000, &data);
        let (back, t2, outcome) = mc.read_line(t1, 0x100_0000);
        assert_eq!(back, data);
        assert!(t2 > t1);
        assert!(outcome.is_clean());
        assert_eq!(mc.op_counts(), (1, 1, 0));
    }

    #[test]
    fn mram_controller_uses_mram_timing() {
        let mut dram = MemoryController::new(MemoryKind::Ddr3Dram, 1 << 28);
        let mut mram = MemoryController::new(MemoryKind::SttMram(MramGeneration::Pmtj), 1 << 28);
        let (_, t_dram, _) = dram.read_line(SimTime::ZERO, 0);
        let (_, t_mram, _) = mram.read_line(SimTime::ZERO, 0);
        // pMTJ: 2 x 35 ns = 70 ns for 128 B vs DRAM ~51 ns.
        assert!(t_mram > t_dram);
    }

    #[test]
    fn flush_waits_for_outstanding_writes() {
        let mut mc = MemoryController::new(MemoryKind::SttMram(MramGeneration::Pmtj), 1 << 28);
        let durable = mc.write_line(SimTime::ZERO, 0, &[1u8; 128]);
        // Flush issued immediately: completes only once the write is durable.
        let f = mc.flush(SimTime::from_ns(1));
        assert_eq!(f, durable);
        // Flush after everything is durable: immediate.
        let f2 = mc.flush(durable + SimTime::from_ns(5));
        assert_eq!(f2, durable + SimTime::from_ns(5));
        assert_eq!(mc.op_counts().2, 2);
    }

    #[test]
    fn nonvolatility_by_kind() {
        assert!(!MemoryKind::Ddr3Dram.is_nonvolatile());
        assert!(MemoryKind::SttMram(MramGeneration::Imtj).is_nonvolatile());
        assert!(MemoryKind::NvdimmN.is_nonvolatile());
    }

    #[test]
    fn nvdimm_engine_reachable() {
        let mut mc = MemoryController::new(MemoryKind::NvdimmN, 1 << 20);
        assert!(mc.as_nvdimm_mut().is_some());
        mc.write_line(SimTime::ZERO, 0, &[7u8; 128]);
        let nv = mc.as_nvdimm_mut().unwrap();
        let done = nv.power_loss(SimTime::from_ms(1));
        nv.power_restore(done).expect("clean restore");
        let (back, _, _) = mc.read_line(SimTime::from_secs(1), 0);
        assert_eq!(back, [7u8; 128]);
    }

    #[test]
    fn snapshot_restore_resumes_scrub_and_flush_bookkeeping() {
        let mut mc = MemoryController::new(MemoryKind::SttMram(MramGeneration::Pmtj), 1 << 20);
        mc.enable_scrub(SimTime::from_us(50));
        let durable = mc.write_line(SimTime::ZERO, 0x100, &[0x77u8; 128]);
        let mut img = Vec::new();
        mc.snapshot_state(&mut img);

        let mut fresh = MemoryController::new(MemoryKind::SttMram(MramGeneration::Pmtj), 1 << 20);
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();
        // Contents, flush horizon, op counters and scrub schedule all
        // came back.
        let (back, _, _) = fresh.read_line(durable, 0x100);
        assert_eq!(back, [0x77u8; 128]);
        assert_eq!(
            fresh.flush(SimTime::from_ns(1)),
            mc.flush(SimTime::from_ns(1))
        );
        assert_eq!(fresh.scrub_interval(), Some(SimTime::from_us(50)));
        let (r, w, f) = fresh.op_counts();
        assert_eq!((r, w), (1, 1));
        assert_eq!(f, 1);

        // A differently-populated port refuses the image.
        let mut dram = MemoryController::new(MemoryKind::Ddr3Dram, 1 << 20);
        let err = dram.restore_state(&mut SnapReader::new(&img)).unwrap_err();
        assert!(
            matches!(err, snapshot::RestoreError::TopologyMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn scrub_heals_latent_faults_and_traces() {
        use contutto_memdev::FaultConfig;

        let mut mc = MemoryController::new(MemoryKind::Ddr3Dram, 1 << 20);
        let tracer = Tracer::ring(256);
        mc.attach_tracer(tracer.clone());
        mc.array_mut().attach_media_faults_at(
            SimTime::ZERO,
            FaultConfig {
                transient_flips: 4,
                window: SimTime::from_us(100),
                hot_start: 0,
                hot_len: 256,
                ..FaultConfig::none(7)
            },
        );
        mc.enable_scrub(SimTime::from_us(50));
        mc.write_line(SimTime::ZERO, 0, &[0x3Cu8; 128]);
        mc.write_line(SimTime::ZERO, 128, &[0x3Cu8; 128]);
        // A demand access long after the fault window: the catch-up
        // loop replays the due scrub passes first, which heal the
        // single-bit flips before they can pair up.
        let (back, _, outcome) = mc.read_line(SimTime::from_ms(1), 0);
        assert!(!outcome.is_uncorrectable());
        assert_eq!(back, [0x3Cu8; 128]);
        let c = mc.array().ras_counters();
        assert!(c.scrub_passes >= 20, "passes {}", c.scrub_passes);
        assert!(
            tracer.count_matching(|e| matches!(e, TraceEvent::ScrubPass { .. })) > 0,
            "scrub passes must be traced"
        );
    }
}
