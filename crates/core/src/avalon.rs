//! The on-chip Avalon bus.
//!
//! Paper §3.3(iv): "MBS connects to the memory controllers via the
//! Altera Avalon bus. MBS has 2 read- and 2 write-ports on the bus,
//! because it processes 2 DMI frames every clock cycle. Also, the
//! crossing between the core- and DDR-clock domain is accomplished by
//! the Avalon bus. Using a bus-based design as opposed to direct
//! connections offers great flexibility ... memory controllers for
//! alternative memory technologies can be developed independent of
//! the rest of the ConTutto design. We only require a compatible bus
//! interface and the integration ... is plug-and-play."
//!
//! [`AvalonBus`] owns the two DIMM-port memory controllers, routes
//! line-interleaved addresses, charges the clock-domain-crossing
//! latency each way, and serializes transfers per port.

use contutto_dmi::PowerRestoreOutcome;
use contutto_memdev::{range_ok, FaultConfig, RasCounters, ReadOutcome};
use contutto_sim::{time::clocks, Cycles, SimTime, Tracer};

use crate::memctl::{MemoryController, MemoryKind};

/// Identifies one of the two MBS read ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPort {
    /// Read port of frame decoder 0.
    R0,
    /// Read port of frame decoder 1.
    R1,
}

/// Identifies one of the two MBS write ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePort {
    /// Write port serving command engines 0–15.
    W0,
    /// Write port serving command engines 16–31.
    W1,
}

/// The Avalon interconnect with two memory-controller slaves.
#[derive(Debug)]
pub struct AvalonBus {
    controllers: Vec<MemoryController>,
    cdc_cycles: u64,
    read_busy: [SimTime; 2],
    write_busy: [SimTime; 2],
    transfers: u64,
}

/// Bytes per line-interleave unit across DIMM ports.
const INTERLEAVE_BYTES: u64 = 128;

impl AvalonBus {
    /// Builds the bus over the given per-port controllers (ConTutto
    /// has two DIMM connectors — paper §3.2).
    ///
    /// # Panics
    ///
    /// Panics unless exactly 1 or 2 controllers are supplied and all
    /// have equal capacity and kind.
    pub fn new(controllers: Vec<MemoryController>, cdc_cycles: u64) -> Self {
        assert!(
            (1..=2).contains(&controllers.len()),
            "ConTutto has one or two populated DIMM ports"
        );
        assert!(
            controllers
                .windows(2)
                .all(|w| w[0].capacity_bytes() == w[1].capacity_bytes()
                    && w[0].kind() == w[1].kind()),
            "DIMM ports must be populated identically"
        );
        AvalonBus {
            controllers,
            cdc_cycles,
            read_busy: [SimTime::ZERO; 2],
            write_busy: [SimTime::ZERO; 2],
            transfers: 0,
        }
    }

    /// Total memory capacity across ports.
    pub fn capacity_bytes(&self) -> u64 {
        self.controllers.iter().map(|c| c.capacity_bytes()).sum()
    }

    /// The populated media kind.
    pub fn kind(&self) -> MemoryKind {
        self.controllers[0].kind()
    }

    /// Bus transfers performed.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    fn cdc(&self) -> SimTime {
        clocks::FPGA_FABRIC.cycles_to_time(Cycles(self.cdc_cycles))
    }

    fn route(&self, addr: u64) -> (usize, u64) {
        let unit = addr / INTERLEAVE_BYTES;
        let n = self.controllers.len() as u64;
        let port = (unit % n) as usize;
        (
            port,
            (unit / n) * INTERLEAVE_BYTES + addr % INTERLEAVE_BYTES,
        )
    }

    /// Reads one 128 B line through an MBS read port; the media ECC
    /// outcome rides along so MBS can poison the response.
    pub fn read_line(
        &mut self,
        now: SimTime,
        port: ReadPort,
        addr: u64,
    ) -> ([u8; 128], SimTime, ReadOutcome) {
        // A line beyond the media reads back poisoned: the host gets a
        // typed poisoned-read error, not an aborted process.
        if !range_ok(self.capacity_bytes(), addr, 128) {
            return ([0; 128], now, ReadOutcome::Uncorrectable);
        }
        self.transfers += 1;
        let idx = match port {
            ReadPort::R0 => 0,
            ReadPort::R1 => 1,
        };
        // Port serialization: one outstanding request occupies the
        // port for one fabric cycle.
        let start = now.max(self.read_busy[idx]);
        self.read_busy[idx] = start + clocks::FPGA_FABRIC.period();
        let issue = start + self.cdc();
        let (dev_port, local) = self.route(addr);
        let (data, dev_done, outcome) = self.controllers[dev_port].read_line(issue, local);
        (data, dev_done + self.cdc(), outcome)
    }

    /// Writes one 128 B line through an MBS write port.
    pub fn write_line(
        &mut self,
        now: SimTime,
        port: WritePort,
        addr: u64,
        data: &[u8; 128],
    ) -> SimTime {
        // A write to a line beyond the media is dropped.
        if !range_ok(self.capacity_bytes(), addr, 128) {
            return now;
        }
        self.transfers += 1;
        let idx = match port {
            WritePort::W0 => 0,
            WritePort::W1 => 1,
        };
        let start = now.max(self.write_busy[idx]);
        self.write_busy[idx] = start + clocks::FPGA_FABRIC.period();
        let issue = start + self.cdc();
        let (dev_port, local) = self.route(addr);
        let done = self.controllers[dev_port].write_line(issue, local, data);
        done + self.cdc()
    }

    /// Maintenance-path read of one line: routed to the owning port's
    /// service interface, no bus or CDC time charged (the sideband
    /// does not ride the Avalon fabric).
    pub fn sideband_read_line(&mut self, now: SimTime, addr: u64) -> ([u8; 128], bool) {
        let (dev_port, local) = self.route(addr);
        self.controllers[dev_port]
            .array_mut()
            .sideband_read_line(now, local)
    }

    /// Maintenance-path write of one line, optionally with poison.
    pub fn sideband_write_line(&mut self, addr: u64, data: &[u8; 128], poison: bool) {
        let (dev_port, local) = self.route(addr);
        self.controllers[dev_port]
            .array_mut()
            .sideband_write_line(local, data, poison);
    }

    /// Flush across all controllers (persistent-memory sync).
    pub fn flush_all(&mut self, now: SimTime) -> SimTime {
        let issue = now + self.cdc();
        let done = self
            .controllers
            .iter_mut()
            .map(|c| c.flush(issue))
            .max()
            .expect("at least one controller");
        done + self.cdc()
    }

    /// Direct span access for the Access processor / accelerators
    /// (they sit on the bus as additional masters; the span is routed
    /// to the owning port — spans must not cross the interleave
    /// granularity unless port-aligned, so accelerators address ports
    /// explicitly).
    pub fn controller_mut(&mut self, port: usize) -> &mut MemoryController {
        &mut self.controllers[port]
    }

    /// Number of populated DIMM ports.
    pub fn ports(&self) -> usize {
        self.controllers.len()
    }

    /// Routes RAS trace events from every port into a shared tracer.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        for c in &mut self.controllers {
            c.attach_tracer(tracer.clone());
        }
    }

    /// Enables patrol scrub on every port.
    pub fn enable_scrub(&mut self, interval: SimTime) {
        for c in &mut self.controllers {
            c.enable_scrub(interval);
        }
    }

    /// Enables patrol scrub on every port mid-run, first pass due one
    /// interval after `now`.
    pub fn enable_scrub_at(&mut self, now: SimTime, interval: SimTime) {
        for c in &mut self.controllers {
            c.enable_scrub_at(now, interval);
        }
    }

    /// Disables patrol scrub on every port.
    pub fn disable_scrub(&mut self) {
        for c in &mut self.controllers {
            c.disable_scrub();
        }
    }

    /// Current patrol-scrub interval. All ports are armed together, so
    /// the first port's interval speaks for the bus.
    pub fn scrub_interval(&self) -> Option<SimTime> {
        self.controllers.first().and_then(|c| c.scrub_interval())
    }

    /// Arms a media-fault injector on every port with the flip
    /// schedule starting at `now`. Each port's seed is decorrelated so
    /// the two DIMMs do not fail in lock-step.
    pub fn attach_media_faults_at(&mut self, now: SimTime, cfg: FaultConfig) {
        for (i, c) in self.controllers.iter_mut().enumerate() {
            let mut port_cfg = cfg;
            port_cfg.seed = cfg.seed.wrapping_add(i as u64 * 0x9E37_79B9);
            c.array_mut().attach_media_faults_at(now, port_cfg);
        }
    }

    /// Power cut across every port: volatile contents are gone, armed
    /// NVDIMM save engines run on supercap. Port-busy bookkeeping is
    /// reset — the fabric comes back idle. Returns when the last port
    /// is quiescent.
    pub fn power_cut(&mut self, now: SimTime) -> SimTime {
        self.read_busy = [SimTime::ZERO; 2];
        self.write_busy = [SimTime::ZERO; 2];
        self.controllers
            .iter_mut()
            .map(|c| c.power_cut(now))
            .max()
            .expect("at least one controller")
    }

    /// Power restore across every port. Returns when the last port is
    /// serviceable and the *worst* per-port outcome (one torn DIMM
    /// marks the whole bus torn — losses never average away).
    pub fn power_restore(&mut self, now: SimTime) -> (SimTime, PowerRestoreOutcome) {
        let mut ready = now;
        let mut worst = PowerRestoreOutcome::Volatile;
        for c in &mut self.controllers {
            let (t, outcome) = c.power_restore(now);
            ready = ready.max(t);
            worst = worst.max(outcome);
        }
        (ready, worst)
    }

    /// Arms/disarms every port's NVDIMM save engine. Returns `true`
    /// if at least one port has one.
    pub fn set_save_armed(&mut self, armed: bool) -> bool {
        let mut any = false;
        for c in &mut self.controllers {
            any |= c.set_save_armed(armed);
        }
        any
    }

    /// Installs a finite supercap budget on every port's save engine.
    pub fn set_supercap_budget_nj(&mut self, nj: u64) {
        for c in &mut self.controllers {
            c.set_supercap_budget_nj(nj);
        }
    }

    /// Ports on the bus, checked on restore like the CDC depth.
    fn port_count(&self) -> usize {
        self.controllers.len()
    }

    contutto_sim::state_fields! {
        /// Serializes the bus's dynamic state: every port controller plus
        /// the port-busy bookkeeping and transfer counter. Port count and
        /// CDC depth are construction parameters and only cross-checked.
        pub {
            same_as(Self::port_count) => "avalon port count or cdc depth",
            same cdc_cycles => "avalon port count or cdc depth",
            state each controllers,
            each read_busy,
            each write_busy,
            transfers,
        }
    }

    /// Media RAS counters summed across ports.
    pub fn ras_counters(&self) -> RasCounters {
        self.controllers
            .iter()
            .map(|c| c.array().ras_counters())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> AvalonBus {
        AvalonBus::new(
            vec![
                MemoryController::new(MemoryKind::Ddr3Dram, 1 << 29),
                MemoryController::new(MemoryKind::Ddr3Dram, 1 << 29),
            ],
            5,
        )
    }

    #[test]
    fn roundtrip_through_bus() {
        let mut b = bus();
        let data = [0x3Cu8; 128];
        let t = b.write_line(SimTime::ZERO, WritePort::W0, 0x4000, &data);
        let (back, _, _) = b.read_line(t, ReadPort::R0, 0x4000);
        assert_eq!(back, data);
        assert_eq!(b.transfers(), 2);
    }

    #[test]
    fn cdc_charged_both_ways() {
        let mut b_fast = AvalonBus::new(
            vec![MemoryController::new(MemoryKind::Ddr3Dram, 1 << 29)],
            0,
        );
        let mut b_slow = AvalonBus::new(
            vec![MemoryController::new(MemoryKind::Ddr3Dram, 1 << 29)],
            5,
        );
        let (_, t_fast, _) = b_fast.read_line(SimTime::ZERO, ReadPort::R0, 0);
        let (_, t_slow, _) = b_slow.read_line(SimTime::ZERO, ReadPort::R0, 0);
        // 5 cycles x 4 ns x 2 directions = 40 ns extra.
        assert_eq!(t_slow - t_fast, SimTime::from_ns(40));
    }

    #[test]
    fn lines_interleave_across_two_ports() {
        let b = bus();
        assert_eq!(b.route(0), (0, 0));
        assert_eq!(b.route(128), (1, 0));
        assert_eq!(b.route(256), (0, 128));
        assert_eq!(b.route(300), (0, 128 + 44));
    }

    #[test]
    fn single_port_routes_identity() {
        let b = AvalonBus::new(
            vec![MemoryController::new(MemoryKind::Ddr3Dram, 1 << 29)],
            5,
        );
        assert_eq!(b.route(12345), (0, 12345));
    }

    #[test]
    fn port_serialization() {
        let mut b = bus();
        // Two reads on the same port at the same instant: the second
        // is delayed by one fabric cycle at the port.
        let (_, t1, _) = b.read_line(SimTime::ZERO, ReadPort::R0, 0);
        let (_, t2, _) = b.read_line(SimTime::ZERO, ReadPort::R0, 256);
        assert!(t2 >= t1, "same-bank same-port second access serializes");
        // Different port, different DIMM: independent.
        let (_, t3, _) = b.read_line(SimTime::ZERO, ReadPort::R1, 128);
        assert_eq!(t3, t1);
    }

    #[test]
    fn flush_all_crosses_cdc() {
        let mut b = AvalonBus::new(
            vec![MemoryController::new(
                MemoryKind::SttMram(contutto_memdev::MramGeneration::Pmtj),
                1 << 28,
            )],
            5,
        );
        let durable = b.write_line(SimTime::ZERO, WritePort::W0, 0, &[1u8; 128]);
        let f = b.flush_all(SimTime::from_ns(1));
        assert!(f >= durable);
    }

    #[test]
    #[should_panic(expected = "identically")]
    fn mismatched_ports_rejected() {
        let _ = AvalonBus::new(
            vec![
                MemoryController::new(MemoryKind::Ddr3Dram, 1 << 29),
                MemoryController::new(MemoryKind::Ddr3Dram, 1 << 28),
            ],
            5,
        );
    }
}
