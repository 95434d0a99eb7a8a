//! The assembled ConTutto buffer.
//!
//! [`ConTutto`] wires the PHY ([`crate::phy`]), MBI ([`crate::mbi`]),
//! MBS ([`crate::mbs`]) and Avalon/memory-controller stack
//! ([`crate::avalon`], [`crate::memctl`]) into a
//! [`contutto_dmi::DmiBuffer`] that the POWER8 channel model can plug
//! in wherever a Centaur sat — the "base ConTutto design ... the bare
//! minimum logic to enable ConTutto to replace a CDIMM" (paper §3.3),
//! plus the extensions: the latency knob (§4.1), non-DRAM memory
//! (§4.2) and the acceleration hooks (§4.3).

use contutto_dmi::buffer::{DmiBuffer, MediaFaultSpec, PowerRestoreOutcome};
use contutto_dmi::frame::{DownstreamPayload, UpstreamPayload};
use contutto_memdev::{line_ok, FaultConfig, MramGeneration, RasCounters};
use contutto_sim::{MetricsRegistry, SimTime, Tracer};

use crate::avalon::AvalonBus;
use crate::mbi::MbiConfig;
use crate::mbs::{MbsConfig, MbsLogic, MbsStats};
use crate::memctl::{MemoryController, MemoryKind};
use crate::phy::PhyConfig;

/// Full configuration of a ConTutto card's FPGA design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContuttoConfig {
    /// Design-variant name for reports.
    pub name: &'static str,
    /// PHY parameters (mux ratio, clock-crossing choice).
    pub phy: PhyConfig,
    /// MBI parameters (CRC pipeline, freeze length).
    pub mbi: MbiConfig,
    /// MBS pipeline + knob.
    pub mbs: MbsConfig,
    /// Avalon clock-domain-crossing cycles.
    pub avalon_cdc_cycles: u64,
}

impl ContuttoConfig {
    /// The base (optimized) ConTutto design of paper §3.3.
    pub fn base() -> Self {
        ContuttoConfig {
            name: "contutto-base",
            phy: PhyConfig::optimized(),
            mbi: MbiConfig::optimized(),
            mbs: MbsConfig::base(),
            avalon_cdc_cycles: 5,
        }
    }

    /// Base design with the latency knob at the given position
    /// (paper §4.1 Table 3: +24 ns per step).
    pub fn with_knob(knob: u8) -> Self {
        assert!(knob <= 7, "knob has 8 positions (0-7)");
        let mut cfg = ContuttoConfig::base();
        cfg.name = match knob {
            0 => "contutto-base",
            1 => "contutto-knob-1",
            2 => "contutto-knob-2",
            3 => "contutto-knob-3",
            4 => "contutto-knob-4",
            5 => "contutto-knob-5",
            6 => "contutto-knob-6",
            _ => "contutto-knob-7",
        };
        cfg.mbs.latency_knob = knob;
        cfg
    }

    /// The naive first-cut FPGA design: receiver clock-crossing FIFO
    /// in the path and 4-stage CRC. Its FRTL exceeds the POWER8
    /// limit — the design-story ablation of paper §3.3(ii).
    pub fn naive() -> Self {
        ContuttoConfig {
            name: "contutto-naive",
            phy: PhyConfig::naive(),
            mbi: MbiConfig::naive(),
            ..ContuttoConfig::base()
        }
    }

    /// One-way receive latency through PHY + MBI.
    pub fn rx_latency(&self) -> SimTime {
        self.phy.rx_latency() + self.mbi.rx_latency()
    }

    /// One-way transmit latency through MBI + PHY.
    pub fn tx_latency(&self) -> SimTime {
        self.mbi.tx_latency() + self.phy.tx_latency()
    }
}

impl Default for ContuttoConfig {
    fn default() -> Self {
        ContuttoConfig::base()
    }
}

/// What is plugged into the card's two DDR3 DIMM connectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryPopulation {
    /// Media kind (both connectors are populated identically).
    pub kind: MemoryKind,
    /// Capacity per DIMM, bytes.
    pub dimm_capacity: u64,
    /// Populated connectors (1 or 2).
    pub dimms: u32,
}

impl MemoryPopulation {
    /// The paper's DRAM experiments: 2 × 4 GB DDR3 (§4.1: "a total of
    /// 8 GB DDR3 memory behind ConTutto (4 GB in each DIMM slot)").
    pub fn dram_8gb() -> Self {
        MemoryPopulation {
            kind: MemoryKind::Ddr3Dram,
            dimm_capacity: 4 << 30,
            dimms: 2,
        }
    }

    /// The paper's MRAM setup: 2 × 256 MB STT-MRAM per card (§4.2).
    pub fn mram_512mb(gen: MramGeneration) -> Self {
        MemoryPopulation {
            kind: MemoryKind::SttMram(gen),
            dimm_capacity: 256 << 20,
            dimms: 2,
        }
    }

    /// NVDIMM-N population (2 × 4 GB).
    pub fn nvdimm_8gb() -> Self {
        MemoryPopulation {
            kind: MemoryKind::NvdimmN,
            dimm_capacity: 4 << 30,
            dimms: 2,
        }
    }

    /// Total capacity across connectors.
    pub fn total_bytes(&self) -> u64 {
        self.dimm_capacity * u64::from(self.dimms)
    }
}

/// Aggregated ConTutto statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContuttoStats {
    /// MBS-level counters.
    pub mbs: MbsStats,
    /// Avalon transfers.
    pub avalon_transfers: u64,
}

/// A ConTutto card's FPGA logic, ready to sit on a DMI channel.
#[derive(Debug)]
pub struct ConTutto {
    cfg: ContuttoConfig,
    population: MemoryPopulation,
    mbs: MbsLogic,
}

impl ConTutto {
    /// Builds the card with the given design variant and DIMM
    /// population.
    ///
    /// # Panics
    ///
    /// Panics if the population requests more than the card's two
    /// DIMM connectors.
    pub fn new(cfg: ContuttoConfig, population: MemoryPopulation) -> Self {
        assert!(
            (1..=2).contains(&population.dimms),
            "the card has two DIMM connectors"
        );
        let controllers: Vec<MemoryController> = (0..population.dimms)
            .map(|_| MemoryController::new(population.kind, population.dimm_capacity))
            .collect();
        let avalon = AvalonBus::new(controllers, cfg.avalon_cdc_cycles);
        let mbs = MbsLogic::new(cfg.mbs, avalon, cfg.rx_latency(), cfg.tx_latency());
        ConTutto {
            cfg,
            population,
            mbs,
        }
    }

    /// The design configuration.
    pub fn config(&self) -> &ContuttoConfig {
        &self.cfg
    }

    /// The DIMM population.
    pub fn population(&self) -> MemoryPopulation {
        self.population
    }

    /// Statistics so far.
    pub fn stats(&self) -> ContuttoStats {
        ContuttoStats {
            mbs: self.mbs.stats(),
            avalon_transfers: self.mbs.avalon().transfers(),
        }
    }

    /// Runtime latency-knob control (software-visible register).
    pub fn set_latency_knob(&mut self, knob: u8) {
        self.mbs.set_latency_knob(knob);
    }

    /// Direct access to the MBS (accelerators, Access processor and
    /// card firmware use this).
    pub fn mbs_mut(&mut self) -> &mut MbsLogic {
        &mut self.mbs
    }

    /// Arms a deterministic media-fault injector on every DIMM port,
    /// its flip schedule starting at time zero.
    pub fn attach_media_faults(&mut self, cfg: FaultConfig) {
        self.mbs
            .avalon_mut()
            .attach_media_faults_at(SimTime::ZERO, cfg);
    }

    /// Enables background patrol scrub on every DIMM port.
    pub fn enable_scrub(&mut self, interval: SimTime) {
        self.mbs.avalon_mut().enable_scrub(interval);
    }

    /// Media RAS counters aggregated across DIMM ports.
    pub fn ras_counters(&self) -> RasCounters {
        self.mbs.avalon().ras_counters()
    }
}

impl DmiBuffer for ConTutto {
    fn push_downstream(&mut self, now: SimTime, payload: DownstreamPayload) {
        self.mbs.handle_downstream(now, payload);
    }

    fn pull_upstream(&mut self, now: SimTime) -> Option<UpstreamPayload> {
        self.mbs.pull_upstream(now)
    }

    fn next_upstream_ready(&self) -> Option<SimTime> {
        self.mbs.next_upstream_ready()
    }

    fn frtl_turnaround(&self) -> SimTime {
        self.cfg.rx_latency() + self.cfg.tx_latency()
    }

    fn name(&self) -> &str {
        self.cfg.name
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.mbs.attach_tracer(tracer);
    }

    fn sideband_read_line(&mut self, now: SimTime, addr: u64) -> Option<([u8; 128], bool)> {
        // The sideband takes external addresses (maintenance tools,
        // fault reproducers): refuse an out-of-range or unaligned line
        // instead of letting the array's assertions abort the process.
        if !line_ok(self.mbs.avalon().capacity_bytes(), addr) {
            return None;
        }
        Some(self.mbs.avalon_mut().sideband_read_line(now, addr))
    }

    fn sideband_write_line(&mut self, addr: u64, data: &[u8; 128], poison: bool) -> bool {
        if !line_ok(self.mbs.avalon().capacity_bytes(), addr) {
            return false;
        }
        self.mbs
            .avalon_mut()
            .sideband_write_line(addr, data, poison);
        true
    }

    /// The MBS flush extension run under EPOW (paper §4.2: "we
    /// extended the MBS logic to add a special flush command ... this
    /// functionality does not exist in the Centaur ASIC"): drives
    /// every buffered write to the media and charges the hold-up rail
    /// a small fixed cost per DIMM port for the bus activity.
    fn epow_flush(&mut self, now: SimTime, energy_nj: &mut u64) -> SimTime {
        const EPOW_FLUSH_COST_PER_PORT_NJ: u64 = 1_000;
        let cost = EPOW_FLUSH_COST_PER_PORT_NJ * self.mbs.avalon().ports() as u64;
        *energy_nj = energy_nj.saturating_sub(cost);
        self.mbs.avalon_mut().flush_all(now)
    }

    fn power_cut(&mut self, now: SimTime) -> SimTime {
        // Fabric state (engines, response queues) dies instantly; the
        // DIMM ports then run their own power-loss paths (an armed
        // NVDIMM keeps saving on supercap).
        self.mbs.discard_volatile();
        self.mbs.avalon_mut().power_cut(now)
    }

    fn power_restore(&mut self, now: SimTime) -> (SimTime, PowerRestoreOutcome) {
        self.mbs.avalon_mut().power_restore(now)
    }

    fn set_save_armed(&mut self, armed: bool) -> bool {
        self.mbs.avalon_mut().set_save_armed(armed)
    }

    fn set_supercap_budget_nj(&mut self, nj: u64) {
        self.mbs.avalon_mut().set_supercap_budget_nj(nj);
    }

    fn arm_media_faults(&mut self, now: SimTime, spec: MediaFaultSpec) -> bool {
        self.mbs.avalon_mut().attach_media_faults_at(
            now,
            FaultConfig {
                seed: spec.seed,
                transient_flips: spec.transient_flips,
                window: spec.window,
                hot_start: spec.hot_start,
                hot_len: spec.hot_len.max(1),
                stuck_cells: spec.stuck_cells,
                wear_acceleration: 0.0,
            },
        );
        true
    }

    fn set_scrub(&mut self, now: SimTime, interval: Option<SimTime>) -> bool {
        match interval {
            Some(interval) => self.mbs.avalon_mut().enable_scrub_at(now, interval),
            None => self.mbs.avalon_mut().disable_scrub(),
        }
        true
    }

    fn scrub_interval(&self) -> Option<SimTime> {
        self.mbs.avalon().scrub_interval()
    }

    // All dynamic card state lives in the MBS and below (Avalon,
    // controllers, media); the PHY/MBI layers are pure latency.
    contutto_sim::state_fields!({
        state mbs,
    });

    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        let stats = self.stats();
        let s = stats.mbs;
        let media = self.ras_counters();
        for (name, value) in [
            ("reads", s.reads),
            ("writes", s.writes),
            ("rmws", s.rmws),
            ("inline_accel_ops", s.inline_accel_ops),
            ("flushes", s.flushes),
            ("write_beats", s.write_beats),
            ("coalesced_dones", s.coalesced_dones),
            ("avalon_transfers", stats.avalon_transfers),
            ("corrected_reads", s.corrected_reads),
            ("poisoned_reads", s.poisoned_reads),
            ("poisoned_rmws", s.poisoned_rmws),
            ("frames_orphaned", s.frames_orphaned),
            ("media.demand_corrected", media.demand_corrected),
            ("media.demand_uncorrectable", media.demand_uncorrectable),
            ("media.scrub_corrected", media.scrub_corrected),
            ("media.scrub_uncorrectable", media.scrub_uncorrectable),
            ("media.scrub_passes", media.scrub_passes),
            ("media.pages_retired", media.pages_retired),
        ] {
            registry.set_counter(&format!("{prefix}.{name}"), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contutto_dmi::command::{CacheLine, Tag};
    use contutto_dmi::frame::{line_to_downstream_beats, CommandHeader, LineAssembler};
    use contutto_sim::snapshot::{self, SnapReader};

    fn t(n: u8) -> Tag {
        Tag::new(n).unwrap()
    }

    fn drain(c: &mut ConTutto, until: SimTime) -> Vec<(SimTime, UpstreamPayload)> {
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
    fn sideband_refuses_out_of_range_addresses() {
        let mut c = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
        let cap = c.population().total_bytes();
        for addr in [cap, u64::MAX - 64, 1, 64] {
            assert!(c.sideband_read_line(SimTime::ZERO, addr).is_none());
            assert!(!c.sideband_write_line(addr, &[0u8; 128], false));
        }
        // In-range maintenance access still works.
        assert!(c.sideband_read_line(SimTime::ZERO, cap - 128).is_some());
    }

    #[test]
    fn base_card_roundtrip_on_dram() {
        let mut c = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
        let line = CacheLine::patterned(11);
        c.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: t(0),
                header: CommandHeader::Write { addr: 0x10_0000 },
            },
        );
        for (i, beat) in line_to_downstream_beats(t(0), &line)
            .into_iter()
            .enumerate()
        {
            c.push_downstream(SimTime::from_ns(2) * (i as u64 + 1), beat);
        }
        drain(&mut c, SimTime::from_us(2));
        c.push_downstream(
            SimTime::from_us(3),
            DownstreamPayload::Command {
                tag: t(1),
                header: CommandHeader::Read { addr: 0x10_0000 },
            },
        );
        let resp = drain(&mut c, SimTime::from_us(5));
        let mut asm = LineAssembler::upstream();
        for (_, p) in &resp {
            if let UpstreamPayload::ReadData { beat, data, .. } = p {
                asm.add_beat(*beat, data);
            }
        }
        assert_eq!(asm.into_line(), line);
    }

    #[test]
    fn mram_population_works_and_is_persistent_media() {
        let mut c = ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::mram_512mb(MramGeneration::Pmtj),
        );
        assert!(c.mbs_mut().avalon().kind().is_nonvolatile());
        assert_eq!(c.population().total_bytes(), 512 << 20);
        // Flush is supported on the MRAM card.
        c.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: t(7),
                header: CommandHeader::Flush,
            },
        );
        let resp = drain(&mut c, SimTime::from_us(2));
        assert!(matches!(
            resp.last().unwrap().1,
            UpstreamPayload::Done { first, .. } if first == t(7)
        ));
        assert_eq!(c.stats().mbs.flushes, 1);
    }

    #[test]
    fn nvdimm_card_survives_power_cycle_and_torn_save_is_typed() {
        let pop = MemoryPopulation {
            kind: MemoryKind::NvdimmN,
            dimm_capacity: 512 << 10,
            dimms: 2,
        };
        // Armed card with an ideal supercap: the image comes back.
        let mut c = ConTutto::new(ContuttoConfig::base(), pop);
        let line = [0x5Au8; 128];
        assert!(c.sideband_write_line(0x100, &line, false));
        assert!(c.set_save_armed(true));
        let quiet = c.power_cut(SimTime::from_ms(1));
        assert!(quiet > SimTime::from_ms(1), "save engine takes time");
        let (ready, outcome) = c.power_restore(quiet + SimTime::from_secs(1));
        assert_eq!(outcome, PowerRestoreOutcome::Restored);
        assert!(ready > quiet);
        let (back, poison) = c.sideband_read_line(ready, 0x100).unwrap();
        assert_eq!(back, line);
        assert!(!poison);

        // Starved supercap: the save tears and the loss is typed.
        let mut c = ConTutto::new(ContuttoConfig::base(), pop);
        c.sideband_write_line(0x100, &line, false);
        c.set_save_armed(true);
        c.set_supercap_budget_nj(contutto_memdev::SAVE_COST_PER_PAGE_NJ * 4);
        let quiet = c.power_cut(SimTime::from_ms(1));
        let (_, outcome) = c.power_restore(quiet + SimTime::from_secs(1));
        assert_eq!(outcome, PowerRestoreOutcome::TornSave);
        // After the typed loss the card serves traffic empty, never
        // presenting the torn image as data.
        let (back, _) = c.sideband_read_line(SimTime::from_secs(2), 0x100).unwrap();
        assert_eq!(back, [0u8; 128]);
    }

    #[test]
    fn dram_card_power_cycle_is_volatile() {
        let mut c = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
        c.sideband_write_line(0x2000, &[9u8; 128], false);
        assert!(!c.set_save_armed(true), "no save engine on DRAM");
        let quiet = c.power_cut(SimTime::from_ms(1));
        assert_eq!(quiet, SimTime::from_ms(1), "nothing to save");
        let (_, outcome) = c.power_restore(quiet);
        assert_eq!(outcome, PowerRestoreOutcome::Volatile);
        let (back, _) = c.sideband_read_line(quiet, 0x2000).unwrap();
        assert_eq!(back, [0u8; 128]);
    }

    #[test]
    fn naive_design_has_higher_turnaround() {
        let base = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
        let naive = ConTutto::new(ContuttoConfig::naive(), MemoryPopulation::dram_8gb());
        // CDC FIFO (4 cy) + 2x2 extra CRC stages = 8 cy = 32 ns.
        assert_eq!(
            naive.frtl_turnaround() - base.frtl_turnaround(),
            SimTime::from_ns(32)
        );
    }

    #[test]
    fn base_turnaround_value() {
        let c = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
        // phy 5+5, mbi 3+2 cycles = 15 cy = 60 ns.
        assert_eq!(c.frtl_turnaround(), SimTime::from_ns(60));
    }

    #[test]
    fn knob_config_names() {
        assert_eq!(ContuttoConfig::with_knob(0).name, "contutto-base");
        assert_eq!(ContuttoConfig::with_knob(6).name, "contutto-knob-6");
    }

    #[test]
    fn read_latency_through_card_is_fpga_slow() {
        let mut c = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
        c.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: t(0),
                header: CommandHeader::Read { addr: 0 },
            },
        );
        let resp = drain(&mut c, SimTime::from_us(2));
        let done = resp.last().unwrap().0;
        // The FPGA path alone is ~350 ns — far above Centaur's ~70 ns.
        assert!(done > SimTime::from_ns(300), "done {done}");
        assert!(done < SimTime::from_ns(430), "done {done}");
    }

    #[test]
    fn snapshot_restore_card_resumes_identically() {
        let mut c = ConTutto::new(ContuttoConfig::with_knob(2), MemoryPopulation::dram_8gb());
        let line = CacheLine::patterned(31);
        c.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: t(0),
                header: CommandHeader::Write { addr: 0x8000 },
            },
        );
        for (i, beat) in line_to_downstream_beats(t(0), &line)
            .into_iter()
            .enumerate()
        {
            c.push_downstream(SimTime::from_ns(2) * (i as u64 + 1), beat);
        }
        drain(&mut c, SimTime::from_us(2));
        // A read whose response is still queued rides across the
        // snapshot boundary.
        c.push_downstream(
            SimTime::from_us(3),
            DownstreamPayload::Command {
                tag: t(1),
                header: CommandHeader::Read { addr: 0x8000 },
            },
        );
        let mut img = Vec::new();
        c.snapshot_state(&mut img);

        let mut fresh = ConTutto::new(ContuttoConfig::with_knob(2), MemoryPopulation::dram_8gb());
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();
        let a = drain(&mut c, SimTime::from_us(6));
        let b = drain(&mut fresh, SimTime::from_us(6));
        assert_eq!(a, b, "restored card must replay the exact response stream");
        assert_eq!(c.stats(), fresh.stats());
        assert_eq!(c.ras_counters(), fresh.ras_counters());

        // A card with a different population refuses the image.
        let mut mram = ConTutto::new(
            ContuttoConfig::with_knob(2),
            MemoryPopulation::mram_512mb(MramGeneration::Pmtj),
        );
        let err = mram.restore_state(&mut SnapReader::new(&img)).unwrap_err();
        assert!(
            matches!(err, snapshot::RestoreError::TopologyMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "two DIMM connectors")]
    fn population_validation() {
        let _ = ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation {
                kind: MemoryKind::Ddr3Dram,
                dimm_capacity: 1 << 30,
                dimms: 3,
            },
        );
    }
}
