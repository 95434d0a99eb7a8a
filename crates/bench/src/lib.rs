//! # contutto-bench
//!
//! Experiment runners that regenerate **every table and figure** of
//! the ConTutto paper from the simulated system. The `tables` binary
//! prints them and `tests/experiments.rs` checks them against the
//! paper.
//!
//! | function | paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — FPGA resource utilization |
//! | [`table2`] | Table 2 — Centaur latency knobs vs DB2 BLU runtime |
//! | [`figure6`] | Figure 6 — SPEC CINT2006 ratios on Centaur settings |
//! | [`table3`] | Table 3 — latency configurations (Centaur vs ConTutto + knob) |
//! | [`figure7`] | Figure 7 — SPEC ratios on ConTutto (Centaur baseline) |
//! | [`figure8`] | Figure 8 — NVM endurance comparison |
//! | [`table4`] | Table 4 — GPFS IOPS per persistent store |
//! | [`figure9_10`] | Figures 9 & 10 — FIO IOPS and latency per technology/attach point |
//! | [`table5`] | Table 5 — near-memory acceleration vs software |
//!
//! Every latency used by the application models is **measured** with
//! the dependent-load probe on the simulated channel of the
//! corresponding configuration — the same methodology as the paper.

pub mod chaos;
pub mod checkpoint;
pub mod failover;
pub mod faults;
pub mod media;
pub mod overload;
pub mod pipeline;
pub mod power;
pub mod report;
pub mod sweep;
pub mod traffic;

use contutto_centaur::{Centaur, CentaurConfig};
use contutto_core::accel::block::{BlockAccelDriver, BlockOp, ControlBlock};
use contutto_core::avalon::AvalonBus;
use contutto_core::memctl::{MemoryController, MemoryKind};
use contutto_core::resources::ResourceReport;
use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_memdev::endurance::{figure8_dataset, EnduranceRow};
use contutto_power8::channel::{ChannelConfig, DmiChannel};
use contutto_power8::latency::{LatencyProbe, MeasurementLevel};
use contutto_sim::SimTime;
use contutto_storage::blockdev::{
    mram_contutto_device, nvdimm_contutto_device, BlockDevice, PcieCard,
};
use contutto_workloads::baseline::SoftwareBaselines;
use contutto_workloads::db2::Db2Workload;
use contutto_workloads::fio::{FioEngine, FioPattern, FioResult};
use contutto_workloads::gpfs::{GpfsExperiment, GpfsRow};
use contutto_workloads::spec::{self, SpecModel};

/// Builds a channel for a Centaur configuration.
pub fn centaur_channel(cfg: CentaurConfig) -> DmiChannel {
    DmiChannel::new(
        ChannelConfig::centaur(),
        Box::new(Centaur::new(cfg, 8 << 30)),
    )
}

/// Builds a channel for a ConTutto configuration (8 GB DRAM).
pub fn contutto_channel(cfg: ContuttoConfig) -> DmiChannel {
    DmiChannel::new(
        ChannelConfig::contutto(),
        Box::new(ConTutto::new(cfg, MemoryPopulation::dram_8gb())),
    )
}

// ---------------------------------------------------------------- Table 1

/// Table 1: the FPGA resource report (per-block inventory + totals).
pub fn table1() -> ResourceReport {
    ResourceReport::for_base_design()
}

// ---------------------------------------------------------------- Table 2

/// One Table 2 row: a Centaur setting, its measured latency and the
/// DB2 BLU suite runtime at that latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Setting label.
    pub setting: &'static str,
    /// Measured latency to memory (nest level), ns.
    pub latency_ns: f64,
    /// DB2 BLU 29-query runtime, seconds.
    pub db2_seconds: f64,
}

/// Table 2: Centaur latency knobs vs DB2 BLU runtime.
pub fn table2() -> Vec<Table2Row> {
    let probe = LatencyProbe::default();
    let db2 = Db2Workload::paper_suite();
    CentaurConfig::table2_settings()
        .into_iter()
        .map(|cfg| {
            let setting = cfg.name;
            let mut ch = centaur_channel(cfg);
            let latency = probe.measure(&mut ch, MeasurementLevel::Nest);
            Table2Row {
                setting,
                latency_ns: latency.as_ns_f64(),
                db2_seconds: db2.total_seconds(latency),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 6

/// One series point for Figures 6/7: a benchmark's ratio at a setting.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecPoint {
    /// Configuration label.
    pub setting: String,
    /// Measured latency, ns.
    pub latency_ns: f64,
    /// Benchmark name.
    pub benchmark: &'static str,
    /// SPEC ratio.
    pub ratio: f64,
}

/// Figure 6: SPEC CINT2006 ratios across the Centaur settings.
pub fn figure6() -> Vec<SpecPoint> {
    let probe = LatencyProbe::default();
    let model = SpecModel::default();
    let mut points = Vec::new();
    let settings = CentaurConfig::table2_settings();
    let base_latency = {
        let mut ch = centaur_channel(settings[0].clone());
        probe.measure(&mut ch, MeasurementLevel::Nest)
    };
    for cfg in settings {
        let name = cfg.name;
        let mut ch = centaur_channel(cfg);
        let latency = probe.measure(&mut ch, MeasurementLevel::Nest);
        for b in spec::suite() {
            points.push(SpecPoint {
                setting: name.to_string(),
                latency_ns: latency.as_ns_f64(),
                benchmark: b.name,
                ratio: model.ratio(&b, latency, base_latency),
            });
        }
    }
    points
}

// ---------------------------------------------------------------- Table 3

/// One Table 3 row: a configuration and its measured latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Configuration label.
    pub configuration: String,
    /// Measured software-level latency, ns.
    pub latency_ns: f64,
}

/// Table 3: the latency configurations — optimized Centaur,
/// ConTutto base and the knob settings (plus the functionality-matched
/// Centaur the prose compares against).
pub fn table3() -> Vec<Table3Row> {
    let probe = LatencyProbe::default();
    let mut rows = Vec::new();
    let mut ch = centaur_channel(CentaurConfig::optimized());
    rows.push(Table3Row {
        configuration: "Centaur".into(),
        latency_ns: probe
            .measure(&mut ch, MeasurementLevel::Software)
            .as_ns_f64(),
    });
    for knob in [0u8, 2, 6, 7] {
        let mut ch = contutto_channel(ContuttoConfig::with_knob(knob));
        let label = if knob == 0 {
            "ConTutto base".to_string()
        } else {
            format!("ConTutto + knob @ {knob}")
        };
        rows.push(Table3Row {
            configuration: label,
            latency_ns: probe
                .measure(&mut ch, MeasurementLevel::Software)
                .as_ns_f64(),
        });
    }
    let mut ch = centaur_channel(CentaurConfig::contutto_matched());
    rows.push(Table3Row {
        configuration: "Centaur (matched to ConTutto functions)".into(),
        latency_ns: probe
            .measure(&mut ch, MeasurementLevel::Software)
            .as_ns_f64(),
    });
    rows
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7: SPEC ratios on ConTutto latencies with Centaur baseline.
pub fn figure7() -> Vec<SpecPoint> {
    let probe = LatencyProbe::default();
    let model = SpecModel::default();
    let base_latency = {
        let mut ch = centaur_channel(CentaurConfig::optimized());
        probe.measure(&mut ch, MeasurementLevel::Software)
    };
    let mut points = Vec::new();
    for knob in [0u8, 2, 6, 7] {
        let cfg = ContuttoConfig::with_knob(knob);
        let name = cfg.name;
        let mut ch = contutto_channel(cfg);
        let latency = probe.measure(&mut ch, MeasurementLevel::Software);
        for b in spec::suite() {
            points.push(SpecPoint {
                setting: name.to_string(),
                latency_ns: latency.as_ns_f64(),
                benchmark: b.name,
                ratio: model.ratio(&b, latency, base_latency),
            });
        }
    }
    points
}

/// The Figure 7 summary statistics at the slowest knob, with latencies
/// measured in-simulator.
pub fn figure7_summary() -> spec::DegradationSummary {
    let probe = LatencyProbe::default();
    let base = {
        let mut ch = centaur_channel(CentaurConfig::optimized());
        probe.measure(&mut ch, MeasurementLevel::Software)
    };
    let slow = {
        let mut ch = contutto_channel(ContuttoConfig::with_knob(7));
        probe.measure(&mut ch, MeasurementLevel::Software)
    };
    spec::summarize(&SpecModel::default(), slow, base)
}

// ---------------------------------------------------------------- Figure 8

/// Figure 8: the endurance dataset.
pub fn figure8() -> Vec<EnduranceRow> {
    figure8_dataset()
}

// ---------------------------------------------------------------- Table 4

/// Table 4: GPFS IOPS rows.
pub fn table4() -> Vec<GpfsRow> {
    GpfsExperiment::default().table4()
}

// ------------------------------------------------------------ Figures 9/10

/// The FIO device set of Figures 9/10.
pub fn fio_devices() -> Vec<Box<dyn BlockDevice>> {
    vec![
        Box::new(PcieCard::flash_x4()),
        Box::new(PcieCard::nvram()),
        Box::new(PcieCard::mram()),
        Box::new(nvdimm_contutto_device()),
        Box::new(mram_contutto_device()),
    ]
}

/// Figures 9 and 10: FIO results (IOPS and latency) for every device
/// and both patterns.
pub fn figure9_10() -> Vec<FioResult> {
    let engine = FioEngine::default();
    let mut results = Vec::new();
    for pattern in [FioPattern::RandRead, FioPattern::RandWrite] {
        for mut dev in fio_devices() {
            results.push(engine.run(dev.as_mut(), pattern));
        }
    }
    results
}

// --------------------------------------------------- MRAM generations

/// One row of the iMTJ → pMTJ comparison (paper §4.2: "we have since
/// migrated to pMTJ which shows improved power/performance
/// characteristics").
#[derive(Debug, Clone, PartialEq)]
pub struct MramGenRow {
    /// Generation label.
    pub generation: &'static str,
    /// 64 B read latency, ns.
    pub read_ns: f64,
    /// 64 B write latency, ns.
    pub write_ns: f64,
    /// Write energy per 64 B line, pJ.
    pub write_energy_pj: f64,
}

/// The MRAM generation comparison, from the device models.
pub fn mram_generations() -> Vec<MramGenRow> {
    use contutto_memdev::MramGeneration;
    [
        ("iMTJ (initial demonstration)", MramGeneration::Imtj),
        ("pMTJ (migrated)", MramGeneration::Pmtj),
    ]
    .into_iter()
    .map(|(label, g)| MramGenRow {
        generation: label,
        read_ns: g.read_latency().as_ns_f64(),
        write_ns: g.write_latency().as_ns_f64(),
        write_energy_pj: g.write_energy_pj(),
    })
    .collect()
}

// ---------------------------------------------------------------- Table 5

/// One Table 5 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Accelerated function.
    pub function: &'static str,
    /// ConTutto throughput (unit in `unit`).
    pub contutto: f64,
    /// Software baseline throughput.
    pub software: f64,
    /// Unit label.
    pub unit: &'static str,
}

fn accel_bus() -> AvalonBus {
    AvalonBus::new(
        vec![
            MemoryController::new(MemoryKind::Ddr3Dram, 2 << 30),
            MemoryController::new(MemoryKind::Ddr3Dram, 2 << 30),
        ],
        5,
    )
}

/// Table 5: near-memory acceleration vs software, on a scaled-down
/// working set (64 MiB instead of 1 GB — throughput is size-invariant
/// past a few MiB, and the functional simulation moves real bytes).
pub fn table5() -> Vec<Table5Row> {
    let size: u64 = 64 << 20;
    let driver = BlockAccelDriver;
    let sw = SoftwareBaselines;

    // Memory copy.
    let mut avalon = accel_bus();
    let cb = driver
        .execute(
            &mut avalon,
            ControlBlock::new(BlockOp::Memcpy {
                src: 0,
                dst: 1 << 30,
                len: size,
            }),
            SimTime::ZERO,
        )
        .expect("memcpy control block");
    let memcpy_ct = cb.throughput_bytes_per_sec(SimTime::ZERO) / 1e9;
    let src = vec![0u8; 1 << 20];
    let mut dst = vec![0u8; 1 << 20];
    let (_, memcpy_sw) = sw.memcpy(&src, &mut dst);

    // Min/max.
    let mut avalon = accel_bus();
    let cb = driver
        .execute(
            &mut avalon,
            ControlBlock::new(BlockOp::MinMax { addr: 0, len: size }),
            SimTime::ZERO,
        )
        .expect("minmax control block");
    let minmax_ct = cb.throughput_bytes_per_sec(SimTime::ZERO) / 1e9;
    let values = vec![7u32; 1 << 18];
    let (_, _, _, minmax_sw) = sw.minmax(&values);

    // FFT.
    let mut avalon = accel_bus();
    let fft_len = 8 << 20; // 1 M samples
    let cb = driver
        .execute(
            &mut avalon,
            ControlBlock::new(BlockOp::Fft {
                src: 0,
                dst: 1 << 30,
                len: fft_len,
            }),
            SimTime::ZERO,
        )
        .expect("fft control block");
    let fft_samples = fft_len as f64 / 8.0;
    let fft_ct = fft_samples / cb.completed_at.as_secs_f64() / 1e9;
    let mut samples = vec![contutto_core::accel::fft::Complex32::default(); 8192];
    let (_, fft_sw) = sw.fft_blocks(&mut samples);

    vec![
        Table5Row {
            function: "memory copy (1 GB block)",
            contutto: memcpy_ct,
            software: memcpy_sw,
            unit: "GB/s",
        },
        Table5Row {
            function: "min+max search (256M integers)",
            contutto: minmax_ct,
            software: minmax_sw,
            unit: "GB/s",
        },
        Table5Row {
            function: "1024-pt FFT (8B complex samples)",
            contutto: fft_ct,
            software: fft_sw,
            unit: "Gsamples/s",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let total = table1().total();
        assert_eq!(total.alms, 136_856);
    }

    #[test]
    fn table3_shape() {
        let rows = table3();
        assert_eq!(rows.len(), 6);
        let centaur = rows[0].latency_ns;
        let base = rows[1].latency_ns;
        let knob7 = rows[4].latency_ns;
        assert!((92.0..102.0).contains(&centaur), "{centaur}");
        assert!((370.0..410.0).contains(&base), "{base}");
        assert!(knob7 > base + 150.0);
    }

    #[test]
    fn pmtj_improves_on_imtj_everywhere() {
        let rows = mram_generations();
        assert_eq!(rows.len(), 2);
        assert!(rows[1].read_ns < rows[0].read_ns);
        assert!(rows[1].write_ns < rows[0].write_ns);
        assert!(rows[1].write_energy_pj < rows[0].write_energy_pj);
    }

    #[test]
    fn table5_factors() {
        let rows = table5();
        // Paper: 1.9x (memcpy), 21x (minmax), 1.9x (fft).
        let memcpy_factor = rows[0].contutto / rows[0].software;
        let minmax_factor = rows[1].contutto / rows[1].software;
        let fft_factor = rows[2].contutto / rows[2].software;
        assert!(
            (1.4..2.5).contains(&memcpy_factor),
            "memcpy {memcpy_factor}"
        );
        assert!(
            (15.0..30.0).contains(&minmax_factor),
            "minmax {minmax_factor}"
        );
        assert!((1.4..2.5).contains(&fft_factor), "fft {fft_factor}");
    }
}
