//! # contutto-workloads
//!
//! The application-level workloads of the paper's evaluation (§4),
//! each driven by latencies and devices from the simulated system:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`spec`] | SPEC CINT2006 latency-sensitivity models (Figures 6 & 7) |
//! | [`db2`] | the DB2 BLU 29-query workload (Table 2) |
//! | [`fio`] | the FIO random-IO engine over block devices (Figures 9 & 10) |
//! | [`gpfs`] | the GPFS write-cache experiment (Table 4) |
//! | [`pointer_chase`] | linked-list traversal — the worst case §4.1 warns about |
//! | [`baseline`] | single-thread software baselines for Table 5 (memcpy, min/max, FFT) |
//! | [`traffic`] | open/closed-loop service traffic with tail-latency SLOs |
//! | [`chaos_load`] | the chaos campaign's ledgered key/value load — every store remembered for the durability oracle |
//!
//! The SPEC and DB2 models are *analytic* (stall-cycle decomposition
//! per benchmark), but their memory-latency inputs come from the
//! [`contutto_power8::latency::LatencyProbe`] measurements on the
//! simulated channels — the same methodology the paper uses: measure
//! the latency knob's effect with a probe, then run applications.

#![deny(unsafe_code)]

pub mod baseline;
pub mod chaos_load;
pub mod db2;
pub mod fio;
pub mod gpfs;
pub mod pointer_chase;
pub mod spec;
pub mod traffic;

pub use baseline::SoftwareBaselines;
pub use chaos_load::{
    ChaosLoad, ChaosLoadConfig, ChaosLoadReport, ChaosTick, StoreEvent, StoreOutcome,
};
pub use db2::{Db2Workload, QueryKind};
pub use fio::{FioEngine, FioPattern, FioResult};
pub use gpfs::GpfsExperiment;
pub use spec::{SpecBenchmark, SpecModel};
pub use traffic::{Phase, TrafficConfig, TrafficEngine, TrafficReport};
