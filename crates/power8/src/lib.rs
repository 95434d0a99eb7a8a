//! # contutto-power8
//!
//! The processor side of the reproduction: everything between the
//! software issuing a load and the DMI pins.
//!
//! | module | role |
//! |---|---|
//! | [`channel`] | one DMI channel: host endpoint ↔ link ↔ buffer endpoint ↔ buffer chip, with the 32-tag command loop |
//! | [`caches`] | a compact L1/L2/L3 timing model in front of the channel |
//! | [`latency`] | the dependent-load latency probe used for Tables 2 & 3 |
//! | [`memmap`] | the memory map with the §3.4 placement rules (DRAM at 0, non-volatile at top, 4 GB minimum per DMI) |
//! | [`prefetch`] | the CPU-side stream prefetcher — why streaming workloads tolerate the FPGA's latency |
//! | [`firmware`] | IPL: presence detect, plug rules, training with retries, SPD, NVDIMM arming |
//! | [`fsp`] | the Flexible Service Processor: error logs, budgets, deconfiguration |
//! | [`inject`] | the unified fault surface: typed [`FaultAction`]s routed to the injector owning each layer |
//! | [`overload`] | overload-resilience policy: admission control, retry budgets, circuit breakers, hedging, brownout |
//! | [`system`] | a whole S824-class system: 8 DMI channels with mixed Centaur/ConTutto population |

#![deny(unsafe_code)]

pub mod caches;
pub mod channel;
pub mod failover;
pub mod firmware;
pub mod fsp;
pub mod inject;
pub mod latency;
pub mod memmap;
pub mod overload;
pub mod prefetch;
pub mod system;

pub use channel::{ChannelConfig, DmiChannel};
pub use failover::{FailoverMode, FailoverStats};
pub use firmware::{BootError, BootReport, Firmware, SlotPopulation};
pub use fsp::{FspError, ServiceProcessor};
pub use inject::{FaultAction, FaultOutcome};
pub use latency::{LatencyProbe, MeasurementLevel};
pub use memmap::{MemoryMap, MemoryRegion, RegionFlags, RouteError};
pub use overload::{
    AdmissionConfig, BreakerConfig, BreakerState, BrownoutConfig, CircuitBreaker, HedgeConfig,
    OverloadConfig, OverloadStats, RetryBudget, RetryBudgetConfig,
};
pub use prefetch::StreamingLoader;
pub use system::{
    DataLoss, EpowReport, Power8System, PowerConfig, PowerStats, RebootReport, SystemError,
};
