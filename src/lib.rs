//! Umbrella crate for the ConTutto reproduction workspace.
//!
//! Re-exports the member crates so integration tests and examples can
//! use one import root.

#![deny(unsafe_code)]

pub use contutto_centaur as centaur;
pub use contutto_core as contutto;
pub use contutto_dmi as dmi;
pub use contutto_memdev as memdev;
pub use contutto_power8 as power8;
pub use contutto_sim as sim;
pub use contutto_storage as storage;
pub use contutto_workloads as workloads;
