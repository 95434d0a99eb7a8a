//! Channel failover policy and migration state.
//!
//! Paper §3.2: the FSP "disables hardware that generates too many
//! errors", and concurrent maintenance lets a buffer card be pulled
//! from a running system. This module holds what the system needs to
//! survive that: where to go ([`FailoverMode`]), what still has to
//! move ([`Migration`]), and what happened ([`FailoverStats`]).
//!
//! The mechanism lives in [`crate::system::Power8System`]; the
//! sideband copy path (FSI→I²C, §3.4) that evacuation reads ride is
//! implemented down in the memory devices.

use std::collections::BTreeSet;

use contutto_sim::persist_fields;
use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};
use contutto_sim::SimTime;

/// Sim-time charged per line moved by the background migrator. The
/// sideband path is indirect (FSI→I²C register pokes), orders of
/// magnitude slower than the DMI link — 2 µs/line keeps migration
/// visibly slower than demand traffic without making tests crawl.
pub const MIGRATION_LINE_COST: SimTime = SimTime::from_us(2);

/// Lines the background migrator moves per demand access ("scrub
/// style" catch-up: progress rides on foreground traffic).
pub const MIGRATION_BATCH: usize = 4;

/// Migration batch while the system is browned out: evacuation yields
/// almost all of its bandwidth to demand traffic, moving one line per
/// pump so the backlog still drains (brownout must never starve the
/// evacuation to a standstill — a dead buffer's data stays at risk
/// until it is off the card).
pub const BROWNOUT_MIGRATION_BATCH: usize = 1;

/// Emit a `MigrationProgress` trace event every this many lines.
pub const MIGRATION_PROGRESS_STRIDE: u64 = 8;

/// What the system does when the FSP deconfigures a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverMode {
    /// No redundancy: accesses to a dead channel return typed errors.
    None,
    /// A trained hot-spare channel held out of the memory map; on
    /// failover the dead channel's lines are evacuated onto it and
    /// its regions rebound.
    Spare {
        /// Slot of the reserve channel.
        spare: usize,
    },
    /// Mirrored pair: every store to `primary` is fanned out to
    /// `mirror`; reads fail over per-access, and a deconfiguration
    /// rebinds with no migration needed (the data is already there).
    Mirrored {
        /// The channel the memory map points at.
        primary: usize,
        /// Its write-shadow.
        mirror: usize,
    },
}

/// An in-progress evacuation from a dead channel to its spare.
#[derive(Debug)]
pub struct Migration {
    /// Dead source slot.
    pub from: usize,
    /// Spare destination slot.
    pub to: usize,
    /// Channel-local line addresses still to copy.
    pub pending: BTreeSet<u64>,
    /// Lines copied so far (clean or poisoned).
    pub migrated: u64,
    /// Of those, lines that carried poison across.
    pub poison_migrated: u64,
}

impl Migration {
    /// Lines still waiting to move.
    pub fn backlog(&self) -> u64 {
        self.pending.len() as u64
    }
}

/// Counters for the `system.failover.*` metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FailoverStats {
    /// Completed failovers (rebinds).
    pub failovers: u64,
    /// Lines moved by the migrator (background + demand).
    pub lines_migrated: u64,
    /// Lines that migrated carrying poison.
    pub poison_migrated: u64,
    /// Lines pulled ahead of the frontier by a demand access.
    pub demand_migrations: u64,
    /// Reads served from the mirror after the primary failed.
    pub mirror_read_fallbacks: u64,
    /// Lines the sideband could not read at all (migrated as poison).
    pub lines_unreadable: u64,
}

impl Persist for FailoverMode {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            FailoverMode::None => 0u8.persist(out),
            FailoverMode::Spare { spare } => {
                1u8.persist(out);
                spare.persist(out);
            }
            FailoverMode::Mirrored { primary, mirror } => {
                2u8.persist(out);
                primary.persist(out);
                mirror.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(match r.u8()? {
            0 => FailoverMode::None,
            1 => FailoverMode::Spare {
                spare: usize::restore(r)?,
            },
            2 => FailoverMode::Mirrored {
                primary: usize::restore(r)?,
                mirror: usize::restore(r)?,
            },
            _ => {
                return Err(RestoreError::Malformed {
                    context: "failover mode discriminant",
                })
            }
        })
    }
}

persist_fields!(Migration {
    from,
    to,
    pending,
    migrated,
    poison_migrated
});

persist_fields!(FailoverStats {
    failovers,
    lines_migrated,
    poison_migrated,
    demand_migrations,
    mirror_read_fallbacks,
    lines_unreadable
});
