//! A whole POWER8 S824-class system.
//!
//! [`Power8System`] ties the firmware boot, the service processor, the
//! memory map and the live channels together, and routes software
//! loads/stores to the right channel by physical address.
//!
//! It also owns the channel-RAS ladder above the link (PR-2) and media
//! (PR-3) ladders: when the FSP deconfigures a channel — error budget
//! exhausted, retrain ladder's final failure, or a concurrent
//! maintenance pull — the system quiesces the dead channel, rebinds
//! its regions onto a failover target, and (in spare mode) evacuates
//! the written lines over the sideband path, poison travelling as
//! poison. Demand accesses during migration are pulled ahead of the
//! copy frontier; accesses with nowhere to go return typed errors,
//! never panics.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use contutto_dmi::command::{CacheLine, CommandOp};
use contutto_dmi::{DmiError, PowerRestoreOutcome};
use contutto_memdev::MediaKind;
use contutto_sim::persist_fields;
use contutto_sim::snapshot::{
    self, Persist, RestoreError, SnapReader, SnapshotImage, SnapshotWriter,
};
use contutto_sim::{MetricsRegistry, SimTime, TraceEvent, Tracer};

use crate::channel::{CmdId, RetryPolicy};
use crate::failover::{
    FailoverMode, FailoverStats, Migration, MIGRATION_BATCH, MIGRATION_LINE_COST,
    MIGRATION_PROGRESS_STRIDE,
};
use crate::firmware::{
    BootError, BootReport, BootedChannel, ErrorAction, Firmware, SlotPopulation,
};
use crate::fsp::{FspError, ServiceProcessor, Severity};
use crate::memmap::{ChannelMemory, MemoryMap, RouteError};
use crate::overload::{
    BreakerConfig, BreakerState, CircuitBreaker, OverloadConfig, OverloadStats, RetryBudget,
    RetryBudgetConfig,
};

/// Quiesce budget, in multiples of the channel's per-op timeout:
/// enough for in-flight commands to complete or time out before the
/// link is reset to reclaim whatever is left.
const QUIESCE_TIMEOUTS: u64 = 3;

/// How many times one pipelined request may be re-routed after a
/// timeout before its error is surfaced. One redirect covers the
/// common failover (primary → spare/mirror); the second covers a
/// remap that happened while the retry was in flight.
const MAX_REDIRECTS: u32 = 2;

/// Pump rounds with outstanding work but no finished request and no
/// clock progress before the no-progress watchdog gives up and fails
/// the work with [`SystemError::Stalled`] instead of livelocking.
const STALL_ROUNDS: u32 = 3;

/// Hold-up energy charged per written cache line pushed out of the
/// core caches in EPOW stage 1, in nanojoules.
pub const EPOW_CORE_FLUSH_COST_PER_LINE_NJ: u64 = 100;

/// Hold-up energy charged per channel to drain in-flight DMI tags in
/// EPOW stage 3, in nanojoules.
pub const EPOW_DRAIN_COST_PER_CHANNEL_NJ: u64 = 500;

/// Power-fail model configuration: how much stored energy backs the
/// EPOW flush cascade and the per-DIMM NVDIMM save.
///
/// `None` budgets model ideal (unbounded) energy — the default, and
/// what every test before this subsystem implicitly assumed.
#[derive(Debug, Clone, Default)]
pub struct PowerConfig {
    /// Bulk-capacitor hold-up energy available to the EPOW cascade
    /// (core flush, buffer flush, DMI drain), in nanojoules.
    pub holdup_budget_nj: Option<u64>,
    /// Per-DIMM supercap energy available to the NVDIMM-N save, in
    /// nanojoules. Applied to every NVDIMM in the system.
    pub nvdimm_supercap_nj: Option<u64>,
}

impl PowerConfig {
    /// Unbounded energy everywhere: every flush and save completes.
    pub fn ideal() -> Self {
        PowerConfig::default()
    }

    /// Finite energy on both rails.
    pub fn budgeted(holdup_nj: u64, supercap_nj: u64) -> Self {
        PowerConfig {
            holdup_budget_nj: Some(holdup_nj),
            nvdimm_supercap_nj: Some(supercap_nj),
        }
    }
}

/// Counters for the power-fail subsystem, surfaced as
/// `system.power.*` metrics.
#[derive(Debug, Clone, Default)]
pub struct PowerStats {
    /// EPOW assertions.
    pub epow_asserted: u64,
    /// Power cuts taken.
    pub cuts: u64,
    /// Reboots completed.
    pub reboots: u64,
    /// Written lines flushed out of core caches by EPOW stage 1.
    pub lines_flushed: u64,
    /// Hold-up energy spent by EPOW cascades, in nanojoules.
    pub holdup_spent_nj: u64,
    /// NVDIMM saves that ran out of supercap energy mid-save.
    pub saves_torn: u64,
    /// Media images restored intact at reboot.
    pub restores_clean: u64,
    /// Media restores that reported data loss at reboot.
    pub restores_failed: u64,
}

/// What one EPOW flush cascade accomplished before the power died.
#[derive(Debug, Clone)]
pub struct EpowReport {
    /// When the FSP asserted EPOW.
    pub asserted_at: SimTime,
    /// When the cascade finished (or gave out).
    pub done_at: SimTime,
    /// Stages fully completed (1 core caches, 2 buffer caches, 3 DMI
    /// drain, 4 NVDIMM arm confirm).
    pub stages_completed: u8,
    /// Whether all four stages ran to completion.
    pub completed: bool,
    /// Written lines flushed from core caches in stage 1.
    pub lines_flushed: u64,
    /// Hold-up energy this cascade consumed, in nanojoules.
    pub holdup_spent_nj: u64,
    /// NVDIMM slots whose supercap arming was confirmed in stage 4.
    pub armed_slots: Vec<usize>,
}

/// One slot's typed data-loss report from a reboot. Loss is always
/// reported — never silently absorbed into an all-zero region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataLoss {
    /// The slot whose contents did not survive.
    pub slot: usize,
    /// How the restore failed (torn save, corrupt image, lost).
    pub outcome: PowerRestoreOutcome,
}

/// The result of a cold reboot after a power cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebootReport {
    /// When power returned.
    pub at: SimTime,
    /// When every surviving channel was trained and serving again.
    pub ready_at: SimTime,
    /// Slots whose media contents restored intact.
    pub restored_slots: Vec<usize>,
    /// Slots that lost data, with the typed outcome.
    pub data_loss: Vec<DataLoss>,
    /// Slots whose link failed to retrain (deconfigured).
    pub retrain_failures: Vec<usize>,
}

/// Any error a software-visible access can surface: routing, FSP
/// deconfiguration, or the channel ladder underneath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The address hits no OS-visible region.
    Route(RouteError),
    /// The FSP has taken the owning channel out of service.
    Fsp(FspError),
    /// The channel itself failed (timeout, poison, tag exhaustion).
    Dmi(DmiError),
    /// The system is powered off; no software access can proceed.
    PoweredOff,
    /// The request's deadline expired before it was served; the work
    /// was shed (at submit, in queue, or at completion translation),
    /// never retried past the deadline.
    DeadlineExceeded,
    /// Admission control (bounded queue, deadline-aware queue-delay
    /// estimate, or an open circuit breaker) rejected the request
    /// before it was enqueued.
    Shed {
        /// The channel whose admission gate refused the request.
        slot: usize,
    },
    /// The no-progress watchdog fired: pump rounds stopped advancing
    /// the clock or finishing work while requests were outstanding.
    Stalled,
    /// The request id was never submitted, or its result was already
    /// collected.
    UnknownRequest,
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Route(e) => write!(f, "route: {e}"),
            SystemError::Fsp(e) => write!(f, "fsp: {e}"),
            SystemError::Dmi(e) => write!(f, "dmi: {e}"),
            SystemError::PoweredOff => write!(f, "system is powered off"),
            SystemError::DeadlineExceeded => write!(f, "deadline exceeded; request shed"),
            SystemError::Shed { slot } => {
                write!(f, "admission control shed the request for channel {slot}")
            }
            SystemError::Stalled => write!(f, "pump made no progress; request stalled"),
            SystemError::UnknownRequest => {
                write!(f, "request was never submitted or already collected")
            }
        }
    }
}

impl std::error::Error for SystemError {}

impl From<RouteError> for SystemError {
    fn from(e: RouteError) -> Self {
        SystemError::Route(e)
    }
}

impl From<FspError> for SystemError {
    fn from(e: FspError) -> Self {
        SystemError::Fsp(e)
    }
}

impl From<DmiError> for SystemError {
    fn from(e: DmiError) -> Self {
        SystemError::Dmi(e)
    }
}

/// Identifier of a pipelined memory request submitted with
/// [`Power8System::submit_load`] / [`Power8System::submit_store`].
/// Monotonic per system; never reused, even across failover redirects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(u64);

impl ReqId {
    /// The raw monotonic counter value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// A finished pipelined memory request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemCompletion {
    /// The physical address the request targeted.
    pub phys: u64,
    /// Read data, for loads.
    pub data: Option<CacheLine>,
    /// When the owning channel delivered the completion.
    pub completed_at: SimTime,
}

/// A pipelined request in flight: where it currently routes, and how
/// many failover redirects it has already ridden.
#[derive(Debug, Clone)]
struct OutstandingReq {
    phys: u64,
    slot: usize,
    line_addr: u64,
    /// `Some` for stores (the data to land, mirrored on completion);
    /// `None` for loads.
    data: Option<CacheLine>,
    redirects: u32,
    /// Absolute deadline propagated from the submitter, if any.
    deadline: Option<SimTime>,
    /// Channel clock when the request was admitted (hedge aging).
    submitted_at: SimTime,
    /// Whether a hedge arm has been issued for this read.
    hedged: bool,
}

/// Counters for the pipelined submit/poll path, surfaced as
/// `system.mlp.*` metrics.
#[derive(Debug, Clone, Default)]
struct MlpStats {
    submitted: u64,
    completed: u64,
    redirects: u64,
    peak_outstanding: u64,
}

/// Observer metadata for the checkpoint subsystem, surfaced as
/// `system.snapshot.*` metrics.
///
/// Deliberately **not** persisted in the image: a restored system
/// starts its own count, so the restore-and-continue leg of a
/// determinism check differs from the straight run only in this
/// namespace — which the identity contract filters out.
#[derive(Debug, Clone, Default)]
struct SnapshotStats {
    /// Snapshots taken from this system.
    taken: u64,
    /// Total image bytes produced.
    bytes: u64,
    /// Successful restores into this system.
    restores: u64,
    /// Restores that failed validation (the target is then unspecified
    /// and must be discarded).
    restore_failures: u64,
}

/// A booted system.
pub struct Power8System {
    channels: Vec<BootedChannel>,
    memory_map: MemoryMap,
    fsp: ServiceProcessor,
    mode: FailoverMode,
    migration: Option<Migration>,
    /// Channel-local line addresses ever written per slot — the set a
    /// spare must receive for the system to have lost nothing.
    written: BTreeMap<usize, BTreeSet<u64>>,
    /// Lines that arrived on a slot already poisoned (migrated from a
    /// dying channel). Consuming one raises a machine check but is not
    /// fresh evidence against the hosting channel's hardware, so it
    /// must not charge that channel's error budget.
    inherited_poison: BTreeMap<usize, BTreeSet<u64>>,
    stats: FailoverStats,
    tracer: Tracer,
    power: PowerConfig,
    powered: bool,
    power_stats: PowerStats,
    /// NVDIMM slots whose supercap save is armed — the FSP's record,
    /// queried by EPOW stage 4 without touching the devices.
    nvdimm_armed: BTreeSet<usize>,
    next_req: u64,
    /// Pipelined requests in flight, keyed by request id.
    outstanding: BTreeMap<u64, OutstandingReq>,
    /// Maps a channel-level command back to its request:
    /// (slot, channel CmdId) → request id. Rebuilt per redirect.
    route_back: BTreeMap<(usize, CmdId), u64>,
    /// Finished pipelined requests awaiting [`Power8System::poll`].
    finished_sys: VecDeque<(ReqId, Result<MemCompletion, SystemError>)>,
    mlp_stats: MlpStats,
    /// The overload policy ([`OverloadConfig::off`] by default: the
    /// legacy service path, byte-identical to pre-overload runs).
    overload: OverloadConfig,
    /// The shared retry budget (ladder + client retries), when
    /// configured. Shared with every channel via `Rc`.
    retry_budget: Option<Rc<RefCell<RetryBudget>>>,
    /// Per-channel circuit breakers, when configured.
    breakers: BTreeMap<usize, CircuitBreaker>,
    /// Hedged reads in flight: request id → arms still outstanding.
    hedge_arms: BTreeMap<u64, u32>,
    ov_stats: OverloadStats,
    /// Whether brownout is currently engaged.
    brownout: bool,
    /// Scrub intervals saved while brownout stretches them.
    brownout_saved_scrub: BTreeMap<usize, SimTime>,
    /// Checkpoint observer counters (`system.snapshot.*`).
    snap_stats: SnapshotStats,
}

impl std::fmt::Debug for Power8System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Power8System")
            .field("channels", &self.channels.len())
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

impl Power8System {
    /// Boots a system from a slot layout with no failover redundancy.
    ///
    /// # Errors
    ///
    /// Propagates [`BootError`] from the firmware.
    pub fn boot(slots: Vec<SlotPopulation>, seed: u64) -> Result<Self, BootError> {
        Self::boot_with_failover(slots, seed, FailoverMode::None)
    }

    /// Boots with a failover policy: spare slots are trained but held
    /// out of the memory map; mirrored pairs shadow every store.
    ///
    /// # Errors
    ///
    /// Everything [`Self::boot`] returns, plus
    /// [`BootError::InvalidPlug`] if the failover target failed
    /// training or a mirror primary is not in the map.
    pub fn boot_with_failover(
        slots: Vec<SlotPopulation>,
        seed: u64,
        mode: FailoverMode,
    ) -> Result<Self, BootError> {
        let reserves: Vec<usize> = match mode {
            FailoverMode::None => Vec::new(),
            FailoverMode::Spare { spare } => vec![spare],
            FailoverMode::Mirrored { mirror, .. } => vec![mirror],
        };
        let mut fsp = ServiceProcessor::new(3);
        let report = Firmware::new().boot_with_reserves(slots, &mut fsp, seed, &reserves)?;
        let BootReport {
            channels,
            memory_map,
            nvdimms_armed,
            ..
        } = report;
        let mut sys = Power8System {
            channels,
            memory_map,
            fsp,
            mode,
            migration: None,
            written: BTreeMap::new(),
            inherited_poison: BTreeMap::new(),
            stats: FailoverStats::default(),
            tracer: Tracer::off(),
            power: PowerConfig::ideal(),
            powered: true,
            power_stats: PowerStats::default(),
            nvdimm_armed: BTreeSet::new(),
            next_req: 0,
            outstanding: BTreeMap::new(),
            route_back: BTreeMap::new(),
            finished_sys: VecDeque::new(),
            mlp_stats: MlpStats::default(),
            overload: OverloadConfig::off(),
            retry_budget: None,
            breakers: BTreeMap::new(),
            hedge_arms: BTreeMap::new(),
            ov_stats: OverloadStats::default(),
            brownout: false,
            brownout_saved_scrub: BTreeMap::new(),
            snap_stats: SnapshotStats::default(),
        };
        // The boot report's arming list is a promise; keep it by
        // actually arming the supercap save on each NVDIMM buffer.
        for slot in nvdimms_armed {
            let armed = sys
                .channel_mut(slot)
                .is_some_and(|c| c.channel.buffer_mut().set_save_armed(true));
            if armed {
                sys.nvdimm_armed.insert(slot);
            }
        }
        match mode {
            FailoverMode::None => {}
            FailoverMode::Spare { spare } => {
                if sys.channel_index(spare).is_none() {
                    return Err(BootError::InvalidPlug {
                        slot: spare,
                        reason: "failover spare failed training",
                    });
                }
            }
            FailoverMode::Mirrored { primary, mirror } => {
                if sys.channel_index(mirror).is_none() {
                    return Err(BootError::InvalidPlug {
                        slot: mirror,
                        reason: "mirror failed training",
                    });
                }
                if !sys.memory_map.channel_is_mapped(primary) {
                    return Err(BootError::InvalidPlug {
                        slot: primary,
                        reason: "mirror primary is not in the memory map",
                    });
                }
            }
        }
        Ok(sys)
    }

    /// The memory map.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.memory_map
    }

    /// The service processor (logs, deconfig state).
    pub fn fsp(&self) -> &ServiceProcessor {
        &self.fsp
    }

    /// Mutable FSP access (injecting maintenance events, budgets).
    pub fn fsp_mut(&mut self) -> &mut ServiceProcessor {
        &mut self.fsp
    }

    /// The failover policy this system booted with.
    pub fn failover_mode(&self) -> FailoverMode {
        self.mode
    }

    /// Failover/migration counters.
    pub fn failover_stats(&self) -> &FailoverStats {
        &self.stats
    }

    /// Live channels.
    pub fn channels(&self) -> &[BootedChannel] {
        &self.channels
    }

    /// Mutable access to a channel by slot.
    pub fn channel_mut(&mut self, slot: usize) -> Option<&mut BootedChannel> {
        self.channels.iter_mut().find(|c| c.slot == slot)
    }

    fn channel_index(&self, slot: usize) -> Option<usize> {
        self.channels.iter().position(|c| c.slot == slot)
    }

    /// Shares one trace ring across every channel and the system's own
    /// failover events, so one fingerprint covers the whole machine.
    pub fn enable_tracing(&mut self, capacity: usize) -> Tracer {
        let tracer = Tracer::ring(capacity);
        for c in &mut self.channels {
            c.channel.attach_tracer(tracer.clone());
        }
        self.tracer = tracer.clone();
        tracer
    }

    /// The system's trace handle (disabled until
    /// [`Power8System::enable_tracing`] or a restore of a traced
    /// snapshot).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Applies one retry policy to every channel.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        for c in &mut self.channels {
            c.channel.set_retry_policy(policy.clone());
        }
    }

    /// Installs the overload policy: a shared retry budget is built
    /// and distributed to every channel's ladder, per-channel circuit
    /// breakers are armed, and admission/hedging/brownout take effect
    /// on subsequent submissions. [`OverloadConfig::off`] restores the
    /// legacy (ungoverned) service path.
    pub fn set_overload_config(&mut self, cfg: OverloadConfig) {
        self.exit_brownout();
        self.breakers.clear();
        let budget = cfg
            .retry_budget
            .map(|b| Rc::new(RefCell::new(RetryBudget::new(b))));
        for c in &mut self.channels {
            c.channel.set_retry_budget(budget.clone());
        }
        self.retry_budget = budget;
        if let Some(bcfg) = cfg.breaker {
            let slots: Vec<usize> = self.channels.iter().map(|c| c.slot).collect();
            for slot in slots {
                self.breakers.insert(slot, CircuitBreaker::new(bcfg));
            }
        }
        self.overload = cfg;
    }

    /// The active overload policy.
    pub fn overload_config(&self) -> &OverloadConfig {
        &self.overload
    }

    /// System-level overload counters (`system.overload.*`).
    pub fn overload_stats(&self) -> &OverloadStats {
        &self.ov_stats
    }

    /// A client-level retry decision against the shared budget: spends
    /// one token when a budget is configured (always allowed when
    /// not). The traffic layer asks here before re-submitting, so
    /// client retries and the channel ladder drain one bucket.
    pub fn client_retry_allowed(&mut self) -> bool {
        match &self.retry_budget {
            None => true,
            Some(b) => b.borrow_mut().try_spend(),
        }
    }

    /// The circuit breaker state for a slot, when breakers are armed.
    pub fn breaker_state(&self, slot: usize) -> Option<BreakerState> {
        self.breakers.get(&slot).map(CircuitBreaker::state)
    }

    /// Whether brownout is currently engaged.
    pub fn brownout_active(&self) -> bool {
        self.brownout
    }

    /// Installs a power-fail energy model; a finite NVDIMM supercap
    /// budget is pushed down to every DIMM.
    pub fn configure_power(&mut self, cfg: PowerConfig) {
        if let Some(nj) = cfg.nvdimm_supercap_nj {
            for c in &mut self.channels {
                c.channel.buffer_mut().set_supercap_budget_nj(nj);
            }
        }
        self.power = cfg;
    }

    /// Arms or disarms the supercap save on every NVDIMM, updating the
    /// FSP's arming record. Returns the slots that hold an NVDIMM.
    pub fn set_nvdimm_armed(&mut self, armed: bool) -> Vec<usize> {
        let mut slots = Vec::new();
        for c in &mut self.channels {
            if c.channel.buffer_mut().set_save_armed(armed) {
                slots.push(c.slot);
                if armed {
                    self.nvdimm_armed.insert(c.slot);
                } else {
                    self.nvdimm_armed.remove(&c.slot);
                }
            }
        }
        slots
    }

    /// Whether mains power is up (software accesses are allowed).
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Power-fail counters.
    pub fn power_stats(&self) -> &PowerStats {
        &self.power_stats
    }

    /// Early-power-off warning: the FSP has detected the supply
    /// failing and runs the ordered flush cascade on stored hold-up
    /// energy — (1) core caches, (2) buffer-side caches (the MBS
    /// flush extension, paper §4.2), (3) in-flight DMI tags, (4)
    /// NVDIMM save-arm confirmation. Each stage charges the hold-up
    /// budget; running dry stops the cascade where it stands and the
    /// later stages simply never happen — exactly what an undersized
    /// bulk capacitor does.
    pub fn epow(&mut self) -> EpowReport {
        let asserted_at = self
            .channels
            .iter()
            .map(|c| c.channel.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        self.tracer.record(TraceEvent::EpowAsserted);
        self.fsp.log(
            asserted_at,
            0,
            Severity::Info,
            "epow asserted; flush cascade started",
        );
        self.power_stats.epow_asserted += 1;

        let start = self.power.holdup_budget_nj.unwrap_or(u64::MAX);
        let mut energy = start;
        let mut stages_completed = 0u8;
        let lines_flushed: u64;
        let mut armed_slots = Vec::new();
        let mut exhausted_at = None;

        'cascade: {
            // Stage 1: push every written line out of the core caches.
            let before = energy;
            let total: u64 = self.written.values().map(|s| s.len() as u64).sum();
            let affordable = (energy / EPOW_CORE_FLUSH_COST_PER_LINE_NJ).min(total);
            energy = energy.saturating_sub(affordable * EPOW_CORE_FLUSH_COST_PER_LINE_NJ);
            lines_flushed = affordable;
            self.tracer.record(TraceEvent::EpowFlushStage {
                stage: 1,
                charged_nj: before - energy,
            });
            if affordable < total {
                exhausted_at = Some(1);
                break 'cascade;
            }
            stages_completed = 1;

            // Stage 2: buffer-side caches (MBS flush extension).
            let before = energy;
            for c in &mut self.channels {
                c.channel.epow_flush_buffer(&mut energy);
                if energy == 0 {
                    break;
                }
            }
            self.tracer.record(TraceEvent::EpowFlushStage {
                stage: 2,
                charged_nj: before - energy,
            });
            if energy == 0 {
                exhausted_at = Some(2);
                break 'cascade;
            }
            stages_completed = 2;

            // Stage 3: drain in-flight DMI tags.
            let before = energy;
            for c in &mut self.channels {
                if energy < EPOW_DRAIN_COST_PER_CHANNEL_NJ {
                    exhausted_at = Some(3);
                    break;
                }
                energy -= EPOW_DRAIN_COST_PER_CHANNEL_NJ;
                let budget = c.channel.retry_policy().op_timeout * QUIESCE_TIMEOUTS;
                let _ = c.channel.quiesce(budget);
            }
            self.tracer.record(TraceEvent::EpowFlushStage {
                stage: 3,
                charged_nj: before - energy,
            });
            if exhausted_at.is_some() {
                break 'cascade;
            }

            // Stage 4: confirm the NVDIMM saves are armed (free — a
            // register read over the sideband).
            armed_slots = self.nvdimm_armed.iter().copied().collect();
            for c in &self.channels {
                if c.kind == MediaKind::NvdimmN && !self.nvdimm_armed.contains(&c.slot) {
                    self.fsp.log(
                        asserted_at,
                        c.slot,
                        Severity::Unrecovered,
                        "epow: nvdimm save not armed; contents will not survive",
                    );
                }
            }
            self.tracer.record(TraceEvent::EpowFlushStage {
                stage: 4,
                charged_nj: 0,
            });
            stages_completed = 4;
        }

        if let Some(stage) = exhausted_at {
            self.tracer
                .record(TraceEvent::EpowHoldupExhausted { stage });
            // A system-level energy event, not evidence against any
            // channel's hardware: it must not charge an error budget.
            self.fsp.log(
                asserted_at,
                0,
                Severity::Info,
                &format!("epow hold-up energy exhausted in stage {stage}"),
            );
        }
        let spent = start - energy;
        self.power_stats.lines_flushed += lines_flushed;
        self.power_stats.holdup_spent_nj += spent;
        let done_at = self
            .channels
            .iter()
            .map(|c| c.channel.now())
            .max()
            .unwrap_or(asserted_at);
        EpowReport {
            asserted_at,
            done_at: done_at.max(asserted_at),
            stages_completed,
            completed: exhausted_at.is_none(),
            lines_flushed,
            holdup_spent_nj: spent,
            armed_slots,
        }
    }

    /// Mains power dies at `at`. Every piece of volatile state — DRAM
    /// contents, caches, replay buffers, in-flight tags, the host's
    /// own record of what it wrote — is discarded; armed NVDIMMs run
    /// their supercap save. Returns when the last save finished (the
    /// machine is dark from `at`; the save runs on stored energy).
    pub fn power_cut(&mut self, at: SimTime) -> SimTime {
        self.tracer.record(TraceEvent::PowerCut);
        self.fsp.log(at, 0, Severity::Info, "power cut");
        self.power_stats.cuts += 1;
        let mut quiet = at;
        for c in &mut self.channels {
            quiet = quiet.max(c.channel.power_cut(at));
        }
        self.written.clear();
        self.inherited_poison.clear();
        self.migration = None;
        // Pipelined requests in flight die with the rail: their ids
        // stay monotonic, but no completion will ever be delivered.
        self.outstanding.clear();
        self.route_back.clear();
        self.finished_sys.clear();
        self.hedge_arms.clear();
        // Brownout dies with the rail too — the stretched scrub
        // intervals it saved are gone along with the scrub engines.
        self.brownout = false;
        self.brownout_saved_scrub.clear();
        self.powered = false;
        quiet
    }

    /// Cold boot after a power cut: restore media images (typed —
    /// a torn or corrupt save raises a machine-check log and lands in
    /// the report's `data_loss`, never a silent zero-fill), retrain
    /// every link through the surviving firmware training state, and
    /// rebuild the memory map from the channels that came back.
    ///
    /// # Errors
    ///
    /// [`BootError::Map`] / [`BootError::NoUsableMemory`] if too few
    /// channels retrained to rebuild a bootable map.
    pub fn reboot(&mut self, at: SimTime) -> Result<RebootReport, BootError> {
        self.tracer.record(TraceEvent::PowerRestored);
        self.fsp
            .log(at, 0, Severity::Info, "power restored; rebooting");
        let mut ready_at = at;
        let mut restored_slots = Vec::new();
        let mut data_loss = Vec::new();
        for c in &mut self.channels {
            let (ready, outcome) = c.channel.power_restore_media(at);
            ready_at = ready_at.max(ready);
            match outcome {
                PowerRestoreOutcome::Volatile => {}
                PowerRestoreOutcome::Restored => {
                    self.power_stats.restores_clean += 1;
                    restored_slots.push(c.slot);
                    if c.kind == MediaKind::NvdimmN {
                        self.tracer
                            .record(TraceEvent::NvdimmRestored { slot: c.slot });
                        self.fsp
                            .log(ready, c.slot, Severity::Info, "nvdimm image restored");
                    }
                }
                loss => {
                    self.power_stats.restores_failed += 1;
                    if loss == PowerRestoreOutcome::TornSave {
                        self.power_stats.saves_torn += 1;
                    }
                    self.tracer
                        .record(TraceEvent::NvdimmRestoreFailed { slot: c.slot });
                    self.fsp.log(
                        ready,
                        c.slot,
                        Severity::Unrecovered,
                        &format!("machine check: media restore failed ({loss}); contents lost"),
                    );
                    data_loss.push(DataLoss {
                        slot: c.slot,
                        outcome: loss,
                    });
                }
            }
        }

        // Retrain every link. The trainer config and seed survive in
        // firmware NVRAM, so the same system retrains identically.
        let mut retrain_failures = Vec::new();
        for c in &mut self.channels {
            match c.channel.retrain() {
                Ok(_) => ready_at = ready_at.max(c.channel.now()),
                Err(e) => {
                    self.fsp.log(
                        at,
                        c.slot,
                        Severity::Unrecovered,
                        &format!("reboot retrain failed: {e}"),
                    );
                    self.fsp.deconfigure(at, c.slot, "reboot retrain failed");
                    retrain_failures.push(c.slot);
                }
            }
        }

        // Rebuild the memory map from the channels that were mapped
        // before the cut and came back up.
        let memories: Vec<ChannelMemory> = self
            .channels
            .iter()
            .filter(|c| {
                self.memory_map.channel_is_mapped(c.slot) && !self.fsp.is_deconfigured(c.slot)
            })
            .map(|c| ChannelMemory {
                channel: c.slot,
                kind: c.kind,
                capacity: c.capacity,
            })
            .collect();
        if memories.is_empty() {
            return Err(BootError::NoUsableMemory);
        }
        self.memory_map = MemoryMap::build(&memories, 1 << 42).map_err(BootError::Map)?;
        self.powered = true;
        self.power_stats.reboots += 1;
        Ok(RebootReport {
            at,
            ready_at,
            restored_slots,
            data_loss,
            retrain_failures,
        })
    }

    /// Aggregated system metrics: every channel's registry merged
    /// (counters accumulate across channels) plus `system.failover.*`
    /// and `system.fsp.*`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for c in &self.channels {
            reg.merge(&c.channel.metrics());
        }
        reg.set_counter("system.failover.failovers", self.stats.failovers);
        reg.set_counter("system.failover.lines_migrated", self.stats.lines_migrated);
        reg.set_counter(
            "system.failover.poison_migrated",
            self.stats.poison_migrated,
        );
        reg.set_counter(
            "system.failover.demand_migrations",
            self.stats.demand_migrations,
        );
        reg.set_counter(
            "system.failover.mirror_read_fallbacks",
            self.stats.mirror_read_fallbacks,
        );
        reg.set_counter(
            "system.failover.lines_unreadable",
            self.stats.lines_unreadable,
        );
        reg.set_counter(
            "system.failover.migration_backlog",
            self.migration_backlog(),
        );
        reg.set_counter("system.mlp.submitted", self.mlp_stats.submitted);
        reg.set_counter("system.mlp.completed", self.mlp_stats.completed);
        reg.set_counter("system.mlp.redirects", self.mlp_stats.redirects);
        reg.set_counter(
            "system.mlp.peak_outstanding",
            self.mlp_stats.peak_outstanding,
        );
        reg.set_counter("system.mlp.outstanding", self.outstanding.len() as u64);
        reg.set_counter(
            "system.fsp.deconfigured_channels",
            self.fsp.deconfigured_channels().len() as u64,
        );
        reg.set_counter("system.fsp.log_entries", self.fsp.log_len() as u64);
        reg.set_counter("system.fsp.log_dropped", self.fsp.log_dropped());
        reg.set_counter("system.power.epow_asserted", self.power_stats.epow_asserted);
        reg.set_counter("system.power.cuts", self.power_stats.cuts);
        reg.set_counter("system.power.reboots", self.power_stats.reboots);
        reg.set_counter("system.power.lines_flushed", self.power_stats.lines_flushed);
        reg.set_counter(
            "system.power.holdup_spent_nj",
            self.power_stats.holdup_spent_nj,
        );
        reg.set_counter("system.power.saves_torn", self.power_stats.saves_torn);
        reg.set_counter(
            "system.power.restores_clean",
            self.power_stats.restores_clean,
        );
        reg.set_counter(
            "system.power.restores_failed",
            self.power_stats.restores_failed,
        );
        let o = &self.ov_stats;
        reg.set_counter("system.overload.shed_admission", o.shed_admission);
        reg.set_counter("system.overload.shed_deadline", o.shed_deadline);
        reg.set_counter("system.overload.shed_breaker", o.shed_breaker);
        reg.set_counter("system.overload.expired_at_submit", o.expired_at_submit);
        reg.set_counter("system.overload.deadline_expired", o.deadline_expired);
        reg.set_counter("system.overload.hedges_issued", o.hedges_issued);
        reg.set_counter("system.overload.hedges_won", o.hedges_won);
        reg.set_counter("system.overload.hedges_cancelled", o.hedges_cancelled);
        reg.set_counter("system.overload.brownout_entries", o.brownout_entries);
        reg.set_counter("system.overload.brownout_active", u64::from(self.brownout));
        reg.set_counter("system.overload.stalls", o.stalls);
        reg.set_counter(
            "system.overload.breaker_opens",
            self.breakers
                .values()
                .map(|b| u64::from(b.times_opened()))
                .sum(),
        );
        reg.set_counter(
            "system.overload.breakers_open",
            self.breakers
                .values()
                .filter(|b| b.state() != BreakerState::Closed)
                .count() as u64,
        );
        if let Some(b) = &self.retry_budget {
            let b = b.borrow();
            reg.set_counter("system.overload.retry_tokens", b.tokens());
            reg.set_counter("system.overload.retries_spent", b.spent());
            reg.set_counter("system.overload.retries_denied", b.denied());
        }
        reg.set_counter("system.fsp.breaker_reports", self.fsp.breaker_reports());
        reg.set_counter("system.snapshot.taken", self.snap_stats.taken);
        reg.set_counter("system.snapshot.bytes", self.snap_stats.bytes);
        reg.set_counter("system.snapshot.restores", self.snap_stats.restores);
        reg.set_counter(
            "system.snapshot.restore_failures",
            self.snap_stats.restore_failures,
        );
        reg
    }

    /// The slot serving a physical address, with the channel-local
    /// line address.
    pub fn route(&self, phys: u64) -> Option<(usize, u64)> {
        let (region_idx, offset) = self.memory_map.resolve(phys)?;
        let region = &self.memory_map.regions()[region_idx];
        Some((region.channel, offset))
    }

    /// Submits a pipelined load: routes `phys` through the memory map,
    /// enqueues a tracked read on the owning channel, and returns a
    /// [`ReqId`] immediately. Drive the system with
    /// [`Power8System::poll`] and collect the result there (or block
    /// on it with [`Power8System::wait_req`]). Up to the per-channel
    /// in-flight window ([`Power8System::set_mlp_window`]) of requests
    /// overlap on each channel.
    ///
    /// # Errors
    ///
    /// Immediate routing failures only: [`SystemError::PoweredOff`],
    /// [`SystemError::Route`] for unmapped addresses, and
    /// [`SystemError::Fsp`] when the owning channel is already
    /// deconfigured. Channel faults surface later, per completion.
    pub fn submit_load(&mut self, phys: u64) -> Result<ReqId, SystemError> {
        self.submit_req(phys, None, None)
    }

    /// [`Power8System::submit_load`] with a propagated absolute
    /// deadline: the request is shed with
    /// [`SystemError::DeadlineExceeded`] if already expired, shed with
    /// [`SystemError::Shed`] if admission control predicts the queue
    /// delay would blow it, and — once queued — dropped before issue
    /// (and never re-queued by the retry ladder) past the deadline. An
    /// answer that arrives after the deadline is delivered as the
    /// typed error, not as a late success.
    ///
    /// # Errors
    ///
    /// As [`Power8System::submit_load`], plus
    /// [`SystemError::DeadlineExceeded`] and [`SystemError::Shed`].
    pub fn submit_load_deadline(
        &mut self,
        phys: u64,
        deadline: Option<SimTime>,
    ) -> Result<ReqId, SystemError> {
        self.submit_req(phys, None, deadline)
    }

    /// Submits a pipelined store; otherwise as
    /// [`Power8System::submit_load`]. The host's written-line
    /// bookkeeping and the mirror fan-out happen when the completion
    /// is collected, preserving the blocking path's semantics.
    ///
    /// # Errors
    ///
    /// As for [`Power8System::submit_load`].
    pub fn submit_store(&mut self, phys: u64, data: CacheLine) -> Result<ReqId, SystemError> {
        self.submit_req(phys, Some(data), None)
    }

    /// [`Power8System::submit_store`] with a propagated deadline; see
    /// [`Power8System::submit_load_deadline`] for the shed semantics.
    ///
    /// # Errors
    ///
    /// As [`Power8System::submit_load_deadline`].
    pub fn submit_store_deadline(
        &mut self,
        phys: u64,
        data: CacheLine,
        deadline: Option<SimTime>,
    ) -> Result<ReqId, SystemError> {
        self.submit_req(phys, Some(data), deadline)
    }

    fn submit_req(
        &mut self,
        phys: u64,
        data: Option<CacheLine>,
        deadline: Option<SimTime>,
    ) -> Result<ReqId, SystemError> {
        if !self.powered {
            return Err(SystemError::PoweredOff);
        }
        self.update_brownout();
        // Each submission advances the background evacuation a batch,
        // so migration pacing stays proportional to demand traffic.
        self.pump_migration();
        let (slot, local) = self
            .route(phys)
            .ok_or(SystemError::Route(RouteError::Unmapped { phys }))?;
        self.fsp.check_channel(slot)?;
        let ch_now = self.now_of(slot);
        // Circuit breaker: fast-fail work aimed at a channel whose
        // ladder keeps losing, except for the half-open probe trickle.
        if let Some(br) = self.breakers.get_mut(&slot) {
            if !br.admit(ch_now) {
                self.ov_stats.shed_breaker += 1;
                return Err(SystemError::Shed { slot });
            }
        }
        // A dead-on-arrival deadline sheds before any queue state is
        // touched.
        if deadline.is_some_and(|d| ch_now >= d) {
            self.ov_stats.expired_at_submit += 1;
            return Err(SystemError::DeadlineExceeded);
        }
        // Admission control: a bounded queue, and — deadline known —
        // an estimate of whether queue delay alone would blow it.
        if let Some(adm) = self.overload.admission {
            let queued = self
                .channels
                .iter()
                .find(|c| c.slot == slot)
                .map_or(0, |c| c.channel.queued_commands());
            if queued >= adm.queue_limit {
                self.ov_stats.shed_admission += 1;
                return Err(SystemError::Shed { slot });
            }
            if let Some(d) = deadline {
                if ch_now + adm.service_estimate * (queued as u64 + 1) > d {
                    self.ov_stats.shed_deadline += 1;
                    return Err(SystemError::Shed { slot });
                }
            }
        }
        let line_addr = local & !127;
        let op = self.prepare_line(slot, line_addr, data);
        let cmd =
            {
                let ch = self.channel_mut(slot).ok_or(SystemError::Fsp(
                    FspError::ChannelDeconfigured { channel: slot },
                ))?;
                ch.channel.enqueue_command_deadline(op, deadline)
            };
        let id = self.next_req;
        self.next_req += 1;
        self.outstanding.insert(
            id,
            OutstandingReq {
                phys,
                slot,
                line_addr,
                data,
                redirects: 0,
                deadline,
                submitted_at: ch_now,
                hedged: false,
            },
        );
        self.route_back.insert((slot, cmd), id);
        self.mlp_stats.submitted += 1;
        let depth = self.outstanding.len() as u64;
        if depth > self.mlp_stats.peak_outstanding {
            self.mlp_stats.peak_outstanding = depth;
        }
        Ok(ReqId(id))
    }

    /// One batched pump round: advances the background migration, steps
    /// every channel that has tracked work by one frame slot (in slot
    /// order, deterministically), and returns every pipelined request
    /// that finished — in finish order, failover/poison/power semantics
    /// already applied per completion. Call in a loop to drive the
    /// system; an empty return just means nothing finished this round.
    pub fn poll(&mut self) -> Vec<(ReqId, Result<MemCompletion, SystemError>)> {
        if self.powered {
            self.pump_round();
        }
        self.finished_sys.drain(..).collect()
    }

    /// One pump round (see [`Power8System::poll`]). Returns whether it
    /// made progress — a request finished or a channel clock moved —
    /// the signal the no-progress watchdogs count.
    fn pump_round(&mut self) -> bool {
        let before_clock = self.clock_sum();
        let before_finished = self.finished_sys.len();
        self.pump_migration();
        self.pump_hedges();
        self.pump_channels();
        self.finished_sys.len() > before_finished || self.clock_sum() > before_clock
    }

    /// Runs [`Power8System::poll`] rounds until no pipelined request
    /// is outstanding, returning everything that finished. Stops early
    /// if the system powers off mid-drain, and — if `STALL_ROUNDS`
    /// consecutive rounds finish nothing and advance
    /// no clock — fails the remaining requests with
    /// [`SystemError::Stalled`] rather than livelocking on a wedged
    /// channel.
    pub fn drain(&mut self) -> Vec<(ReqId, Result<MemCompletion, SystemError>)> {
        let mut out = Vec::new();
        let mut stalled_rounds = 0u32;
        loop {
            // Results already queued (left by `wait_req`) count as
            // progress too.
            let progressed = (self.powered && self.pump_round()) || !self.finished_sys.is_empty();
            out.extend(self.finished_sys.drain(..));
            if self.outstanding.is_empty() || !self.powered {
                break;
            }
            if progressed {
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if stalled_rounds >= STALL_ROUNDS {
                    // One verdict fails every outstanding request.
                    self.ov_stats.stalls += 1;
                    let ids: Vec<u64> = self.outstanding.keys().copied().collect();
                    out.extend(ids.into_iter().map(|id| (ReqId(id), self.abandon(id))));
                    break;
                }
            }
        }
        out
    }

    /// The no-progress watchdog's verdict on one request: it fails
    /// with [`SystemError::Stalled`], its route-back entries and hedge
    /// state dropped, so a wedged channel can never livelock the pump.
    /// Typed and loud — never a hang. The caller counts the verdict.
    fn abandon(&mut self, id: u64) -> Result<MemCompletion, SystemError> {
        self.route_back.retain(|_, v| *v != id);
        self.hedge_arms.remove(&id);
        self.outstanding.remove(&id);
        self.mlp_stats.completed += 1;
        Err(SystemError::Stalled)
    }

    /// Pipelined requests currently in flight.
    pub fn outstanding_reqs(&self) -> usize {
        self.outstanding.len()
    }

    /// Progress signal for the no-progress watchdogs: the sum of every
    /// channel clock. [`Power8System::now`] is the *max* across
    /// channels, which hides a behind-the-max channel catching up;
    /// the sum moves whenever any channel steps forward.
    fn clock_sum(&self) -> u128 {
        self.channels
            .iter()
            .map(|c| u128::from(c.channel.now().as_ps()))
            .sum()
    }

    /// The system clock: the furthest-ahead channel. Channels advance
    /// independently while they have work; the maximum is what an
    /// external observer (a traffic generator pacing arrivals) should
    /// treat as "now".
    pub fn now(&self) -> SimTime {
        self.channels
            .iter()
            .map(|c| c.channel.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Advances every channel's clock to at least `t`, processing any
    /// in-flight frames on the way. Idle time between request arrivals
    /// passes here — an open-loop traffic generator uses it to let the
    /// system sit genuinely idle instead of back-to-back.
    pub fn advance_to(&mut self, t: SimTime) {
        for c in &mut self.channels {
            c.channel.run_until(t);
        }
    }

    /// Applies one tracked-command in-flight window to every channel
    /// (clamped to `1..=32`, the DMI tag space): the knob that turns
    /// memory-level parallelism up and down.
    pub fn set_mlp_window(&mut self, window: usize) {
        for c in &mut self.channels {
            c.channel.set_inflight_window(window);
        }
    }

    /// Blocks on one pipelined request: pump rounds run until `id`
    /// finishes. Other requests' results stay queued for
    /// [`Power8System::poll`].
    ///
    /// # Errors
    ///
    /// Whatever the request's ladder surfaced, plus
    /// [`SystemError::PoweredOff`] if the rail dropped while waiting,
    /// [`SystemError::UnknownRequest`] if `id` was never submitted or
    /// its result was already collected, and [`SystemError::Stalled`]
    /// if the pump stops making progress while the request is still
    /// outstanding (no-progress watchdog; never a livelock).
    pub fn wait_req(&mut self, id: ReqId) -> Result<MemCompletion, SystemError> {
        let mut stalled_rounds = 0u32;
        loop {
            if let Some(pos) = self.finished_sys.iter().position(|(r, _)| *r == id) {
                return self
                    .finished_sys
                    .remove(pos)
                    .expect("position just found")
                    .1;
            }
            if !self.powered {
                return Err(SystemError::PoweredOff);
            }
            if !self.outstanding.contains_key(&id.0) {
                return Err(SystemError::UnknownRequest);
            }
            if self.pump_round() {
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if stalled_rounds >= STALL_ROUNDS {
                    // Only this request is stalled; the others stay
                    // outstanding.
                    self.ov_stats.stalls += 1;
                    return self.abandon(id.0);
                }
            }
        }
    }

    /// Steps every channel with tracked work one slot and collects
    /// finished channel commands into finished system requests. Does
    /// not advance the migration — callers own that pacing.
    fn pump_channels(&mut self) {
        for idx in 0..self.channels.len() {
            if self.channels[idx].channel.has_command_work() {
                self.channels[idx].channel.step();
            }
            self.collect_channel(idx);
        }
    }

    /// Drains one channel's finished tracked commands and translates
    /// them into request completions.
    fn collect_channel(&mut self, idx: usize) {
        loop {
            let slot = self.channels[idx].slot;
            let Some((cmd, result)) = self.channels[idx].channel.poll_command() else {
                return;
            };
            let Some(req_id) = self.route_back.remove(&(slot, cmd)) else {
                // A tracked command someone enqueued directly on the
                // channel, not through the system — or a cancelled
                // hedge loser whose route entry was dropped when its
                // sibling won: absorbed, never delivered twice.
                continue;
            };
            if self.hedge_arms.contains_key(&req_id) {
                self.collect_hedged(slot, req_id, result);
                continue;
            }
            self.translate_completion(req_id, result);
        }
    }

    /// Issues hedge reads: an outstanding read against the mirrored
    /// primary that has aged past the hedge threshold gets a duplicate
    /// read enqueued on the mirror. First completion wins; the loser's
    /// route-back entry is dropped by [`Self::collect_hedged`], so its
    /// completion is absorbed without a second delivery. Only reads
    /// hedge — the mirror holds a full shadow copy by construction, so
    /// the duplicate has no side effects to double-apply.
    fn pump_hedges(&mut self) {
        let Some(h) = self.overload.hedge else {
            return;
        };
        let FailoverMode::Mirrored { primary, mirror } = self.mode else {
            return;
        };
        if self.fsp.is_deconfigured(primary)
            || self.fsp.is_deconfigured(mirror)
            || self.channel_index(mirror).is_none()
        {
            return;
        }
        let mut budget = h.max_in_flight.saturating_sub(self.hedge_arms.len());
        if budget == 0 {
            return;
        }
        let now = self.now();
        let due: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, r)| {
                r.data.is_none()
                    && !r.hedged
                    && r.slot == primary
                    && now >= r.submitted_at + h.after
            })
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            if budget == 0 {
                break;
            }
            let (line_addr, phys, deadline) = {
                let r = self.outstanding.get(&id).expect("id collected above");
                (r.line_addr, r.phys, r.deadline)
            };
            let Some(ch) = self.channel_mut(mirror) else {
                return;
            };
            let cmd = ch
                .channel
                .enqueue_command_deadline(CommandOp::Read { addr: line_addr }, deadline);
            self.route_back.insert((mirror, cmd), id);
            self.outstanding
                .get_mut(&id)
                .expect("id collected above")
                .hedged = true;
            self.hedge_arms.insert(id, 2);
            self.ov_stats.hedges_issued += 1;
            self.tracer.record(TraceEvent::HedgeIssued { addr: phys });
            budget -= 1;
        }
    }

    /// One arm of a hedged read finished. A clean completion wins the
    /// race: the request finishes once and the sibling's route entry
    /// is cancelled. A losing arm (error, poison, no data) charges its
    /// own channel's verdict and waits for the sibling — unless it was
    /// the last arm, in which case its error is surfaced.
    fn collect_hedged(
        &mut self,
        slot: usize,
        req_id: u64,
        result: Result<crate::channel::Completion, DmiError>,
    ) {
        let arms = self
            .hedge_arms
            .get_mut(&req_id)
            .expect("caller checked hedge_arms");
        *arms = arms.saturating_sub(1);
        let arms_left = *arms;
        let req = self.outstanding_req(req_id);
        match result {
            Ok(c) if !c.poisoned && c.data.is_some() => {
                self.hedge_arms.remove(&req_id);
                let routed = self.route_back.len();
                self.route_back.retain(|_, &mut id| id != req_id);
                self.ov_stats.hedges_cancelled += (routed - self.route_back.len()) as u64;
                self.ov_stats.hedges_won += 1;
                self.breaker_success(slot);
                // Same completion-time deadline translation as the
                // unhedged path: a winning arm that is still late
                // surfaces the typed error.
                self.deliver(req_id, &req, c.completed_at, c.data);
            }
            other => {
                let err = match other {
                    Ok(c) if c.poisoned => self.poisoned(slot, req.line_addr),
                    Ok(_) => DmiError::MalformedFrame("read completed without data"),
                    Err(e) => e,
                };
                // A deadline shed is not hardware evidence; everything
                // else charges the arm's own channel.
                let shed = matches!(err, DmiError::DeadlineExceeded { .. });
                if !shed {
                    self.apply_error_verdict(slot, req.line_addr, &err);
                    if self.fsp.is_deconfigured(slot) {
                        let _ = self.try_failover(slot);
                    }
                }
                if arms_left == 0 {
                    self.hedge_arms.remove(&req_id);
                    if shed {
                        self.expire(req_id);
                    } else {
                        self.finish_req(req_id, Err(SystemError::Dmi(err)));
                    }
                }
            }
        }
    }

    /// Applies the blocking path's per-access semantics to one
    /// finished channel command: poison surfacing, written-line and
    /// inherited-poison bookkeeping, the mirror fan-out, and the error
    /// ladder (verdict → failover → mirror fallback → redirect).
    fn translate_completion(
        &mut self,
        req_id: u64,
        result: Result<crate::channel::Completion, DmiError>,
    ) {
        let req = self.outstanding_req(req_id);
        match result {
            // Deadline translation at completion: the channel answered,
            // but past the point anyone wants it. The hardware evidence
            // is still a success (breaker credit stays); the *client*
            // gets the typed error. A late store has genuinely landed,
            // so its bookkeeping and mirror fan-out still run —
            // reporting the ambiguous outcome without fanning out would
            // silently desync the mirror.
            Ok(c) => match req.data {
                None if c.poisoned => {
                    let err = self.poisoned(req.slot, req.line_addr);
                    self.finish_req_error(req_id, err);
                }
                None if c.data.is_some() => {
                    self.breaker_success(req.slot);
                    self.deliver(req_id, &req, c.completed_at, c.data);
                }
                None => self.finish_req(
                    req_id,
                    Err(SystemError::Dmi(DmiError::MalformedFrame(
                        "read completed without data",
                    ))),
                ),
                Some(data) => {
                    self.written
                        .entry(req.slot)
                        .or_default()
                        .insert(req.line_addr);
                    // A successful full-line demand write overwrites
                    // any rot the line inherited from an evacuation.
                    if let Some(lines) = self.inherited_poison.get_mut(&req.slot) {
                        lines.remove(&req.line_addr);
                    }
                    self.mirror_store(req.slot, req.line_addr, data);
                    self.breaker_success(req.slot);
                    self.deliver(req_id, &req, c.completed_at, None);
                }
            },
            Err(err) => self.finish_req_error(req_id, err),
        }
    }

    /// The per-completion error ladder, ported from the old blocking
    /// helpers: classify the error against the owning channel's budget,
    /// fail over if the FSP pulled the channel, serve mirrored reads
    /// from the shadow copy, and re-route timed-out requests whose
    /// address now maps elsewhere — the route comparison (rather than a
    /// per-call flag) also redirects sibling requests that were already
    /// in flight when another request's timeout triggered the failover.
    fn finish_req_error(&mut self, req_id: u64, err: DmiError) {
        let req = self.outstanding_req(req_id);
        // A channel-level deadline shed is not hardware evidence: the
        // work was dropped, not failed. No verdict, no breaker charge,
        // no fallback or redirect (an expired request must never be
        // re-queued) — surface the typed system error directly.
        if matches!(err, DmiError::DeadlineExceeded { .. }) {
            self.expire(req_id);
            return;
        }
        let deadline_blown = req.deadline.is_some_and(|d| self.now_of(req.slot) >= d);
        self.apply_error_verdict(req.slot, req.line_addr, &err);
        if self.fsp.is_deconfigured(req.slot) {
            let _ = self.try_failover(req.slot);
        }
        // Recovery attempts (mirror fallback, redirect) are themselves
        // retries; a request past its deadline skips them and fails
        // fast — the verdict above still counted the hardware
        // evidence.
        if !deadline_blown {
            // Mirrored pairs fail reads over per-access: a poisoned or
            // timed-out primary read is served from the shadow copy.
            if req.data.is_none() {
                if let FailoverMode::Mirrored { primary, mirror } = self.mode {
                    if req.slot == primary
                        && matches!(err, DmiError::Poisoned { .. } | DmiError::Timeout { .. })
                        && !self.fsp.is_deconfigured(mirror)
                    {
                        let fallback = self
                            .channel_mut(mirror)
                            .and_then(|ch| ch.channel.read_line_blocking(req.line_addr).ok());
                        if let Some((line, at)) = fallback {
                            self.stats.mirror_read_fallbacks += 1;
                            self.tracer
                                .record(TraceEvent::MirrorReadFallback { addr: req.phys });
                            self.finish_req(
                                req_id,
                                Ok(MemCompletion {
                                    phys: req.phys,
                                    data: Some(line),
                                    completed_at: at,
                                }),
                            );
                            return;
                        }
                    }
                }
            }
            if matches!(err, DmiError::Timeout { .. }) && req.redirects < MAX_REDIRECTS {
                if let Some((new_slot, _)) = self.route(req.phys) {
                    if new_slot != req.slot {
                        self.redirect_req(req_id);
                        return;
                    }
                }
            }
        }
        if deadline_blown {
            self.expire(req_id);
        } else {
            self.finish_req(req_id, Err(SystemError::Dmi(err)));
        }
    }

    /// Re-routes an outstanding request through the memory map after a
    /// failover moved its address to a new slot.
    fn redirect_req(&mut self, req_id: u64) {
        let req = self.outstanding_req(req_id);
        let Some((slot, local)) = self.route(req.phys) else {
            self.finish_req(
                req_id,
                Err(SystemError::Route(RouteError::Unmapped { phys: req.phys })),
            );
            return;
        };
        if let Err(e) = self.fsp.check_channel(slot) {
            self.finish_req(req_id, Err(SystemError::Fsp(e)));
            return;
        }
        let line_addr = local & !127;
        let op = self.prepare_line(slot, line_addr, req.data);
        let Some(ch) = self.channel_mut(slot) else {
            self.finish_req(
                req_id,
                Err(SystemError::Fsp(FspError::ChannelDeconfigured {
                    channel: slot,
                })),
            );
            return;
        };
        let cmd = ch.channel.enqueue_command_deadline(op, req.deadline);
        let entry = self
            .outstanding
            .get_mut(&req_id)
            .expect("checked outstanding above");
        entry.slot = slot;
        entry.line_addr = line_addr;
        entry.redirects += 1;
        self.route_back.insert((slot, cmd), req_id);
        self.mlp_stats.redirects += 1;
    }

    /// Readies `line_addr` on `slot` for a demand access and builds its
    /// command. During an evacuation a read is pulled ahead of the copy
    /// frontier so the spare serves current data, and a write drops any
    /// copy of the line still queued: the migrator must not overwrite
    /// newer data.
    fn prepare_line(&mut self, slot: usize, line_addr: u64, data: Option<CacheLine>) -> CommandOp {
        match data {
            None => {
                self.demand_pull(slot, line_addr);
                CommandOp::Read { addr: line_addr }
            }
            Some(data) => {
                if let Some(mig) = self.migration.as_mut() {
                    if mig.to == slot && mig.pending.remove(&line_addr) {
                        mig.migrated += 1;
                    }
                }
                CommandOp::Write {
                    addr: line_addr,
                    data,
                }
            }
        }
    }

    /// A copy of an outstanding request's routing state.
    fn outstanding_req(&self, req_id: u64) -> OutstandingReq {
        self.outstanding
            .get(&req_id)
            .cloned()
            .expect("completion for a request not outstanding")
    }

    fn finish_req(&mut self, req_id: u64, result: Result<MemCompletion, SystemError>) {
        self.outstanding.remove(&req_id);
        self.mlp_stats.completed += 1;
        self.finished_sys.push_back((ReqId(req_id), result));
    }

    /// Finishes a request its channel answered at `completed_at`: with
    /// the completion, or with the typed deadline error when the answer
    /// came too late for the client.
    fn deliver(
        &mut self,
        req_id: u64,
        req: &OutstandingReq,
        completed_at: SimTime,
        data: Option<CacheLine>,
    ) {
        if req.deadline.is_some_and(|d| completed_at >= d) {
            self.expire(req_id);
        } else {
            self.finish_req(
                req_id,
                Ok(MemCompletion {
                    phys: req.phys,
                    data,
                    completed_at,
                }),
            );
        }
    }

    /// Counts and finishes a request shed for its deadline.
    fn expire(&mut self, req_id: u64) {
        self.ov_stats.deadline_expired += 1;
        self.finish_req(req_id, Err(SystemError::DeadlineExceeded));
    }

    /// Notes a poisoned read on `slot`'s channel and returns the error
    /// the request surfaces.
    fn poisoned(&mut self, slot: usize, line_addr: u64) -> DmiError {
        if let Some(ch) = self.channel_mut(slot) {
            ch.channel.note_poison_delivered(line_addr);
        }
        DmiError::Poisoned { addr: line_addr }
    }

    /// Software cache-line load at a physical address, through the
    /// owning channel. A thin shim over the pipelined path:
    /// [`Power8System::submit_load`] + [`Power8System::wait_req`].
    ///
    /// # Errors
    ///
    /// [`SystemError::Route`] for unmapped addresses,
    /// [`SystemError::Fsp`] when the owning channel is deconfigured
    /// with nowhere to fail over, [`SystemError::Dmi`] for channel
    /// faults that survived the recovery ladder.
    pub fn load_line(&mut self, phys: u64) -> Result<(CacheLine, SimTime), SystemError> {
        let id = self.submit_load(phys)?;
        let c = self.wait_req(id)?;
        let data = c.data.ok_or(SystemError::Dmi(DmiError::MalformedFrame(
            "read completed without data",
        )))?;
        Ok((data, c.completed_at))
    }

    /// Software cache-line store: shim over
    /// [`Power8System::submit_store`] + [`Power8System::wait_req`].
    ///
    /// # Errors
    ///
    /// Same ladder as [`Self::load_line`].
    pub fn store_line(&mut self, phys: u64, data: CacheLine) -> Result<SimTime, SystemError> {
        let id = self.submit_store(phys, data)?;
        let c = self.wait_req(id)?;
        Ok(c.completed_at)
    }

    /// Fans a successful primary store out to the mirror.
    fn mirror_store(&mut self, slot: usize, line_addr: u64, data: CacheLine) {
        let FailoverMode::Mirrored { primary, mirror } = self.mode else {
            return;
        };
        if slot != primary || self.fsp.is_deconfigured(mirror) {
            return;
        }
        let result = match self.channel_mut(mirror) {
            Some(ch) => ch.channel.write_line_blocking(line_addr, data),
            None => return,
        };
        match result {
            Ok(_) => {
                self.written.entry(mirror).or_default().insert(line_addr);
            }
            Err(err) => {
                // The mirror is degrading, not the primary: classify
                // against the mirror's budget; the pair keeps running
                // unmirrored once the FSP pulls it.
                self.apply_error_verdict(mirror, line_addr, &err);
            }
        }
    }

    /// Runs the firmware's error classification and applies its
    /// verdict. The blocking helpers only surface `Timeout` /
    /// `TrainingFailed` after the retry→retrain ladder is exhausted,
    /// so an [`ErrorAction::Deconfigure`] verdict takes the channel
    /// out of service immediately — it is the ladder's final answer,
    /// not a first symptom. Poison on a line that arrived already
    /// poisoned via evacuation is exempt: consuming it machine-checks
    /// the reader, but is not fresh evidence against the hosting
    /// channel's hardware, so it must not charge that channel's error
    /// budget.
    fn apply_error_verdict(&mut self, slot: usize, line_addr: u64, err: &DmiError) {
        if matches!(err, DmiError::Poisoned { .. })
            && self
                .inherited_poison
                .get(&slot)
                .is_some_and(|lines| lines.contains(&line_addr))
        {
            return;
        }
        self.breaker_failure(slot);
        let now = self.now_of(slot);
        if Firmware::classify_runtime_error(now, slot, err, &mut self.fsp)
            == ErrorAction::Deconfigure
        {
            self.fsp.deconfigure(now, slot, "recovery ladder exhausted");
        }
    }

    /// Feeds a successful completion to the slot's breaker; a
    /// half-open → closed transition is reported to the FSP and
    /// traced.
    fn breaker_success(&mut self, slot: usize) {
        let closed = self
            .breakers
            .get_mut(&slot)
            .is_some_and(CircuitBreaker::on_success);
        if closed {
            let now = self.now_of(slot);
            self.fsp.note_breaker(now, slot, false);
            self.tracer
                .record(TraceEvent::BreakerTransition { slot, open: false });
        }
    }

    /// Feeds a ladder-final failure to the slot's breaker. A trip is
    /// reported to the FSP, and once a breaker has opened
    /// `deconfigure_after_opens` times the FSP's verdict is that the
    /// channel is persistently failing: it is deconfigured outright
    /// (breaker state consumed as service-processor evidence).
    fn breaker_failure(&mut self, slot: usize) {
        let now = self.now_of(slot);
        let tripped = self
            .breakers
            .get_mut(&slot)
            .is_some_and(|br| br.on_failure(now));
        if !tripped {
            return;
        }
        self.fsp.note_breaker(now, slot, true);
        self.tracer
            .record(TraceEvent::BreakerTransition { slot, open: true });
        let opens = self
            .breakers
            .get(&slot)
            .map_or(0, CircuitBreaker::times_opened);
        if let Some(bcfg) = self.overload.breaker {
            if opens >= bcfg.deconfigure_after_opens && !self.fsp.is_deconfigured(slot) {
                self.fsp.deconfigure(now, slot, "circuit breaker exhausted");
            }
        }
    }

    /// Concurrent maintenance (paper §3.2): an operator pulls a buffer
    /// card from the running system. The FSP deconfigures the slot and
    /// the system fails over before the access stream resumes.
    ///
    /// # Errors
    ///
    /// [`SystemError::Fsp`] if the slot backs live regions and there is
    /// no failover target — the pull would orphan mapped memory.
    pub fn maintenance_pull(&mut self, slot: usize) -> Result<(), SystemError> {
        let at = self.now_of(slot);
        self.fsp.deconfigure(at, slot, "maintenance pull");
        if self.memory_map.channel_is_mapped(slot) && !self.try_failover(slot) {
            return Err(SystemError::Fsp(FspError::ChannelDeconfigured {
                channel: slot,
            }));
        }
        Ok(())
    }

    /// Quiesce → remap → (spare mode) start evacuation. Returns
    /// whether a target took over the dead slot's regions.
    fn try_failover(&mut self, slot: usize) -> bool {
        if self
            .migration
            .as_ref()
            .is_some_and(|m| m.from == slot || m.to == slot)
        {
            return false;
        }
        if !self.memory_map.channel_is_mapped(slot) {
            return false;
        }
        let target = match self.mode {
            FailoverMode::None => return false,
            FailoverMode::Spare { spare } => {
                if spare == slot
                    || self.fsp.is_deconfigured(spare)
                    || self.channel_index(spare).is_none()
                {
                    return false;
                }
                spare
            }
            FailoverMode::Mirrored { primary, mirror } => {
                if slot != primary
                    || self.fsp.is_deconfigured(mirror)
                    || self.channel_index(mirror).is_none()
                {
                    return false;
                }
                mirror
            }
        };
        // Quiesce: drain in-flight tags within a bounded budget; a
        // dead link reclaims them via reset instead.
        let clean = match self.channel_mut(slot) {
            Some(ch) => {
                let budget = ch.channel.retry_policy().op_timeout * QUIESCE_TIMEOUTS;
                ch.channel.quiesce(budget).unwrap_or(false)
            }
            None => false,
        };
        self.tracer
            .record(TraceEvent::ChannelQuiesced { slot, clean });
        let mirrored = matches!(self.mode, FailoverMode::Mirrored { .. });
        self.memory_map.rebind_channel(slot, target);
        self.tracer.record(TraceEvent::ChannelFailedOver {
            from: slot,
            to: target,
            mirrored,
        });
        self.stats.failovers += 1;
        if !mirrored {
            // Writes drained by the quiesce (or requeued by its link
            // reset) have not been through `translate_completion` yet:
            // their acks will be delivered after the remap, so their
            // lines must evacuate too — snapshotting `written` alone
            // would strand freshly acknowledged data on the dead
            // buffer.
            let in_flight: Vec<u64> = self
                .outstanding
                .values()
                .filter(|r| r.slot == slot && r.data.is_some())
                .map(|r| r.line_addr)
                .collect();
            self.written.entry(slot).or_default().extend(in_flight);
            // Evacuate everything software ever wrote through the dead
            // slot. The mirror already holds its copy by construction.
            let pending: BTreeSet<u64> = self.written.get(&slot).cloned().unwrap_or_default();
            let backlog = pending.len() as u64;
            self.migration = Some(Migration {
                from: slot,
                to: target,
                pending,
                migrated: 0,
                poison_migrated: 0,
            });
            self.tracer.record(TraceEvent::MigrationProgress {
                from: slot,
                to: target,
                migrated: 0,
                remaining: backlog,
            });
        }
        true
    }

    /// Background catch-up: each demand access moves up to
    /// [`MIGRATION_BATCH`] lines (scrub-style, like the PR-3 patrol).
    /// While browned out, the batch shrinks to the brownout batch so
    /// evacuation yields its bandwidth to demand traffic — but never
    /// to zero: a dead buffer's data stays at risk until it is off the
    /// card.
    fn pump_migration(&mut self) {
        let batch = if self.brownout {
            self.overload
                .brownout
                .map_or(MIGRATION_BATCH, |b| b.migration_batch.max(1))
        } else {
            MIGRATION_BATCH
        };
        for _ in 0..batch {
            if !self.migrate_next() {
                break;
            }
        }
    }

    /// The brownout hysteresis: total queued commands above the high
    /// watermark engage it (migration batch shrinks, patrol scrub
    /// intervals stretch); at or below the low watermark it releases
    /// and the saved scrub intervals are restored.
    fn update_brownout(&mut self) {
        let Some(bo) = self.overload.brownout else {
            return;
        };
        let queued: usize = self
            .channels
            .iter()
            .map(|c| c.channel.queued_commands())
            .sum();
        if !self.brownout && queued >= bo.queue_high {
            self.brownout = true;
            self.ov_stats.brownout_entries += 1;
            let slots: Vec<usize> = self.channels.iter().map(|c| c.slot).collect();
            for slot in slots {
                let Some(ch) = self.channel_mut(slot) else {
                    continue;
                };
                let Some(iv) = ch.channel.buffer_mut().scrub_interval() else {
                    continue;
                };
                let now = ch.channel.now();
                let stretched = iv * u64::from(bo.scrub_stretch.max(1));
                if ch.channel.buffer_mut().set_scrub(now, Some(stretched)) {
                    self.brownout_saved_scrub.insert(slot, iv);
                }
            }
        } else if self.brownout && queued <= bo.queue_low {
            self.exit_brownout();
        }
    }

    /// Releases brownout and restores every stretched scrub interval.
    fn exit_brownout(&mut self) {
        if !self.brownout {
            return;
        }
        self.brownout = false;
        let saved: Vec<(usize, SimTime)> = self
            .brownout_saved_scrub
            .iter()
            .map(|(&slot, &iv)| (slot, iv))
            .collect();
        self.brownout_saved_scrub.clear();
        for (slot, iv) in saved {
            if let Some(ch) = self.channel_mut(slot) {
                let now = ch.channel.now();
                let _ = ch.channel.buffer_mut().set_scrub(now, Some(iv));
            }
        }
    }

    /// Moves one pending line; returns false when nothing is left.
    fn migrate_next(&mut self) -> bool {
        let Some(mig) = self.migration.as_mut() else {
            return false;
        };
        let from = mig.from;
        let to = mig.to;
        let Some(line) = mig.pending.pop_first() else {
            let migrated = mig.migrated;
            self.migration = None;
            self.tracer.record(TraceEvent::MigrationProgress {
                from,
                to,
                migrated,
                remaining: 0,
            });
            return false;
        };
        let poisoned = self.copy_line(from, to, line);
        self.stats.lines_migrated += 1;
        if poisoned {
            self.stats.poison_migrated += 1;
        }
        if let Some(mig) = self.migration.as_mut() {
            mig.migrated += 1;
            if poisoned {
                mig.poison_migrated += 1;
            }
            if mig.migrated % MIGRATION_PROGRESS_STRIDE == 0 {
                let migrated = mig.migrated;
                let remaining = mig.backlog();
                self.tracer.record(TraceEvent::MigrationProgress {
                    from,
                    to,
                    migrated,
                    remaining,
                });
            }
        }
        true
    }

    /// Pulls one line ahead of the copy frontier because a demand
    /// access needs it on the spare right now.
    fn demand_pull(&mut self, slot: usize, line_addr: u64) {
        let Some(mig) = self.migration.as_mut() else {
            return;
        };
        if mig.to != slot || !mig.pending.remove(&line_addr) {
            return;
        }
        let from = mig.from;
        let poisoned = self.copy_line(from, slot, line_addr);
        self.stats.demand_migrations += 1;
        self.stats.lines_migrated += 1;
        if poisoned {
            self.stats.poison_migrated += 1;
        }
        if let Some(mig) = self.migration.as_mut() {
            mig.migrated += 1;
            if poisoned {
                mig.poison_migrated += 1;
            }
        }
    }

    /// Moves one line over the sideband path (FSI→I²C, paper §3.4 —
    /// alive even when the DMI link is not). Returns whether the line
    /// landed poisoned. Unreadable lines migrate as explicit poison:
    /// data is lost loudly, never silently.
    fn copy_line(&mut self, from: usize, to: usize, line: u64) -> bool {
        let read = match self.channel_mut(from) {
            Some(ch) => {
                let now = ch.channel.now();
                ch.channel.buffer_mut().sideband_read_line(now, line)
            }
            None => None,
        };
        let (data, poison) = match read {
            Some((data, poison)) => (data, poison),
            None => {
                self.stats.lines_unreadable += 1;
                ([0u8; 128], true)
            }
        };
        if let Some(ch) = self.channel_mut(to) {
            if ch
                .channel
                .buffer_mut()
                .sideband_write_line(line, &data, poison)
            {
                // Sideband transfers are slow: charge the spare's clock.
                let t = ch.channel.now() + MIGRATION_LINE_COST;
                ch.channel.run_until(t);
                self.written.entry(to).or_default().insert(line);
                if poison {
                    // Remember the rot arrived with the line, so
                    // consuming it never charges the spare's budget.
                    self.inherited_poison.entry(to).or_default().insert(line);
                } else if let Some(lines) = self.inherited_poison.get_mut(&to) {
                    lines.remove(&line);
                }
            } else {
                self.stats.lines_unreadable += 1;
            }
        }
        poison
    }

    /// Whether an evacuation is still running.
    pub fn failover_in_progress(&self) -> bool {
        self.migration.is_some()
    }

    /// Lines still waiting to reach the spare.
    pub fn migration_backlog(&self) -> u64 {
        self.migration.as_ref().map_or(0, Migration::backlog)
    }

    /// Runs the migrator to completion (maintenance windows do this
    /// before declaring the dead card safe to physically remove).
    pub fn complete_migration(&mut self) {
        while self.migrate_next() {}
    }

    fn now_of(&self, slot: usize) -> SimTime {
        self.channels
            .iter()
            .find(|c| c.slot == slot)
            .map_or(SimTime::ZERO, |c| c.channel.now())
    }

    /// The non-volatile channels (pmem driver targets).
    pub fn nonvolatile_slots(&self) -> Vec<usize> {
        self.channels
            .iter()
            .filter(|c| c.kind.is_nonvolatile())
            .map(|c| c.slot)
            .collect()
    }

    /// Total OS-visible memory.
    pub fn os_visible_bytes(&self) -> u64 {
        self.memory_map.regions().iter().map(|r| r.os_size).sum()
    }

    /// Periodic FSP health sweep (paper §3.2: the service processor
    /// "periodically checks the correct operation of all the
    /// hardware"): logs recovered link errors (CRC/replay) per
    /// channel since the last sweep.
    pub fn health_check(&mut self, at: SimTime) {
        let mut events = Vec::new();
        for c in &self.channels {
            let s = c.channel.host_stats();
            if s.crc_errors + s.seq_errors + s.replays_triggered > 0 {
                events.push((
                    c.slot,
                    format!(
                        "{} crc, {} seq errors; {} replays (recovered)",
                        s.crc_errors, s.seq_errors, s.replays_triggered
                    ),
                ));
            }
        }
        for (slot, msg) in events {
            self.fsp
                .log(at, slot, crate::fsp::Severity::Recovered, &msg);
        }
    }

    /// Media kind at a physical address.
    pub fn media_at(&self, phys: u64) -> Option<MediaKind> {
        let (region_idx, _) = self.memory_map.resolve(phys)?;
        Some(self.memory_map.regions()[region_idx].flags.kind)
    }
}

persist_fields!(ReqId { 0 });

persist_fields!(PowerConfig {
    holdup_budget_nj,
    nvdimm_supercap_nj
});

persist_fields!(PowerStats {
    epow_asserted,
    cuts,
    reboots,
    lines_flushed,
    holdup_spent_nj,
    saves_torn,
    restores_clean,
    restores_failed
});

persist_fields!(MlpStats {
    submitted,
    completed,
    redirects,
    peak_outstanding
});

persist_fields!(OutstandingReq {
    phys,
    slot,
    line_addr,
    data,
    redirects,
    deadline,
    submitted_at,
    hedged
});

persist_fields!(MemCompletion {
    phys,
    data,
    completed_at
});

impl Persist for SystemError {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            SystemError::Route(RouteError::Unmapped { phys }) => {
                0u8.persist(out);
                phys.persist(out);
            }
            SystemError::Fsp(FspError::ChannelDeconfigured { channel }) => {
                1u8.persist(out);
                channel.persist(out);
            }
            SystemError::Dmi(e) => {
                2u8.persist(out);
                e.persist(out);
            }
            SystemError::PoweredOff => 3u8.persist(out),
            SystemError::DeadlineExceeded => 4u8.persist(out),
            SystemError::Shed { slot } => {
                5u8.persist(out);
                slot.persist(out);
            }
            SystemError::Stalled => 6u8.persist(out),
            SystemError::UnknownRequest => 7u8.persist(out),
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(match r.u8()? {
            0 => SystemError::Route(RouteError::Unmapped { phys: r.u64()? }),
            1 => SystemError::Fsp(FspError::ChannelDeconfigured {
                channel: usize::restore(r)?,
            }),
            2 => SystemError::Dmi(DmiError::restore(r)?),
            3 => SystemError::PoweredOff,
            4 => SystemError::DeadlineExceeded,
            5 => SystemError::Shed {
                slot: usize::restore(r)?,
            },
            6 => SystemError::Stalled,
            7 => SystemError::UnknownRequest,
            _ => {
                return Err(RestoreError::Malformed {
                    context: "system error discriminant",
                })
            }
        })
    }
}

/// A channel section: the slot, media kind and capacity it was taken
/// from, checked against the booted channel, then the training outcome
/// and the channel itself.
impl BootedChannel {
    contutto_sim::state_fields!({
        same slot => "channel section slot",
        same kind => "channel media kind",
        same capacity => "channel capacity",
        training,
        state channel,
    });
}

/// The `system` section: everything the machine owns above its
/// channels.
impl Power8System {
    fn channel_count(&self) -> usize {
        self.channels.len()
    }

    fn persist_retry_budget(&self, out: &mut Vec<u8>) {
        self.retry_budget.is_some().persist(out);
        if let Some(budget) = &self.retry_budget {
            budget.borrow().snapshot_state(out);
        }
    }

    /// A budget's state decodes over a default tuning: the restored
    /// overload policy that tunes it is in place only once the list has
    /// decoded.
    fn restore_retry_budget(
        &self,
        r: &mut SnapReader<'_>,
    ) -> Result<Option<RetryBudget>, RestoreError> {
        if !r.bool()? {
            return Ok(None);
        }
        let mut budget = RetryBudget::new(RetryBudgetConfig::default());
        budget.restore_state(r)?;
        Ok(Some(budget))
    }

    /// Tunes the restored budget by the restored policy and shares it
    /// with every channel's ladder.
    fn install_retry_budget(&mut self, budget: Option<RetryBudget>) -> Result<(), RestoreError> {
        let budget = match budget {
            None => None,
            Some(budget) => {
                let Some(cfg) = self.overload.retry_budget else {
                    return Err(RestoreError::Malformed {
                        context: "retry budget state without a budget config",
                    });
                };
                Some(Rc::new(RefCell::new(budget.with_config(cfg))))
            }
        };
        for c in &mut self.channels {
            c.channel.set_retry_budget(budget.clone());
        }
        self.retry_budget = budget;
        Ok(())
    }

    fn persist_breakers(&self, out: &mut Vec<u8>) {
        (self.breakers.len() as u64).persist(out);
        for (slot, breaker) in &self.breakers {
            slot.persist(out);
            breaker.snapshot_state(out);
        }
    }

    /// Breakers decode over a default tuning, as the retry budget does;
    /// a count the bytes left cannot hold (each entry takes at least 9)
    /// is truncated before any entry decodes.
    fn restore_breakers(
        &self,
        r: &mut SnapReader<'_>,
    ) -> Result<BTreeMap<usize, CircuitBreaker>, RestoreError> {
        let n = r.len()?;
        if n > r.remaining() / 9 {
            return Err(RestoreError::Truncated {
                context: "breaker table",
            });
        }
        snapshot::restore_entries(r, n, |r| {
            let mut breaker = CircuitBreaker::new(BreakerConfig::default());
            breaker.restore_state(r)?;
            Ok(breaker)
        })
    }

    fn install_breakers(
        &mut self,
        breakers: BTreeMap<usize, CircuitBreaker>,
    ) -> Result<(), RestoreError> {
        if breakers.is_empty() {
            self.breakers = breakers;
            return Ok(());
        }
        let Some(cfg) = self.overload.breaker else {
            return Err(RestoreError::Malformed {
                context: "breaker state without a breaker config",
            });
        };
        self.breakers = breakers
            .into_iter()
            .map(|(slot, breaker)| (slot, breaker.with_config(cfg)))
            .collect();
        Ok(())
    }

    /// Every channel command routed back, and every hedge, belongs to
    /// an outstanding request: a completion for any other would find
    /// no request to complete.
    fn routes_lead_to_outstanding_requests(&self) -> Result<(), RestoreError> {
        let known = |id: &u64| self.outstanding.contains_key(id);
        if !self.route_back.values().all(known) || !self.hedge_arms.keys().all(known) {
            return Err(RestoreError::Malformed {
                context: "route to a request not outstanding",
            });
        }
        Ok(())
    }

    /// Every region fits the channel behind it: an address the map
    /// routes must be one the channel's media holds.
    fn regions_fit_their_channels(&self) -> Result<(), RestoreError> {
        let fits = |r: &crate::memmap::MemoryRegion| {
            self.channels
                .iter()
                .find(|c| c.slot == r.channel)
                .is_none_or(|c| r.os_size <= c.capacity)
        };
        if !self.memory_map.regions().iter().all(fits) {
            return Err(RestoreError::Malformed {
                context: "memory region larger than its channel",
            });
        }
        Ok(())
    }

    contutto_sim::state_fields!({
        same_as(Self::channel_count) => "channel count",
        same mode => "failover mode",
        memory_map,
        state fsp,
        migration,
        written,
        inherited_poison,
        stats,
        power,
        powered,
        power_stats,
        nvdimm_armed,
        next_req,
        outstanding,
        route_back,
        finished_sys,
        mlp_stats,
        overload,
        apply (Self::persist_retry_budget, Self::restore_retry_budget => Self::install_retry_budget),
        apply (Self::persist_breakers, Self::restore_breakers => Self::install_breakers),
        hedge_arms,
        ov_stats,
        brownout,
        brownout_saved_scrub,
        check Self::regions_fit_their_channels,
        check Self::routes_lead_to_outstanding_requests,
    });

    /// Serializes the whole machine — memory map, FSP, failover and
    /// power state, the pipelined request plumbing, overload governors,
    /// every channel (buffer, devices, link, tags, queues) and the
    /// trace ring — into one versioned, section-framed, CRC-sealed
    /// image.
    ///
    /// Construction parameters (slot layout, media kinds, capacities,
    /// failover mode, link speeds) are *not* persisted as state: the
    /// image records them only as cross-check material, and
    /// [`Power8System::restore`] demands a target booted from the same
    /// layout. Only `&mut self` for the `system.snapshot.*` observer
    /// counters; simulation state is untouched.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section_with("system", |out| self.snapshot_state(out));
        for c in &self.channels {
            w.section_with(&format!("channel.{}", c.slot), |out| c.snapshot_state(out));
        }
        if self.tracer.is_enabled() {
            w.section_with("tracer", |out| self.tracer.snapshot_state(out));
        }
        let image = w.finish();
        self.snap_stats.taken += 1;
        self.snap_stats.bytes += image.len() as u64;
        image
    }

    /// Overlays a [`Power8System::snapshot`] image onto this system.
    ///
    /// The target must be freshly booted from the *same construction
    /// parameters* (slot layout, seed-independent topology, failover
    /// mode) as the snapshotted system; mismatches surface as
    /// [`RestoreError::TopologyMismatch`]. After a successful restore,
    /// continuing the run is fingerprint- and metrics-identical
    /// (modulo the `system.snapshot.*` observer namespace) to the run
    /// the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Every [`RestoreError`]: corrupt or truncated images fail the
    /// framing CRCs, unknown sections are rejected, and topology
    /// mismatches are typed. On error the target is left in an
    /// unspecified (partially restored) state and must be discarded —
    /// never resumed.
    pub fn restore(&mut self, image: &[u8]) -> Result<(), RestoreError> {
        match self.restore_inner(image) {
            Ok(()) => {
                self.snap_stats.restores += 1;
                Ok(())
            }
            Err(e) => {
                self.snap_stats.restore_failures += 1;
                Err(e)
            }
        }
    }

    /// The sections, not their fields: each section's layout is its
    /// owner's `state_fields!` list.
    fn restore_inner(&mut self, image: &[u8]) -> Result<(), RestoreError> {
        let img = SnapshotImage::parse(image)?;
        for name in img.names() {
            match name {
                "system" | "tracer" => {}
                _ => match name
                    .strip_prefix("channel.")
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    Some(slot) => {
                        if self.channel_index(slot).is_none() {
                            return Err(RestoreError::TopologyMismatch {
                                context: "snapshot channel slot is not populated here",
                            });
                        }
                    }
                    None => {
                        return Err(RestoreError::UnknownSection {
                            section: name.to_owned(),
                        })
                    }
                },
            }
        }

        let mut r = img.section("system")?;
        self.restore_state(&mut r)?;
        all_read(&r, "trailing bytes in system section")?;

        // Tracer wiring has to exist before the channels restore so
        // every clone shares the overlaid ring; the ring *contents*
        // are overlaid last, after all state is in place. A snapshot
        // taken untraced restores to an untraced system — continuing
        // with a live tracer would diverge from the straight run.
        let has_tracer = img.names().any(|n| n == "tracer");
        if has_tracer && !self.tracer.is_enabled() {
            self.enable_tracing(1); // real capacity overlaid below
        } else if !has_tracer && self.tracer.is_enabled() {
            for c in &mut self.channels {
                c.channel.attach_tracer(Tracer::off());
            }
            self.tracer = Tracer::off();
        }

        for c in &mut self.channels {
            let mut r = img.section(&format!("channel.{}", c.slot))?;
            c.restore_state(&mut r)?;
            all_read(&r, "trailing bytes in channel section")?;
        }

        if has_tracer {
            let mut r = img.section("tracer")?;
            self.tracer.restore_state(&mut r)?;
            all_read(&r, "trailing bytes in tracer section")?;
        }
        Ok(())
    }
}

/// A section must decode to its last byte.
fn all_read(r: &SnapReader<'_>, context: &'static str) -> Result<(), RestoreError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(RestoreError::Malformed { context })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::layouts;
    use contutto_core::{ContuttoConfig, MemoryKind, MemoryPopulation};

    /// A small NVDIMM population so save/restore sweeps stay fast.
    fn nvdimm_small() -> MemoryPopulation {
        MemoryPopulation {
            kind: MemoryKind::NvdimmN,
            dimm_capacity: 512 << 10,
            dimms: 2,
        }
    }

    #[test]
    fn boots_mixed_system_and_routes_loads() {
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            7,
        )
        .unwrap();
        // Store then load in low DRAM (a CDIMM channel).
        let line = CacheLine::patterned(3);
        sys.store_line(0x100_0000, line).unwrap();
        let (back, _) = sys.load_line(0x100_0000).unwrap();
        assert_eq!(back, line);
        assert!(sys.os_visible_bytes() > 8 << 30);
    }

    #[test]
    fn mram_region_routes_to_contutto_slot() {
        let mut sys = Power8System::boot(layouts::mram_storage_system(), 5).unwrap();
        let nv_slots = sys.nonvolatile_slots();
        assert_eq!(nv_slots.len(), 2);
        let nv_region_base = sys.memory_map().nonvolatile_regions()[0].base;
        assert_eq!(sys.media_at(nv_region_base), Some(MediaKind::SttMram));
        // Persist a line into MRAM.
        let line = CacheLine::patterned(9);
        sys.store_line(nv_region_base, line).unwrap();
        let (back, _) = sys.load_line(nv_region_base).unwrap();
        assert_eq!(back, line);
        let (slot, _) = sys.route(nv_region_base).unwrap();
        assert!(nv_slots.contains(&slot));
    }

    #[test]
    fn contutto_channel_is_measurably_slower_in_system() {
        let mut sys = Power8System::boot(
            layouts::single_contutto_for_latency(ContuttoConfig::base()),
            3,
        )
        .unwrap();
        // Warm both regions.
        let dram_lo = 0u64;
        let contutto_region = sys
            .memory_map()
            .regions()
            .iter()
            .find(|r| r.channel == 2)
            .unwrap()
            .base;
        sys.load_line(dram_lo).unwrap();
        sys.load_line(contutto_region).unwrap();

        let t0 = sys.channel_mut(0).unwrap().channel.now();
        sys.load_line(dram_lo).unwrap();
        let cdimm_lat = sys.channel_mut(0).unwrap().channel.now() - t0;

        let t0 = sys.channel_mut(2).unwrap().channel.now();
        sys.load_line(contutto_region).unwrap();
        let contutto_lat = sys.channel_mut(2).unwrap().channel.now() - t0;
        assert!(contutto_lat > cdimm_lat * 3);
    }

    #[test]
    fn health_check_logs_recovered_errors() {
        use crate::channel::{ChannelConfig, DmiChannel};
        use contutto_centaur::{Centaur, CentaurConfig};
        use contutto_dmi::link::BitErrorInjector;
        // Build a system, then swap in a noisy channel to generate
        // recovered errors the sweep should pick up.
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            7,
        )
        .unwrap();
        sys.health_check(SimTime::from_ms(1));
        assert!(
            !sys.fsp()
                .entries()
                .any(|e| e.severity == crate::fsp::Severity::Recovered),
            "clean system logs no recovered errors"
        );
        // Make channel 2 noisy and exercise it.
        let mut cfg = ChannelConfig::centaur();
        cfg.down_errors = BitErrorInjector::bernoulli(0.05, 5);
        let noisy = DmiChannel::new(
            cfg,
            Box::new(Centaur::new(CentaurConfig::optimized(), 32 << 30)),
        );
        sys.channel_mut(2).unwrap().channel = noisy;
        for i in 0..10 {
            sys.load_line((8u64 << 30) + i * 128).unwrap();
        }
        sys.health_check(SimTime::from_ms(2));
        let recovered: Vec<_> = sys
            .fsp()
            .entries()
            .filter(|e| e.severity == crate::fsp::Severity::Recovered)
            .collect();
        assert!(!recovered.is_empty(), "noisy channel shows in the sweep");
        assert!(recovered[0].message.contains("recovered"));
        // Recovered errors never deconfigure.
        assert!(sys.fsp().deconfigured_channels().is_empty());
    }

    #[test]
    fn unmapped_media_query_is_none() {
        let sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            7,
        )
        .unwrap();
        assert_eq!(sys.media_at(1 << 45), None);
    }

    #[test]
    fn unmapped_access_returns_typed_error_not_panic() {
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            7,
        )
        .unwrap();
        let phys = 1u64 << 45;
        assert_eq!(
            sys.load_line(phys),
            Err(SystemError::Route(RouteError::Unmapped { phys }))
        );
        assert_eq!(
            sys.store_line(phys, CacheLine::patterned(1)),
            Err(SystemError::Route(RouteError::Unmapped { phys }))
        );
    }

    #[test]
    fn deconfigured_channel_access_returns_typed_error() {
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            7,
        )
        .unwrap();
        let (slot, _) = sys.route(0).unwrap();
        sys.fsp_mut().deconfigure(SimTime::ZERO, slot, "test");
        assert_eq!(
            sys.load_line(0),
            Err(SystemError::Fsp(FspError::ChannelDeconfigured {
                channel: slot
            }))
        );
        assert_eq!(
            sys.store_line(0, CacheLine::patterned(2)),
            Err(SystemError::Fsp(FspError::ChannelDeconfigured {
                channel: slot
            }))
        );
    }

    #[test]
    fn maintenance_pull_without_target_is_typed_error() {
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            7,
        )
        .unwrap();
        let (slot, _) = sys.route(0).unwrap();
        // No failover mode: the pull is refused (typed), and the slot
        // stays deconfigured.
        assert!(matches!(
            sys.maintenance_pull(slot),
            Err(SystemError::Fsp(FspError::ChannelDeconfigured { .. }))
        ));
        assert!(sys.fsp().is_deconfigured(slot));
    }

    #[test]
    fn store_in_flight_at_maintenance_pull_survives_evacuation() {
        // Found by the chaos campaign: a pipelined store whose
        // completion the quiesce drained but nobody had polled yet was
        // acked *after* the remap, while the evacuation snapshot —
        // taken from `written`, which only updates at completion
        // translation — missed its line. The ack was then a lie: the
        // data stayed on the deconfigured victim and the spare served
        // zeros (or a stale copy) for a store software saw succeed.
        let mut sys = Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            13,
            FailoverMode::Spare { spare: 4 },
        )
        .unwrap();
        let base = sys
            .memory_map()
            .regions()
            .iter()
            .find(|r| r.channel == 2)
            .unwrap()
            .base;
        let line = CacheLine::patterned(77);
        let id = sys.submit_store(base, line).unwrap();
        // Pull the card with the store still in flight — no poll in
        // between, so `written` has never heard of the line.
        sys.maintenance_pull(2).unwrap();
        let acked = sys
            .drain()
            .into_iter()
            .any(|(rid, r)| rid == id && r.is_ok());
        sys.complete_migration();
        let read = sys.load_line(base);
        match read {
            Ok((back, _)) => assert_eq!(
                back, line,
                "spare serves wrong bytes for a store software saw acked: {acked}"
            ),
            // A typed loss would also honour the contract — but only
            // if the store was never acknowledged as durable.
            Err(e) => assert!(!acked, "store acked, then lost as {e:?}"),
        }
    }

    #[test]
    fn inherited_poison_never_charges_the_spare() {
        let mut sys = Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            11,
            FailoverMode::Spare { spare: 4 },
        )
        .unwrap();
        let base = sys
            .memory_map()
            .regions()
            .iter()
            .find(|r| r.channel == 2)
            .unwrap()
            .base;
        let line = CacheLine::patterned(21);
        sys.store_line(base, line).unwrap();
        // Rot the line in place on the victim, then pull the card: the
        // evacuation must carry the poison marker across.
        let ch = sys.channel_mut(2).unwrap();
        let now = ch.channel.now();
        let (bytes, poisoned) = ch.channel.buffer_mut().sideband_read_line(now, 0).unwrap();
        assert!(!poisoned);
        assert!(ch.channel.buffer_mut().sideband_write_line(0, &bytes, true));
        sys.maintenance_pull(2).unwrap();
        sys.complete_migration();
        assert_eq!(sys.failover_stats().poison_migrated, 1);
        // Consuming inherited rot machine-checks the reader every
        // time, but is not evidence against the spare's hardware: with
        // a budget of 3, eight reads must not deconfigure slot 4.
        for _ in 0..8 {
            assert!(matches!(
                sys.load_line(base),
                Err(SystemError::Dmi(DmiError::Poisoned { .. }))
            ));
        }
        assert!(
            !sys.fsp().is_deconfigured(4),
            "inherited poison charged the spare's error budget"
        );
        // Fresh demand data overwrites the rot.
        let fresh = CacheLine::patterned(22);
        sys.store_line(base, fresh).unwrap();
        let (back, _) = sys.load_line(base).unwrap();
        assert_eq!(back, fresh);
    }

    #[test]
    fn epow_cut_reboot_preserves_nvdimm_and_discards_dram() {
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small()),
            7,
        )
        .unwrap();
        let nv_base = sys.memory_map().nonvolatile_regions()[0].base;
        for i in 0..8u64 {
            sys.store_line(nv_base + i * 128, CacheLine::patterned(i + 1))
                .unwrap();
        }
        let dram_addr = 0x10_0000u64;
        sys.store_line(dram_addr, CacheLine::patterned(0xAA))
            .unwrap();

        let epow = sys.epow();
        assert!(epow.completed, "ideal budget runs all four stages");
        assert_eq!(epow.stages_completed, 4);
        assert_eq!(epow.armed_slots, vec![0]);
        assert_eq!(epow.lines_flushed, 9);

        let quiet = sys.power_cut(epow.done_at + SimTime::from_us(1));
        assert!(quiet > epow.done_at, "the supercap save takes real time");
        assert!(!sys.powered());
        assert_eq!(sys.load_line(nv_base), Err(SystemError::PoweredOff));
        assert_eq!(
            sys.store_line(nv_base, CacheLine::patterned(9)),
            Err(SystemError::PoweredOff)
        );

        let report = sys.reboot(quiet + SimTime::from_ms(50)).unwrap();
        assert!(report.data_loss.is_empty(), "{:?}", report.data_loss);
        assert!(report.retrain_failures.is_empty());
        assert_eq!(report.restored_slots, vec![0]);
        assert!(sys.powered());
        for i in 0..8u64 {
            let (back, _) = sys.load_line(nv_base + i * 128).unwrap();
            assert_eq!(back, CacheLine::patterned(i + 1), "nv line {i}");
        }
        // DRAM is volatile: it comes back zeroed, never stale.
        let (back, _) = sys.load_line(dram_addr).unwrap();
        assert_eq!(back, CacheLine::default());
        let m = sys.metrics();
        assert_eq!(m.counter("system.power.cuts"), 1);
        assert_eq!(m.counter("system.power.reboots"), 1);
        assert_eq!(m.counter("system.power.restores_failed"), 0);
    }

    #[test]
    fn starved_supercap_is_a_typed_torn_save_never_silent() {
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small()),
            11,
        )
        .unwrap();
        sys.configure_power(PowerConfig {
            holdup_budget_nj: None,
            // Four pages of energy against a 128-page DIMM: the save
            // tears partway through.
            nvdimm_supercap_nj: Some(contutto_memdev::SAVE_COST_PER_PAGE_NJ * 4),
        });
        let nv_base = sys.memory_map().nonvolatile_regions()[0].base;
        let line = CacheLine::patterned(42);
        sys.store_line(nv_base, line).unwrap();

        let epow = sys.epow();
        let quiet = sys.power_cut(epow.done_at + SimTime::from_us(1));
        let report = sys.reboot(quiet + SimTime::from_ms(50)).unwrap();
        assert_eq!(
            report.data_loss,
            vec![DataLoss {
                slot: 0,
                outcome: PowerRestoreOutcome::TornSave
            }]
        );
        assert_eq!(sys.power_stats().saves_torn, 1);
        assert!(sys
            .fsp()
            .entries()
            .any(|e| e.message.contains("machine check") && e.message.contains("torn")));
        // The torn image is discarded, not partially served: reads
        // come back empty.
        let (back, _) = sys.load_line(nv_base).unwrap();
        assert_eq!(back, CacheLine::default());
    }

    #[test]
    fn starved_holdup_stops_the_epow_cascade_where_it_stands() {
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small()),
            3,
        )
        .unwrap();
        sys.configure_power(PowerConfig {
            holdup_budget_nj: Some(EPOW_CORE_FLUSH_COST_PER_LINE_NJ * 2),
            nvdimm_supercap_nj: None,
        });
        for i in 0..8u64 {
            sys.store_line(0x10_0000 + i * 128, CacheLine::patterned(i))
                .unwrap();
        }
        let epow = sys.epow();
        assert!(!epow.completed);
        assert_eq!(epow.stages_completed, 0, "died mid-stage-1");
        assert_eq!(epow.lines_flushed, 2, "only what the budget affords");
        assert!(sys
            .fsp()
            .entries()
            .any(|e| e.message.contains("exhausted in stage 1")));
    }

    #[test]
    fn disarmed_nvdimm_loss_is_reported_not_silent() {
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small()),
            5,
        )
        .unwrap();
        assert_eq!(sys.set_nvdimm_armed(false), vec![0]);
        let nv_base = sys.memory_map().nonvolatile_regions()[0].base;
        sys.store_line(nv_base, CacheLine::patterned(7)).unwrap();

        let epow = sys.epow();
        assert!(epow.armed_slots.is_empty());
        assert!(sys.fsp().entries().any(|e| e.message.contains("not armed")));
        let quiet = sys.power_cut(epow.done_at + SimTime::from_us(1));
        let report = sys.reboot(quiet + SimTime::from_ms(50)).unwrap();
        assert_eq!(report.data_loss.len(), 1);
        assert_eq!(report.data_loss[0].slot, 0);
        assert!(report.data_loss[0].outcome.is_data_loss());
        let (back, _) = sys.load_line(nv_base).unwrap();
        assert_eq!(back, CacheLine::default());
    }

    /// Rendered metrics minus the `system.snapshot.*` observer
    /// namespace, which by design differs between a straight run and a
    /// restored run.
    fn metrics_sans_snapshot(sys: &Power8System) -> String {
        sys.metrics()
            .render()
            .lines()
            .filter(|l| !l.contains("system.snapshot."))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn snapshot_restore_continue_matches_straight_run() {
        let boot = || {
            Power8System::boot(
                layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small()),
                11,
            )
            .unwrap()
        };
        let mut straight = boot();
        straight.enable_tracing(256);
        // Prefix: mixed stores and pipelined loads, leaving requests
        // in flight at the cut so the MLP plumbing has to survive.
        for i in 0..6u64 {
            straight
                .store_line(0x10_0000 + i * 128, CacheLine::patterned(i))
                .unwrap();
        }
        let mut pending = Vec::new();
        for i in 0..4u64 {
            pending.push(straight.submit_load(0x10_0000 + i * 128).unwrap());
        }
        let image = straight.snapshot();

        // Straight leg: drain and keep going.
        let straight_results: Vec<_> = pending
            .iter()
            .map(|&id| straight.wait_req(id).unwrap())
            .collect();
        for i in 0..4u64 {
            straight
                .store_line(0x20_0000 + i * 128, CacheLine::patterned(100 + i))
                .unwrap();
        }
        let straight_fp = straight.tracer.fingerprint();
        let straight_metrics = metrics_sans_snapshot(&straight);

        // Restored leg: fresh boot, overlay, same suffix.
        let mut resumed = boot();
        resumed.restore(&image).unwrap();
        assert!(resumed.tracer.is_enabled(), "tracer section restored");
        let resumed_results: Vec<_> = pending
            .iter()
            .map(|&id| resumed.wait_req(id).unwrap())
            .collect();
        for i in 0..4u64 {
            resumed
                .store_line(0x20_0000 + i * 128, CacheLine::patterned(100 + i))
                .unwrap();
        }
        assert_eq!(straight_results, resumed_results);
        assert_eq!(straight_fp, resumed.tracer.fingerprint());
        assert_eq!(straight_metrics, metrics_sans_snapshot(&resumed));
        assert_eq!(resumed.metrics().counter("system.snapshot.restores"), 1);
    }

    #[test]
    fn restore_rejects_wrong_topology() {
        let mut small = Power8System::boot(
            layouts::all_cdimm(contutto_centaur::CentaurConfig::optimized(), 1 << 30),
            3,
        )
        .unwrap();
        let image = small.snapshot();
        let mut other = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small()),
            3,
        )
        .unwrap();
        let err = other.restore(&image).unwrap_err();
        assert!(
            matches!(err, RestoreError::TopologyMismatch { .. }),
            "got {err:?}"
        );
        assert_eq!(
            other.metrics().counter("system.snapshot.restore_failures"),
            1
        );
    }

    #[test]
    fn restore_rejects_unknown_section() {
        let mut sys = Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small()),
            9,
        )
        .unwrap();
        let image = sys.snapshot();
        let img = SnapshotImage::parse(&image).unwrap();
        let mut w = SnapshotWriter::new();
        for name in img.names() {
            let mut r = img.section(name).unwrap();
            let payload = r.take(r.remaining()).unwrap().to_vec();
            w.section(name, payload);
        }
        w.section("mystery", vec![1, 2, 3]);
        let err = sys.restore(&w.finish()).unwrap_err();
        assert!(
            matches!(err, RestoreError::UnknownSection { ref section } if section == "mystery"),
            "got {err:?}"
        );
    }

    #[test]
    fn a_route_to_no_outstanding_request_is_malformed() {
        let boot = || {
            Power8System::boot(
                layouts::one_contutto_six_cdimm(
                    ContuttoConfig::base(),
                    MemoryPopulation::dram_8gb(),
                ),
                3,
            )
            .unwrap()
        };
        let mut sys = boot();
        sys.submit_load(0x1000).unwrap();
        let image = sys.snapshot();
        boot().restore(&image).unwrap();
        sys.outstanding.clear();
        let err = boot().restore(&sys.snapshot()).unwrap_err();
        assert_eq!(
            err,
            RestoreError::Malformed {
                context: "route to a request not outstanding"
            }
        );
    }

    #[test]
    fn a_region_larger_than_its_channel_is_malformed() {
        let boot = || Power8System::boot(layouts::mram_storage_system(), 5).unwrap();
        let mut sys = boot();
        let small = sys
            .channels
            .iter()
            .min_by_key(|c| c.capacity)
            .map(|c| c.slot)
            .unwrap();
        let big = sys
            .channels
            .iter()
            .max_by_key(|c| c.capacity)
            .map(|c| c.slot)
            .unwrap();
        assert!(sys.memory_map.rebind_channel(big, small) > 0);
        let err = boot().restore(&sys.snapshot()).unwrap_err();
        assert_eq!(
            err,
            RestoreError::Malformed {
                context: "memory region larger than its channel"
            }
        );
    }
}
