//! One DMI memory channel, end to end.
//!
//! [`DmiChannel`] assembles the host-side link endpoint, the two wire
//! segments, the buffer-side endpoint and a buffer chip model (Centaur
//! or ConTutto) into a steppable simulation. It implements the
//! command loop of paper §2.3: commands acquire one of 32 tags, write
//! data follows in beats, read data and done notifications are paired
//! back by tag, and a tag frees only when its done arrives — so a
//! slow buffer visibly throttles the processor, exactly the effect
//! the paper warns about.
//!
//! Commands flow through a **non-blocking submit/poll path**: software
//! enqueues tagged commands with [`DmiChannel::enqueue_command`], the
//! channel keeps up to a configurable window of them in flight at
//! once, and finished commands are collected with
//! [`DmiChannel::poll_command`]. The degradation ladder
//! ([`RetryPolicy`]) is **per tag**, advanced by [`DmiChannel::step`]:
//! each in-flight command carries its own deadline, attempt count and
//! retrain budget, so one hung tag times out, backs off and retries
//! while its neighbours keep completing. Escalation to a full link
//! retrain ([`DmiChannel::retrain`]) reclaims *every* in-flight tag
//! and requeues the innocent bystanders; a command that exhausts its
//! ladder surfaces a typed [`DmiError::Timeout`]. Tags abandoned by
//! timed-out commands are quarantined and reclaimed instead of leaked.
//! The blocking helpers are thin shims over this path.
//!
//! The link never goes quiet: every frame slot carries an idle frame in
//! each direction when there is nothing else to send. [`DmiChannel::step`]
//! simulates one slot, and is the reference for everything else.
//! [`DmiChannel::run_until`] and the channel's wait loops advance by
//! **event horizon** instead: once the link settles into carrying only
//! idles, every slot before the next event is applied in closed form
//! ([`IdleLink`]), with the same end state and trace as stepping.

use std::collections::{BTreeMap, VecDeque};

use contutto_dmi::buffer::{DmiBuffer, PowerRestoreOutcome};
use contutto_dmi::command::{CacheLine, CommandOp, Tag, TagPool, NUM_TAGS};
use contutto_dmi::frame::{
    line_to_downstream_beats, CommandHeader, DownstreamFrame, DownstreamPayload, LineAssembler,
    UpstreamFrame, UpstreamPayload,
};
use contutto_dmi::idle::IdleLink;
use contutto_dmi::link::{BitErrorInjector, LinkSegment, LinkSpeed};
use contutto_dmi::protocol::{LinkEndpoint, LinkEndpointConfig};
use contutto_dmi::training::{measure_frtl, LinkTrainer, TrainerConfig, TrainingOutcome};
use contutto_dmi::DmiError;
use contutto_sim::persist_fields;
use contutto_sim::snapshot::{self, Persist, RestoreError, SnapReader};
use contutto_sim::{Frequency, LatencyStats, MetricsRegistry, SimTime, TraceEvent, Tracer};

type HostEndpoint = LinkEndpoint<DownstreamFrame, UpstreamFrame>;
type BufferEndpoint = LinkEndpoint<UpstreamFrame, DownstreamFrame>;

/// Wire propagation latency of each channel direction.
pub const WIRE_PROPAGATION: SimTime = SimTime::from_ns(1);

/// Most idle slots one horizon jump applies. It bounds the look-ahead
/// of a random error injector, and of a wait with no deadline.
const MAX_IDLE_JUMP: u64 = 1 << 16;

/// Sim time a retrain waits with no commands pending so that buffer
/// responses to aborted commands arrive (and are absorbed as stale)
/// before tags can be reused. Covers the slowest buffer turnaround.
const RETRAIN_SETTLE: SimTime = SimTime::from_us(4);

/// The degradation ladder for blocking channel operations.
///
/// Each attempt waits `op_timeout` of sim time for the command to
/// complete. A timed-out attempt abandons its tag (quarantining it for
/// reclamation), backs off — doubling each retry — and resubmits. When
/// `max_attempts` are exhausted, the channel escalates to a full link
/// retrain (paper §3.4: firmware retrains the link without bringing
/// the system down) and starts a fresh attempt budget; after
/// `max_retrains` escalations the hang is surfaced as
/// [`DmiError::Timeout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt completion deadline in sim time.
    pub op_timeout: SimTime,
    /// Blocking attempts per training epoch (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles every retry.
    pub base_backoff: SimTime,
    /// Full link retrains before the error is surfaced.
    pub max_retrains: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            op_timeout: SimTime::from_ms(1),
            max_attempts: 3,
            base_backoff: SimTime::from_us(4),
            max_retrains: 1,
        }
    }
}

/// Channel construction parameters.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Link speed (8 Gb/s for ConTutto, 9.6 Gb/s for Centaur).
    pub speed: LinkSpeed,
    /// Error injection on the downstream wire.
    pub down_errors: BitErrorInjector,
    /// Error injection on the upstream wire.
    pub up_errors: BitErrorInjector,
    /// Buffer-side endpoint configuration (freeze workaround etc.).
    pub buffer_endpoint: LinkEndpointConfig,
}

impl ChannelConfig {
    /// Clean Centaur channel at 9.6 Gb/s.
    pub fn centaur() -> Self {
        ChannelConfig {
            speed: LinkSpeed::Gbps9_6,
            down_errors: BitErrorInjector::never(),
            up_errors: BitErrorInjector::never(),
            buffer_endpoint: LinkEndpointConfig::centaur_buffer(),
        }
    }

    /// Clean ConTutto channel at 8 Gb/s with the freeze workaround.
    pub fn contutto() -> Self {
        ChannelConfig {
            speed: LinkSpeed::Gbps8,
            down_errors: BitErrorInjector::never(),
            up_errors: BitErrorInjector::never(),
            buffer_endpoint: LinkEndpointConfig::contutto_buffer(),
        }
    }
}

/// Identifier of a tracked command on the submit/poll path.
///
/// Monotonic per channel and never reused — a command keeps its id
/// across retries, backoffs and retrains, even though each attempt
/// rides a different link tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdId(u64);

impl CmdId {
    /// The raw monotonic counter value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// A tracked command waiting on the software issue queue — either
/// freshly enqueued or parked for a retry backoff.
#[derive(Debug, Clone)]
struct QueuedCmd {
    op: CommandOp,
    /// When the command first entered the queue (ladder accounting).
    enqueued: SimTime,
    /// Attempt number the next issue will be (1-based).
    attempt: u32,
    /// Retrain escalations already spent on this command.
    retrains_used: u32,
    /// Absolute request deadline, if the submitter set one. An expired
    /// command is dropped instead of issued, and an expired retry is
    /// never re-queued.
    abs_deadline: Option<SimTime>,
}

/// Ladder state carried by an in-flight tracked command: its identity,
/// the op to resubmit on retry, and the per-attempt deadline that
/// `step()` checks every slot.
#[derive(Debug, Clone)]
struct TrackedPending {
    id: CmdId,
    op: CommandOp,
    enqueued: SimTime,
    attempt: u32,
    retrains_used: u32,
    deadline: SimTime,
    /// Absolute request deadline (see [`QueuedCmd::abs_deadline`]).
    abs_deadline: Option<SimTime>,
}

#[derive(Debug)]
struct Pending {
    issued: SimTime,
    addr: u64,
    assembler: Option<LineAssembler>,
    data: Option<CacheLine>,
    poisoned: bool,
    /// Present when this tag carries a tracked command; raw
    /// [`DmiChannel::submit`] tags have no ladder state.
    tracked: Option<TrackedPending>,
}

/// A completed command: tag, completion time, read data if any, and
/// the issue time (for latency accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The command's tag (already released back to the pool).
    pub tag: Tag,
    /// When the done notification reached the host.
    pub completed_at: SimTime,
    /// When the command was submitted.
    pub issued_at: SimTime,
    /// Read data, for reads.
    pub data: Option<CacheLine>,
    /// Host address the command targeted (0 for flushes).
    pub addr: u64,
    /// True when any read-data beat carried the poison bit: the media
    /// flagged an uncorrectable error and `data` must not be consumed.
    pub poisoned: bool,
}

/// A full DMI channel with a plugged buffer chip.
///
/// # Example
///
/// ```
/// use contutto_power8::channel::{ChannelConfig, DmiChannel};
/// use contutto_centaur::{Centaur, CentaurConfig};
/// use contutto_dmi::CacheLine;
///
/// let mut ch = DmiChannel::new(
///     ChannelConfig::centaur(),
///     Box::new(Centaur::new(CentaurConfig::optimized(), 8 << 30)),
/// );
/// let line = CacheLine::patterned(1);
/// ch.write_line_blocking(0x1000, line)?;
/// let (back, when) = ch.read_line_blocking(0x1000)?;
/// assert_eq!(back, line);
/// assert!(when.as_ns() > 0);
/// # Ok::<(), contutto_dmi::DmiError>(())
/// ```
pub struct DmiChannel {
    host: HostEndpoint,
    buffer_ep: BufferEndpoint,
    down: LinkSegment<DownstreamFrame>,
    up: LinkSegment<UpstreamFrame>,
    buffer: Box<dyn DmiBuffer>,
    now: SimTime,
    slot: SimTime,
    tags: TagPool,
    pending: BTreeMap<Tag, Pending>,
    completions: VecDeque<Completion>,
    /// Tags abandoned by timed-out waiters, keyed to when they were
    /// parked. Held out of the pool until a late response proves them
    /// safe, a retrain flushes link state, or the quarantine ages out.
    quarantine: BTreeMap<Tag, SimTime>,
    /// Software issue queue for tracked commands, ordered by
    /// (not-before time, command id): retries park here through their
    /// backoff; fresh commands are keyed at their enqueue time.
    queue: BTreeMap<(SimTime, CmdId), QueuedCmd>,
    /// Results of finished tracked commands, indexed by id so targeted
    /// waiters never rescan a deque.
    finished: BTreeMap<CmdId, Result<Completion, DmiError>>,
    /// Finish order for fair [`DmiChannel::poll_command`] draining.
    finished_order: VecDeque<CmdId>,
    next_cmd: u64,
    /// Max tracked commands in flight at once (1..=NUM_TAGS).
    window: usize,
    /// No tracked command issues before this time — set across a link
    /// reset so the settle window is not polluted by fresh traffic.
    issue_hold: SimTime,
    retry: RetryPolicy,
    trained: Option<TrainingOutcome>,
    trainer_cfg: TrainerConfig,
    train_seed: u64,
    buffer_endpoint_cfg: LinkEndpointConfig,
    tracer: Tracer,
    command_latency: LatencyStats,
    tags_reclaimed: u64,
    retries_scheduled: u64,
    link_retrains: u64,
    stale_responses: u64,
    poisoned_reads: u64,
    rmw_aborts: u64,
    /// Shared retry budget: when set, every ladder backoff retry spends
    /// a token and every tracked success refills one. A denied spend
    /// skips the retry rung — the ladder falls through to retrain /
    /// the typed error instead of amplifying load.
    retry_budget: Option<std::rc::Rc<std::cell::RefCell<crate::overload::RetryBudget>>>,
    retries_denied: u64,
    /// Commands dropped (queued or timed out) because their absolute
    /// request deadline had already expired.
    deadline_drops: u64,
    /// A latency-degrade fault window: the in-flight window is clamped
    /// to 1 until this instant, then restored.
    degraded_until: Option<SimTime>,
    degraded_saved_window: usize,
    degrade_windows: u64,
}

impl std::fmt::Debug for DmiChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmiChannel")
            .field("buffer", &self.buffer.name())
            .field("now", &self.now)
            .field("in_flight", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl DmiChannel {
    /// Builds a channel around a buffer chip.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint configuration is invalid; use
    /// [`DmiChannel::try_new`] for a typed [`DmiError::Config`].
    pub fn new(cfg: ChannelConfig, buffer: Box<dyn DmiBuffer>) -> Self {
        Self::try_new(cfg, buffer).expect("valid channel config")
    }

    /// Builds a channel, validating the endpoint configurations first.
    ///
    /// # Errors
    ///
    /// Propagates [`DmiError::Config`] from
    /// [`LinkEndpointConfig::validate`].
    pub fn try_new(cfg: ChannelConfig, buffer: Box<dyn DmiBuffer>) -> Result<Self, DmiError> {
        let host = LinkEndpoint::try_new(LinkEndpointConfig::host())?;
        let buffer_ep = LinkEndpoint::try_new(cfg.buffer_endpoint.clone())?;
        Ok(DmiChannel {
            host,
            buffer_ep,
            down: LinkSegment::new(cfg.speed, WIRE_PROPAGATION, cfg.down_errors.clone()),
            up: LinkSegment::new(cfg.speed, WIRE_PROPAGATION, cfg.up_errors.clone()),
            buffer,
            now: SimTime::ZERO,
            slot: cfg.speed.frame_time(),
            tags: TagPool::new(),
            pending: BTreeMap::new(),
            completions: VecDeque::new(),
            quarantine: BTreeMap::new(),
            queue: BTreeMap::new(),
            finished: BTreeMap::new(),
            finished_order: VecDeque::new(),
            next_cmd: 0,
            window: NUM_TAGS,
            issue_hold: SimTime::ZERO,
            retry: RetryPolicy::default(),
            trained: None,
            trainer_cfg: TrainerConfig::default(),
            train_seed: 0,
            buffer_endpoint_cfg: cfg.buffer_endpoint,
            tracer: Tracer::off(),
            command_latency: LatencyStats::new(),
            tags_reclaimed: 0,
            retries_scheduled: 0,
            link_retrains: 0,
            stale_responses: 0,
            poisoned_reads: 0,
            rmw_aborts: 0,
            retry_budget: None,
            retries_denied: 0,
            deadline_drops: 0,
            degraded_until: None,
            degraded_saved_window: NUM_TAGS,
            degrade_windows: 0,
        })
    }

    /// Turns on structured tracing with a ring of `capacity` events and
    /// connects every layer of the channel (both link endpoints, the
    /// tag pool and the buffer model) to it. Returns a handle to the
    /// shared tracer; the channel advances its clock every slot.
    pub fn enable_tracing(&mut self, capacity: usize) -> Tracer {
        let tracer = Tracer::ring(capacity);
        self.attach_tracer(tracer.clone());
        tracer
    }

    /// Attaches an existing (shared) tracer: system-level tracing
    /// records every channel into one ring with one fingerprint.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        tracer.advance(self.now);
        self.host.attach_tracer(tracer.clone());
        self.buffer_ep.attach_tracer(tracer.clone());
        self.tags.attach_tracer(tracer.clone());
        self.buffer.attach_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The channel's tracer (disabled unless
    /// [`DmiChannel::enable_tracing`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshots every layer's counters into one hierarchical
    /// [`MetricsRegistry`]: `dmi.host.*` / `dmi.buffer.*` (protocol
    /// endpoints), `link.down.*` / `link.up.*` (wire segments),
    /// `channel.*` (tags and command latency), and whatever the plugged
    /// buffer model contributes under `buffer.*`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (prefix, stats) in [
            ("dmi.host", self.host.stats()),
            ("dmi.buffer", self.buffer_ep.stats()),
        ] {
            reg.set_counter(&format!("{prefix}.frames_tx"), stats.frames_tx);
            reg.set_counter(&format!("{prefix}.frames_rx_ok"), stats.frames_rx_ok);
            reg.set_counter(&format!("{prefix}.crc_errors"), stats.crc_errors);
            reg.set_counter(&format!("{prefix}.seq_errors"), stats.seq_errors);
            reg.set_counter(
                &format!("{prefix}.duplicates_dropped"),
                stats.duplicates_dropped,
            );
            reg.set_counter(
                &format!("{prefix}.replays_triggered"),
                stats.replays_triggered,
            );
            reg.set_counter(&format!("{prefix}.frames_replayed"), stats.frames_replayed);
        }
        reg.set_counter("link.down.frames_sent", self.down.frames_sent());
        reg.set_counter("link.down.frames_corrupted", self.down.frames_corrupted());
        reg.set_counter("link.up.frames_sent", self.up.frames_sent());
        reg.set_counter("link.up.frames_corrupted", self.up.frames_corrupted());
        reg.set_counter("channel.tags_in_flight", self.tags.in_flight() as u64);
        reg.set_counter("channel.commands_completed", self.command_latency.count());
        reg.set_counter("channel.tags_reclaimed", self.tags_reclaimed);
        reg.set_counter("channel.tags_quarantined", self.quarantine.len() as u64);
        reg.set_counter("channel.retries_scheduled", self.retries_scheduled);
        reg.set_counter("channel.link_retrains", self.link_retrains);
        reg.set_counter("channel.stale_responses", self.stale_responses);
        reg.set_counter("channel.poisoned_reads", self.poisoned_reads);
        reg.set_counter("channel.inflight", self.tracked_in_flight() as u64);
        reg.set_counter("channel.window", self.window as u64);
        reg.set_counter("channel.cmds_queued", self.queue.len() as u64);
        reg.set_counter("channel.rmw_aborts", self.rmw_aborts);
        reg.set_counter("channel.retries_denied", self.retries_denied);
        reg.set_counter("channel.deadline_drops", self.deadline_drops);
        reg.set_counter("channel.degrade_windows", self.degrade_windows);
        reg.set_latency("channel.command_latency", &self.command_latency);
        self.buffer.register_metrics("buffer", &mut reg);
        reg
    }

    /// The plugged buffer's name.
    pub fn buffer_name(&self) -> &str {
        self.buffer.name()
    }

    /// Access to the buffer model (telemetry, knob control).
    pub fn buffer_mut(&mut self) -> &mut dyn DmiBuffer {
        self.buffer.as_mut()
    }

    /// Current channel time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The training outcome, once trained.
    pub fn training(&self) -> Option<TrainingOutcome> {
        self.trained
    }

    /// Free command tags right now.
    pub fn tags_available(&self) -> usize {
        self.tags.available()
    }

    /// The active degradation-ladder policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Replaces the degradation-ladder policy for blocking operations.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Tags reclaimed outside the normal done path so far (late stale
    /// responses, retrain flushes, quarantine aging).
    pub fn tags_reclaimed(&self) -> u64 {
        self.tags_reclaimed
    }

    /// Retries the degradation ladder has scheduled so far.
    pub fn retries_scheduled(&self) -> u64 {
        self.retries_scheduled
    }

    /// Full link retrains performed so far.
    pub fn link_retrains(&self) -> u64 {
        self.link_retrains
    }

    /// Responses absorbed for tags with no command pending (late
    /// stragglers from timed-out or retrain-aborted commands).
    pub fn stale_responses(&self) -> u64 {
        self.stale_responses
    }

    /// Tags currently parked in quarantine (not yet reusable).
    pub fn quarantined_tags(&self) -> usize {
        self.quarantine.len()
    }

    /// Reads surfaced as [`DmiError::Poisoned`] so far (media ECC
    /// uncorrectable errors delivered end to end).
    pub fn poisoned_reads(&self) -> u64 {
        self.poisoned_reads
    }

    /// Records a poison delivery against this channel's counters and
    /// trace. Called by whoever turns a poisoned completion into a
    /// surfaced error (the blocking shim here, or the system's poll
    /// path), so the count stays consistent across both paths.
    pub(crate) fn note_poison_delivered(&mut self, addr: u64) {
        self.poisoned_reads += 1;
        self.tracer.record(TraceEvent::PoisonDelivered { addr });
    }

    /// RMW commands abandoned mid-flight with [`DmiError::RmwAborted`]
    /// (never retried — the merge may already have been applied).
    pub fn rmw_aborts(&self) -> u64 {
        self.rmw_aborts
    }

    /// Tracked commands currently in flight on link tags.
    pub fn tracked_in_flight(&self) -> usize {
        self.pending
            .values()
            .filter(|p| p.tracked.is_some())
            .count()
    }

    /// Tracked commands waiting on the software issue queue.
    pub fn queued_commands(&self) -> usize {
        self.queue.len()
    }

    /// True while tracked commands still need [`DmiChannel::step`] to
    /// make progress (queued or in flight).
    pub fn has_command_work(&self) -> bool {
        !self.queue.is_empty() || self.pending.values().any(|p| p.tracked.is_some())
    }

    /// Sets the max tracked commands in flight at once, clamped to
    /// `1..=32` (the DMI tag space). Commands beyond the window wait
    /// on the issue queue.
    pub fn set_inflight_window(&mut self, window: usize) {
        self.window = window.clamp(1, NUM_TAGS);
        // An explicit window change supersedes a degrade restore.
        self.degraded_until = None;
    }

    /// Applies a latency-degrade fault window: the in-flight window is
    /// clamped to 1 for `window` of sim time, serializing every
    /// command, then restored. Overlapping degrades extend the window.
    pub fn degrade_for(&mut self, window: SimTime) {
        if self.degraded_until.is_none() {
            self.degraded_saved_window = self.window;
            self.degrade_windows += 1;
        }
        let until = self.now + window;
        self.degraded_until = Some(self.degraded_until.map_or(until, |u| u.max(until)));
        self.window = 1;
    }

    /// Whether a latency-degrade window is currently active.
    pub fn degraded(&self) -> bool {
        self.degraded_until.is_some()
    }

    /// Attaches the shared retry budget that gates the backoff-retry
    /// rung of the ladder (and is refilled by tracked successes).
    pub fn set_retry_budget(
        &mut self,
        budget: Option<std::rc::Rc<std::cell::RefCell<crate::overload::RetryBudget>>>,
    ) {
        self.retry_budget = budget;
    }

    /// Ladder retries denied by the shared retry budget so far.
    pub fn retries_denied(&self) -> u64 {
        self.retries_denied
    }

    /// Commands dropped because their request deadline expired (shed
    /// before issue, or a retry that was never re-queued).
    pub fn deadline_drops(&self) -> u64 {
        self.deadline_drops
    }

    /// Swaps the downstream wire's error injector mid-run (fault
    /// windows in campaigns and tests).
    pub fn set_down_injector(&mut self, injector: BitErrorInjector) {
        self.down.set_injector(injector);
    }

    /// Swaps the upstream wire's error injector mid-run.
    pub fn set_up_injector(&mut self, injector: BitErrorInjector) {
        self.up.set_injector(injector);
    }

    /// Host-side link statistics.
    pub fn host_stats(&self) -> &contutto_dmi::protocol::LinkStats {
        self.host.stats()
    }

    /// Trains the link: measures FRTL with real probe frames against
    /// this buffer's turnaround and runs the alignment sequence.
    ///
    /// # Errors
    ///
    /// Propagates [`DmiError::FrtlExceeded`] /
    /// [`DmiError::TrainingFailed`] from the trainer.
    pub fn train(&mut self, cfg: TrainerConfig, seed: u64) -> Result<TrainingOutcome, DmiError> {
        // FRTL probes ride a scratch pair of segments with the same
        // wire parameters (training happens before functional traffic).
        let mut down = LinkSegment::new(
            self.down.speed(),
            WIRE_PROPAGATION,
            BitErrorInjector::never(),
        );
        let mut up = LinkSegment::new(self.up.speed(), WIRE_PROPAGATION, BitErrorInjector::never());
        let (frtl, _cycles) = measure_frtl(
            &mut down,
            &mut up,
            self.buffer.frtl_turnaround(),
            Frequency::from_ghz(2),
        );
        let mut trainer = LinkTrainer::new(cfg.clone(), seed);
        let outcome = trainer.train(frtl)?;
        // Set the replay timeout from the measured FRTL (paper §2.3).
        let timeout_frames = frtl.as_ps().div_ceil(self.slot.as_ps()) + 4;
        self.host.set_ack_timeout(timeout_frames)?;
        self.buffer_ep.set_ack_timeout(timeout_frames)?;
        // Remember the parameters so an escalated retrain can re-run
        // the same sequence deterministically.
        self.trainer_cfg = cfg;
        self.train_seed = seed;
        self.trained = Some(outcome);
        Ok(outcome)
    }

    /// Tears the link layer down and retrains it: both endpoints are
    /// rebuilt (sequence spaces, replay buffers and ACK state reset),
    /// the wires are drained, and every outstanding or quarantined
    /// command is aborted with its tag reclaimed. The buffer model's
    /// memory contents are untouched — like the paper's firmware
    /// retrain that power-cycles only the FPGA (§3.4). After the tag
    /// flush the channel idles for a settle window so responses to
    /// aborted commands are absorbed as stale before tags are reused.
    ///
    /// # Errors
    ///
    /// Propagates [`DmiError::TrainingFailed`] /
    /// [`DmiError::FrtlExceeded`] from the trainer; tags are reclaimed
    /// even when the retrain itself fails.
    pub fn retrain(&mut self) -> Result<TrainingOutcome, DmiError> {
        self.link_retrains += 1;
        self.tracer.record(TraceEvent::LinkRetrain {
            count: self.link_retrains,
        });
        self.reset_link()?;
        // Derive a fresh (still deterministic) trainer seed per retrain
        // so a flaky trainer does not replay an identical attempt
        // sequence forever.
        let cfg = self.trainer_cfg.clone();
        let seed = self.train_seed.wrapping_add(self.link_retrains);
        self.train(cfg, seed)
    }

    /// Drains the channel ahead of a failover: runs the simulation
    /// until every in-flight tag completes or ages out of quarantine
    /// and the tracked issue queue is empty, up to `budget` from now.
    /// If tags are still outstanding after that (a dead link never
    /// completes anything), the link is reset to reclaim them — any
    /// tracked commands caught by the reset are requeued (or, for RMW,
    /// aborted) and will run their ladders against whatever buffer the
    /// channel serves next. Returns `true` when the drain was clean —
    /// no reset was needed.
    ///
    /// # Errors
    ///
    /// Propagates endpoint-rebuild failures from the link reset.
    pub fn quiesce(&mut self, budget: SimTime) -> Result<bool, DmiError> {
        let deadline = self.now + budget;
        while (!self.pending.is_empty() || !self.quarantine.is_empty() || !self.queue.is_empty())
            && self.now < deadline
        {
            self.advance(deadline);
        }
        let clean = self.pending.is_empty() && self.quarantine.is_empty() && self.queue.is_empty();
        if !clean {
            self.reset_link()?;
        }
        Ok(clean)
    }

    /// Resets the link layer without retraining: drains both wires,
    /// rebuilds both endpoints (sequence spaces, replay buffers and
    /// ACK state) and aborts every pending or quarantined command,
    /// reclaiming its tag. Replay buffers are dropped too — an
    /// abandoned command must never be delivered by a later replay,
    /// where its stale response could alias a reused tag.
    fn reset_link(&mut self) -> Result<(), DmiError> {
        // Drain in-flight garbage off both wires.
        let horizon = self.now + WIRE_PROPAGATION + self.slot * 2;
        while self.down.receive_frame(horizon).is_some() {}
        while self.up.receive_frame(horizon).is_some() {}
        // Fresh endpoints; the wires (and their injector state) persist.
        self.host = LinkEndpoint::try_new(LinkEndpointConfig::host())?;
        self.buffer_ep = LinkEndpoint::try_new(self.buffer_endpoint_cfg.clone())?;
        if self.tracer.is_enabled() {
            self.host.attach_tracer(self.tracer.clone());
            self.buffer_ep.attach_tracer(self.tracer.clone());
        }
        // Tracked commands caught in flight are innocent bystanders of
        // the reset: requeue them (RMWs excepted — their merge may
        // already have landed, so they abort with a typed error) before
        // their tags are reclaimed. Hold the issue gate through the
        // settle window so requeued commands cannot reuse a tag while
        // stale responses are still arriving.
        self.requeue_bystanders();
        let hold = self.now + RETRAIN_SETTLE;
        self.issue_hold = self.issue_hold.max(hold);
        // Abort outstanding commands: across the link reset no response
        // can complete them, so their tags go straight back to the pool.
        let aborted: Vec<Tag> = self.pending.keys().copied().collect();
        for tag in aborted {
            self.pending.remove(&tag);
            if self.tags.reclaim(tag) {
                self.tags_reclaimed += 1;
            }
        }
        let parked: Vec<Tag> = self.quarantine.keys().copied().collect();
        for tag in parked {
            self.quarantine.remove(&tag);
            if self.tags.reclaim(tag) {
                self.tags_reclaimed += 1;
            }
        }
        // Settle: with nothing pending, the buffer model's responses to
        // aborted commands arrive now and are counted as stale instead
        // of completing a future command that reuses the tag. A reset
        // can run inside `step()` (a ladder rung), so the settle steps
        // slot by slot: `step()` never takes an idle jump, which keeps
        // it the reference the jumps are checked against.
        let settle = self.now + RETRAIN_SETTLE;
        while self.now < settle {
            self.step();
        }
        Ok(())
    }

    /// Advances the channel clock across an interval in which nothing
    /// runs (a power outage): no frames move, no timers fire — time
    /// simply passes.
    pub(crate) fn fast_forward(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
            self.tracer.advance(t);
        }
    }

    /// EPOW flush on the plugged buffer: drives its buffered writes to
    /// media on hold-up power (charged against `energy_nj`) and syncs
    /// the channel clock to the flush completion. The link itself
    /// keeps running — EPOW precedes the cut.
    pub fn epow_flush_buffer(&mut self, energy_nj: &mut u64) -> SimTime {
        let done = self.buffer.epow_flush(self.now, energy_nj);
        self.fast_forward(done);
        done
    }

    /// The power rail drops at `at` (clamped forward to the channel's
    /// clock): every in-flight frame, pending command, completion,
    /// quarantined tag and both endpoints' replay state is volatile
    /// and dies instantly — nothing is retried, nothing settles, the
    /// training is gone. The buffer's own power-cut path runs (an
    /// armed NVDIMM keeps saving on supercap); media-backed state
    /// persists. Returns when the buffer is electrically quiet.
    pub fn power_cut(&mut self, at: SimTime) -> SimTime {
        self.fast_forward(at);
        // Frames in flight on the wires are simply lost.
        let horizon = self.now + WIRE_PROPAGATION + self.slot * 2;
        while self.down.receive_frame(horizon).is_some() {}
        while self.up.receive_frame(horizon).is_some() {}
        // Endpoint state (sequence spaces, replay buffers, ACKs) is
        // SRAM: rebuilt from the same validated configs.
        self.host =
            LinkEndpoint::try_new(LinkEndpointConfig::host()).expect("host config is static");
        self.buffer_ep = LinkEndpoint::try_new(self.buffer_endpoint_cfg.clone())
            .expect("buffer endpoint config validated at construction");
        self.tags = TagPool::new();
        if self.tracer.is_enabled() {
            self.host.attach_tracer(self.tracer.clone());
            self.buffer_ep.attach_tracer(self.tracer.clone());
            self.tags.attach_tracer(self.tracer.clone());
        }
        self.pending.clear();
        self.completions.clear();
        self.quarantine.clear();
        // The software issue queue and finished-command index are
        // processor-side SRAM: gone with the rail. CmdIds stay
        // monotonic so stale ids can never alias post-restore work.
        self.queue.clear();
        self.finished.clear();
        self.finished_order.clear();
        self.issue_hold = SimTime::ZERO;
        self.trained = None;
        let quiet = self.buffer.power_cut(self.now);
        quiet.max(self.now)
    }

    /// Power returns at `now`: brings the buffer's media back
    /// (NVDIMM image restore, supercap recharge) and syncs the channel
    /// clock. The link is still untrained — the caller must
    /// [`DmiChannel::retrain`] before traffic flows.
    pub fn power_restore_media(&mut self, now: SimTime) -> (SimTime, PowerRestoreOutcome) {
        self.fast_forward(now);
        let (ready, outcome) = self.buffer.power_restore(self.now);
        self.fast_forward(ready);
        (ready, outcome)
    }

    /// Submits a command; returns its tag.
    ///
    /// This is the raw, untracked path: the caller owns the tag's
    /// lifecycle and collects its [`Completion`] from
    /// [`DmiChannel::next_completion`] / [`DmiChannel::take_completions`].
    /// No recovery ladder runs for it. Most callers want
    /// [`DmiChannel::enqueue_command`] instead.
    ///
    /// # Errors
    ///
    /// [`DmiError::NoFreeTag`] when all 32 tags are outstanding — the
    /// caller must drain completions first (tag throttling).
    pub fn submit(&mut self, op: CommandOp) -> Result<Tag, DmiError> {
        self.submit_inner(op, None)
    }

    fn submit_inner(
        &mut self,
        op: CommandOp,
        tracked: Option<TrackedPending>,
    ) -> Result<Tag, DmiError> {
        let tag = self.tags.acquire()?;
        let header = CommandHeader::from_op(&op);
        self.host
            .enqueue(DownstreamPayload::Command { tag, header });
        let (assembler, write_data) = match &op {
            CommandOp::Read { .. } => (Some(LineAssembler::upstream()), None),
            CommandOp::Write { data, .. } | CommandOp::Rmw { data, .. } => (None, Some(*data)),
            CommandOp::Flush => (None, None),
        };
        let addr = match &op {
            CommandOp::Read { addr }
            | CommandOp::Write { addr, .. }
            | CommandOp::Rmw { addr, .. } => *addr,
            CommandOp::Flush => 0,
        };
        if let Some(data) = write_data {
            for beat in line_to_downstream_beats(tag, &data) {
                self.host.enqueue(beat);
            }
        }
        self.pending.insert(
            tag,
            Pending {
                issued: self.now,
                addr,
                assembler,
                data: None,
                poisoned: false,
                tracked,
            },
        );
        Ok(tag)
    }

    /// Enqueues a tracked command on the software issue queue and
    /// returns its [`CmdId`]. The command issues onto a link tag as
    /// soon as the in-flight window and tag pool allow; `step()` then
    /// drives its per-tag recovery ladder (timeout → backoff retry →
    /// retrain escalation → typed error). Collect its result with
    /// [`DmiChannel::poll_command`] or [`DmiChannel::wait_for_command`].
    ///
    /// RMW commands are accepted but **never retried**: a timed-out or
    /// reset-aborted RMW finishes with [`DmiError::RmwAborted`],
    /// because the buffer may already have applied the merge and only
    /// the done notification was lost.
    pub fn enqueue_command(&mut self, op: CommandOp) -> CmdId {
        self.enqueue_command_deadline(op, None)
    }

    /// As [`DmiChannel::enqueue_command`], with an absolute request
    /// deadline: an expired command is dropped before issue (finishing
    /// with [`DmiError::Timeout`]) and an expired retry is never
    /// re-queued — the ladder fails fast instead of resubmitting work
    /// nobody is waiting for.
    pub fn enqueue_command_deadline(
        &mut self,
        op: CommandOp,
        abs_deadline: Option<SimTime>,
    ) -> CmdId {
        let id = CmdId(self.next_cmd);
        self.next_cmd += 1;
        self.queue.insert(
            (self.now, id),
            QueuedCmd {
                op,
                enqueued: self.now,
                attempt: 1,
                retrains_used: 0,
                abs_deadline,
            },
        );
        id
    }

    /// Pops the oldest finished tracked command, if any. Commands
    /// already claimed by a targeted [`DmiChannel::wait_for_command`]
    /// are skipped. This only drains results — call
    /// [`DmiChannel::step`] to make progress.
    pub fn poll_command(&mut self) -> Option<(CmdId, Result<Completion, DmiError>)> {
        while let Some(id) = self.finished_order.pop_front() {
            if let Some(result) = self.finished.remove(&id) {
                return Some((id, result));
            }
        }
        None
    }

    /// Steps the channel until tracked command `id` finishes, then
    /// returns its result. Other commands' results stay indexed for
    /// their own collectors.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not queued, in flight, or finished (it was
    /// never enqueued, or its result was already collected).
    ///
    /// # Errors
    ///
    /// Whatever the command's ladder surfaced: [`DmiError::Timeout`],
    /// [`DmiError::RmwAborted`], or a training error from a failed
    /// retrain escalation.
    pub fn wait_for_command(&mut self, id: CmdId) -> Result<Completion, DmiError> {
        loop {
            if let Some(result) = self.finished.remove(&id) {
                return result;
            }
            assert!(
                self.queue.keys().any(|&(_, q)| q == id)
                    || self
                        .pending
                        .values()
                        .any(|p| p.tracked.as_ref().is_some_and(|t| t.id == id)),
                "wait_for_command: command {id:?} is not queued, in flight, or finished"
            );
            self.advance(SimTime::MAX);
        }
    }

    /// Issues queued tracked commands up to the in-flight window. Runs
    /// at the top of every step so a command enqueued at `now`
    /// transmits its first frame in the same slot.
    fn issue_ready(&mut self) {
        // An empty queue is the common case: test it before counting
        // the tracked commands in flight.
        if self.queue.is_empty() || self.now < self.issue_hold {
            return;
        }
        while self.tracked_in_flight() < self.window && self.tags.available() > 0 {
            let Some((&key, _)) = self.queue.iter().next() else {
                break;
            };
            let (not_before, id) = key;
            if not_before > self.now {
                break;
            }
            let qc = self.queue.remove(&key).expect("key just found");
            // An already-expired command is shed here, before it ever
            // takes a tag or touches the wire.
            if qc.abs_deadline.is_some_and(|d| self.now >= d) {
                self.deadline_drops += 1;
                let waited = self.now - qc.enqueued;
                self.finish(id, Err(DmiError::DeadlineExceeded { waited }));
                continue;
            }
            let tracked = TrackedPending {
                id,
                op: qc.op.clone(),
                enqueued: qc.enqueued,
                attempt: qc.attempt,
                retrains_used: qc.retrains_used,
                deadline: self.now + self.retry.op_timeout,
                abs_deadline: qc.abs_deadline,
            };
            if let Err(e) = self.submit_inner(qc.op, Some(tracked)) {
                self.finish(id, Err(e));
            }
        }
    }

    /// Advances the per-tag ladders: any tracked command past its
    /// per-attempt deadline times out here. One `find` per expiry
    /// keeps the borrow local; the pending map holds ≤ 32 entries.
    fn check_deadlines(&mut self) {
        while let Some(tag) = self
            .pending
            .iter()
            .find(|(_, p)| p.tracked.as_ref().is_some_and(|t| self.now > t.deadline))
            .map(|(&tag, _)| tag)
        {
            self.on_tracked_timeout(tag);
        }
    }

    /// One rung of the per-tag degradation ladder: the attempt's tag
    /// is quarantined, then the command either aborts (RMW), parks for
    /// a backoff retry, escalates to a retrain, or exhausts the ladder
    /// and surfaces [`DmiError::Timeout`].
    fn on_tracked_timeout(&mut self, tag: Tag) {
        let mut pending = self.pending.remove(&tag).expect("caller found tag pending");
        let t = pending.tracked.take().expect("caller checked tracked");
        self.tracer
            .record(TraceEvent::TagTimeout { tag: tag.raw() });
        self.quarantine.insert(tag, self.now);
        if let CommandOp::Rmw { addr, .. } = t.op {
            // Never retry an RMW: the merge may already have landed
            // and only the done was lost, so a resubmission could
            // apply it twice. Abort with the typed error instead.
            self.rmw_aborts += 1;
            self.finish(t.id, Err(DmiError::RmwAborted { addr }));
            return;
        }
        // An expired request never re-queues: its submitter's deadline
        // has passed, so another attempt only adds load to a system
        // that is already behind. Fail fast with the typed error.
        if t.abs_deadline.is_some_and(|d| self.now >= d) {
            self.deadline_drops += 1;
            let waited = self.now - t.enqueued;
            self.finish(t.id, Err(DmiError::DeadlineExceeded { waited }));
            return;
        }
        // The backoff-retry rung is gated by the shared retry budget:
        // under overload the bucket drains and the ladder falls through
        // to retrain / the typed error instead of multiplying traffic.
        let retry_allowed = t.attempt < self.retry.max_attempts && {
            match &self.retry_budget {
                None => true,
                Some(budget) => {
                    let ok = budget.borrow_mut().try_spend();
                    if !ok {
                        self.retries_denied += 1;
                    }
                    ok
                }
            }
        };
        if retry_allowed {
            let backoff = self.backoff_for(t.attempt);
            self.retries_scheduled += 1;
            self.tracer.record(TraceEvent::RetryScheduled {
                tag: tag.raw(),
                attempt: t.attempt,
                backoff_ps: backoff.as_ps(),
            });
            self.queue.insert(
                (self.now + backoff, t.id),
                QueuedCmd {
                    op: t.op,
                    enqueued: t.enqueued,
                    attempt: t.attempt + 1,
                    retrains_used: t.retrains_used,
                    abs_deadline: t.abs_deadline,
                },
            );
        } else if t.retrains_used < self.retry.max_retrains {
            self.escalate_retrain(t);
        } else {
            // Ladder exhausted. Reset the link so the abandoned
            // attempts cannot be delivered by a later replay (a stale
            // response must never alias a reused tag once the fault
            // clears), then surface the typed error. Tracked
            // bystanders are requeued by the reset itself.
            let waited = self.now - t.enqueued;
            let result = match self.reset_link() {
                Ok(()) => Err(DmiError::Timeout {
                    tag: tag.raw(),
                    waited,
                }),
                Err(e) => Err(e),
            };
            self.finish(t.id, result);
        }
    }

    /// Escalates a timed-out command to a full link retrain: the
    /// command restarts its ladder with a fresh attempt budget, every
    /// tracked bystander is requeued by the reset, and a failed
    /// retrain is charged to the escalating command alone.
    fn escalate_retrain(&mut self, t: TrackedPending) {
        let key = (self.now, t.id);
        let id = t.id;
        self.queue.insert(
            key,
            QueuedCmd {
                op: t.op,
                enqueued: t.enqueued,
                attempt: 1,
                retrains_used: t.retrains_used + 1,
                abs_deadline: t.abs_deadline,
            },
        );
        if let Err(e) = self.retrain() {
            self.queue.remove(&key);
            self.finish(id, Err(e));
        }
    }

    /// Takes the ladder state out of every tracked in-flight command
    /// ahead of a link reset and requeues it (attempt budget intact —
    /// bystanders are not penalized for someone else's hang). RMW
    /// bystanders abort with [`DmiError::RmwAborted`] instead: their
    /// merge may already have been applied.
    fn requeue_bystanders(&mut self) {
        let mut requeue = Vec::new();
        let mut abort = Vec::new();
        for p in self.pending.values_mut() {
            if let Some(t) = p.tracked.take() {
                if let CommandOp::Rmw { addr, .. } = t.op {
                    abort.push((t.id, addr));
                } else {
                    requeue.push(t);
                }
            }
        }
        for t in requeue {
            self.queue.insert(
                (self.now, t.id),
                QueuedCmd {
                    op: t.op,
                    enqueued: t.enqueued,
                    attempt: t.attempt,
                    retrains_used: t.retrains_used,
                    abs_deadline: t.abs_deadline,
                },
            );
        }
        for (id, addr) in abort {
            self.rmw_aborts += 1;
            self.finish(id, Err(DmiError::RmwAborted { addr }));
        }
    }

    fn finish(&mut self, id: CmdId, result: Result<Completion, DmiError>) {
        self.finished.insert(id, result);
        self.finished_order.push_back(id);
    }

    /// Advances the channel by one frame slot.
    pub fn step(&mut self) {
        let now = self.now;
        // All trace events this slot are stamped with the slot time.
        self.tracer.advance(now);
        // Issue queued tracked commands into the window first, so they
        // transmit this very slot.
        self.issue_ready();
        // Host transmits this slot's downstream frame.
        self.down.transmit_frame(now, self.host.tick_tx_frame());
        // Buffer receives any arrived downstream frames; idles carry
        // nothing for it.
        while let Some(arrival) = self.down.receive_frame(now) {
            match self.buffer_ep.on_receive_frame(arrival) {
                None | Some(DownstreamPayload::Idle) => {}
                Some(payload) => self.buffer.push_downstream(now, payload),
            }
        }
        // Buffer offers the upstream arbiter one slot.
        if let Some(payload) = self.buffer.pull_upstream(now) {
            self.buffer_ep.enqueue(payload);
        }
        self.up.transmit_frame(now, self.buffer_ep.tick_tx_frame());
        // Host receives any arrived upstream frames.
        while let Some(arrival) = self.up.receive_frame(now) {
            if let Some(payload) = self.host.on_receive_frame(arrival) {
                self.handle_response(now, payload);
            }
        }
        self.now += self.slot;
        if let Some(until) = self.degraded_until {
            if self.now >= until {
                self.window = self.degraded_saved_window;
                self.degraded_until = None;
            }
        }
        self.check_deadlines();
        if !self.quarantine.is_empty() {
            self.age_quarantine();
        }
    }

    /// Quarantined tags whose late response never materialized within
    /// two op-timeouts are declared dead and returned to the pool: by
    /// then any response still in flight would long since have been
    /// delivered or lost, so reuse is unambiguous. Allocation-free —
    /// this runs on the hot path while any tag is quarantined.
    fn age_quarantine(&mut self) {
        let ttl = self.retry.op_timeout * 2;
        let now = self.now;
        let tags = &mut self.tags;
        let reclaimed = &mut self.tags_reclaimed;
        self.quarantine.retain(|&tag, &mut parked| {
            if now - parked > ttl {
                if tags.reclaim(tag) {
                    *reclaimed += 1;
                }
                false
            } else {
                true
            }
        });
    }

    fn handle_response(&mut self, now: SimTime, payload: UpstreamPayload) {
        match payload {
            UpstreamPayload::Idle | UpstreamPayload::Control(_) => {}
            UpstreamPayload::ReadData {
                tag,
                beat,
                data,
                poison,
            } => {
                // Beats for a tag with no pending command (or one that
                // is not a read) are late stragglers from a command
                // whose waiter gave up: absorb, never die.
                let Some(pending) = self.pending.get_mut(&tag) else {
                    self.stale_responses += 1;
                    return;
                };
                // A data beat for a pending command that is not a read
                // is a stale straggler aliasing a reused tag: absorb it
                // *before* latching its poison bit, or garbage could
                // falsely poison a write or flush completion.
                if pending.assembler.is_none() {
                    self.stale_responses += 1;
                    return;
                }
                pending.poisoned |= poison;
                let assembler = pending.assembler.as_mut().expect("checked above");
                match assembler.try_add_beat(beat, &data) {
                    Ok(true) => {
                        let asm = pending.assembler.take().expect("assembler checked above");
                        pending.data = Some(asm.into_line());
                    }
                    Ok(false) => {}
                    // A beat with an impossible index or size slipped
                    // past frame decode: absorb it like any other
                    // garbage response instead of corrupting the line.
                    Err(_) => {
                        self.stale_responses += 1;
                    }
                }
            }
            UpstreamPayload::Done { first, second } => {
                self.complete(now, first);
                if let Some(t) = second {
                    self.complete(now, t);
                }
            }
        }
    }

    fn complete(&mut self, now: SimTime, tag: Tag) {
        let Some(mut pending) = self.pending.remove(&tag) else {
            // A late done for a command whose waiter already gave up:
            // the buffer is alive after all, so a quarantined tag is
            // proven drained and safe to reuse. Dones for
            // retrain-aborted (already reclaimed) tags are absorbed
            // the same way.
            if self.quarantine.remove(&tag).is_some() && self.tags.reclaim(tag) {
                self.tags_reclaimed += 1;
            }
            self.stale_responses += 1;
            return;
        };
        if self.tags.release(tag).is_err() {
            // Duplicate done: the first one already freed the tag.
            self.stale_responses += 1;
            return;
        }
        self.command_latency.record(now - pending.issued);
        let tracked = pending.tracked.take();
        // Tracked successes refill the shared retry budget: the bucket
        // grows as a fixed ratio of the success rate.
        if tracked.is_some() {
            if let Some(budget) = &self.retry_budget {
                budget.borrow_mut().on_success();
            }
        }
        let completion = Completion {
            tag,
            completed_at: now,
            issued_at: pending.issued,
            data: pending.data,
            addr: pending.addr,
            poisoned: pending.poisoned,
        };
        match tracked {
            Some(t) => self.finish(t.id, Ok(completion)),
            None => self.completions.push_back(completion),
        }
    }

    /// Runs until time `t`: every frame slot before `t`, as
    /// [`DmiChannel::step`] would, but with each stretch in which the
    /// link only moves idles applied in closed form ([`IdleLink`]).
    pub fn run_until(&mut self, t: SimTime) {
        while self.now < t {
            self.advance(t);
        }
    }

    /// Advances by one frame slot or, when the link is idle and steady
    /// ([`IdleLink::is_steady`]), by every slot before the next event
    /// horizon ([`DmiChannel::idle_horizon`]), the next injected
    /// corruption and `until`. Those slots only move idles, so they are
    /// applied in closed form, with the state, counters and trace
    /// records that stepping them would leave.
    fn advance(&mut self, until: SimTime) {
        let horizon = self.idle_horizon().min(until);
        let limit = horizon
            .saturating_sub(self.now)
            .as_ps()
            .div_ceil(self.slot.as_ps())
            .min(MAX_IDLE_JUMP);
        let mut link = IdleLink {
            host: &mut self.host,
            buffer: &mut self.buffer_ep,
            down: &mut self.down,
            up: &mut self.up,
        };
        let k = if limit >= 2 && link.is_steady(self.now) {
            link.clean_slots(limit)
        } else {
            0
        };
        if k >= 2 {
            link.skip(self.now, k, &self.tracer);
            self.now += self.slot * k;
        } else {
            self.step();
        }
    }

    /// The channel's next event horizon: the earliest slot time at which
    /// a slot may do more than move idles. Its own events are the
    /// buffer's next upstream response, the issue-queue front once the
    /// window and tag pool allow it to issue (and `issue_hold`), and,
    /// since a slot checks them as it ends, one slot before the earliest
    /// tracked deadline, quarantine expiry and end of a degrade window.
    /// Whether each wire's injector corrupts a frame is checked
    /// separately ([`IdleLink::clean_slots`]).
    fn idle_horizon(&self) -> SimTime {
        let ends_slot = |t: SimTime| t.saturating_sub(self.slot);
        let mut horizon = self.buffer.next_upstream_ready().unwrap_or(SimTime::MAX);
        if let Some(&(not_before, _)) = self.queue.keys().next() {
            if self.tracked_in_flight() < self.window && self.tags.available() > 0 {
                horizon = horizon.min(not_before.max(self.issue_hold));
            }
        }
        for t in self.pending.values().filter_map(|p| p.tracked.as_ref()) {
            horizon = horizon.min(ends_slot(t.deadline));
        }
        let ttl = self.retry.op_timeout * 2;
        for &parked in self.quarantine.values() {
            horizon = horizon.min(ends_slot(parked + ttl));
        }
        if let Some(until) = self.degraded_until {
            horizon = horizon.min(ends_slot(until));
        }
        horizon
    }

    /// Runs until a completion is available or `deadline` passes. The
    /// deadline is inclusive: a completion arriving exactly at the
    /// deadline tick is still delivered.
    pub fn next_completion(&mut self, deadline: SimTime) -> Option<Completion> {
        loop {
            if let Some(c) = self.completions.pop_front() {
                return Some(c);
            }
            if self.now > deadline {
                return None;
            }
            self.advance(deadline + SimTime::from_ps(1));
        }
    }

    /// Drains any already-collected completions.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        self.completions.drain(..).collect()
    }

    /// Convenience: enqueue a read on the tracked path and block until
    /// its data returns, with the full per-tag recovery ladder (retry
    /// → backoff → retrain) behind it. A thin shim over
    /// [`DmiChannel::enqueue_command`] / [`DmiChannel::wait_for_command`];
    /// results for other tracked commands stay indexed for their own
    /// collectors.
    ///
    /// # Errors
    ///
    /// * [`DmiError::Timeout`] when the ladder is exhausted and the
    ///   buffer still has not answered (the tag is quarantined for
    ///   reclamation, never leaked).
    /// * [`DmiError::Poisoned`] when the buffer flagged the line with
    ///   an uncorrectable media error: the data is withheld so it can
    ///   never be consumed silently.
    /// * Training errors if an escalated retrain fails.
    pub fn read_line_blocking(&mut self, addr: u64) -> Result<(CacheLine, SimTime), DmiError> {
        let id = self.enqueue_command(CommandOp::Read { addr });
        let c = self.wait_for_command(id)?;
        if c.poisoned {
            self.note_poison_delivered(addr);
            return Err(DmiError::Poisoned { addr });
        }
        let data = c
            .data
            .ok_or(DmiError::MalformedFrame("read completed without data"))?;
        Ok((data, c.completed_at))
    }

    /// Convenience: enqueue a write on the tracked path and block
    /// until durable, with the same recovery ladder as
    /// [`DmiChannel::read_line_blocking`]. Retried writes re-execute
    /// the store, which is idempotent — unlike RMW, which the ladder
    /// refuses to retry (see [`DmiChannel::enqueue_command`]).
    ///
    /// # Errors
    ///
    /// As for [`DmiChannel::read_line_blocking`].
    pub fn write_line_blocking(&mut self, addr: u64, data: CacheLine) -> Result<SimTime, DmiError> {
        let id = self.enqueue_command(CommandOp::Write { addr, data });
        let c = self.wait_for_command(id)?;
        Ok(c.completed_at)
    }

    fn window_fits(&self, window: &usize) -> Result<(), RestoreError> {
        if *window == 0 || *window > NUM_TAGS {
            return Err(RestoreError::Malformed {
                context: "in-flight window out of range",
            });
        }
        Ok(())
    }

    /// The backoff before the retry after attempt `attempt` (from 1):
    /// `base_backoff × 2^(attempt-1)`, saturating for any policy.
    fn backoff_for(&self, attempt: u32) -> SimTime {
        let doubling = 1u64.checked_shl(attempt.saturating_sub(1));
        self.retry.base_backoff * doubling.unwrap_or(u64::MAX)
    }

    /// The longest backoff the retry policy can schedule past the
    /// clock: the one after attempt `max_attempts - 1`.
    fn longest_backoff(&self) -> SimTime {
        match self.retry.max_attempts {
            0 | 1 => SimTime::ZERO,
            n => self.backoff_for(n - 1),
        }
    }

    /// The image's times must fit its clock: every command was issued
    /// or enqueued at or before it, every tag was quarantined at or
    /// before it, and every frame in flight left at or before it, so
    /// arrives within one wire latency. A queued retry is due at most
    /// the policy's longest backoff ahead. A retrain holds issue for
    /// at most [`RETRAIN_SETTLE`]; a hold further out would stall
    /// every queued command slot by slot.
    fn times_fit_the_clock(&self) -> Result<(), RestoreError> {
        let stamped_ahead = self.pending.values().any(|p| {
            p.issued > self.now || p.tracked.as_ref().is_some_and(|t| t.enqueued > self.now)
        }) || self.queue.values().any(|q| q.enqueued > self.now);
        if stamped_ahead {
            return Err(RestoreError::Malformed {
                context: "command stamped after the channel clock",
            });
        }
        if self.quarantine.values().any(|&parked| parked > self.now) {
            return Err(RestoreError::Malformed {
                context: "tag quarantined after the channel clock",
            });
        }
        let longest = self.longest_backoff();
        if self
            .queue
            .keys()
            .any(|&(not_before, _)| not_before.saturating_sub(self.now) > longest)
        {
            return Err(RestoreError::Malformed {
                context: "queued retry due past the longest backoff",
            });
        }
        if self.issue_hold.saturating_sub(self.now) > RETRAIN_SETTLE {
            return Err(RestoreError::Malformed {
                context: "issue hold past the retrain settle window",
            });
        }
        let latest = self.now + WIRE_PROPAGATION + self.slot;
        if [self.down.last_arrival(), self.up.last_arrival()]
            .into_iter()
            .flatten()
            .any(|at| at > latest)
        {
            return Err(RestoreError::Malformed {
                context: "frame in flight past the wire latency",
            });
        }
        Ok(())
    }

    /// A pending table longer than the tag space is malformed before
    /// any entry decodes.
    fn restore_pending(r: &mut SnapReader<'_>) -> Result<BTreeMap<Tag, Pending>, RestoreError> {
        let n = r.len()?;
        if n > NUM_TAGS {
            return Err(RestoreError::Malformed {
                context: "more pending tags than the tag space",
            });
        }
        snapshot::restore_entries(r, n, Persist::restore)
    }

    /// An issue queue whose count the bytes left cannot hold (each
    /// entry takes at least 17) is truncated before any entry decodes.
    fn restore_queue(
        r: &mut SnapReader<'_>,
    ) -> Result<BTreeMap<(SimTime, CmdId), QueuedCmd>, RestoreError> {
        let n = r.len()?;
        if n > r.remaining() / 17 {
            return Err(RestoreError::Truncated {
                context: "channel issue queue",
            });
        }
        snapshot::restore_entries(r, n, Persist::restore)
    }

    contutto_sim::state_fields! {
        /// Serializes the channel's full dynamic state: both link
        /// endpoints, both wire segments, the buffer chip, the tag pool,
        /// every in-flight / queued / finished tracked command, the
        /// ladder configuration and counters. Construction parameters
        /// (link speed, endpoint configs, wiring) are not persisted —
        /// the restorer must already hold an identically-constructed
        /// channel; the frame slot is recorded only to cross-check that.
        /// On a restore error the channel may be partially restored;
        /// callers discard the target (the system-level restore
        /// rebuilds from a fresh boot, so a failed overlay never serves
        /// traffic).
        ///
        /// The shared retry budget ([`DmiChannel::set_retry_budget`]) is
        /// deliberately excluded: it is system-owned wiring, restored
        /// once at system level and redistributed to every channel.
        pub {
            same slot => "channel link speed (frame slot)",
            now,
            state host,
            state buffer_ep,
            state down,
            state up,
            state buffer,
            state tags,
            pending with (Persist::persist, Self::restore_pending),
            completions,
            quarantine,
            queue with (Persist::persist, Self::restore_queue),
            finished,
            finished_order,
            next_cmd,
            window if Self::window_fits,
            issue_hold,
            retry,
            trained,
            trainer_cfg,
            train_seed,
            command_latency,
            tags_reclaimed,
            retries_scheduled,
            link_retrains,
            stale_responses,
            poisoned_reads,
            rmw_aborts,
            retries_denied,
            deadline_drops,
            degrade_windows,
            degraded_until,
            degraded_saved_window if Self::window_fits,
            check Self::times_fit_the_clock,
        }
    }
}

persist_fields!(QueuedCmd {
    op,
    enqueued,
    attempt,
    retrains_used,
    abs_deadline
});

persist_fields!(TrackedPending {
    id,
    op,
    enqueued,
    attempt,
    retrains_used,
    deadline,
    abs_deadline
});

persist_fields!(Pending {
    issued,
    addr,
    assembler,
    data,
    poisoned,
    tracked
});

persist_fields!(CmdId { 0 });

persist_fields!(RetryPolicy {
    op_timeout,
    max_attempts,
    base_backoff,
    max_retrains
});

persist_fields!(Completion {
    tag,
    completed_at,
    issued_at,
    data,
    addr,
    poisoned
});

#[cfg(test)]
mod tests {
    use super::*;
    use contutto_centaur::{Centaur, CentaurConfig};
    use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
    use contutto_dmi::command::RmwOp;

    fn centaur_channel() -> DmiChannel {
        DmiChannel::new(
            ChannelConfig::centaur(),
            Box::new(Centaur::new(CentaurConfig::optimized(), 8 << 30)),
        )
    }

    fn contutto_channel() -> DmiChannel {
        DmiChannel::new(
            ChannelConfig::contutto(),
            Box::new(ConTutto::new(
                ContuttoConfig::base(),
                MemoryPopulation::dram_8gb(),
            )),
        )
    }

    #[test]
    fn quiesce_drains_in_flight_tags() {
        let mut ch = centaur_channel();
        ch.submit(CommandOp::Write {
            addr: 0x1000,
            data: CacheLine::patterned(1),
        })
        .unwrap();
        ch.submit(CommandOp::Read { addr: 0x1000 }).unwrap();
        assert!(ch.tags_available() < 32);
        let clean = ch.quiesce(SimTime::from_us(50)).unwrap();
        assert!(clean, "healthy link drains without a reset");
        assert_eq!(ch.tags_available(), 32);
    }

    #[test]
    fn quiesce_dead_link_reclaims_via_reset() {
        let mut ch = centaur_channel();
        // Kill both directions, then leave a command in flight.
        ch.set_down_injector(BitErrorInjector::bernoulli(1.0, 99));
        ch.set_up_injector(BitErrorInjector::bernoulli(1.0, 99));
        ch.submit(CommandOp::Read { addr: 0 }).unwrap();
        let clean = ch.quiesce(SimTime::from_us(40)).unwrap();
        assert!(!clean, "a dead link cannot drain cleanly");
        assert_eq!(ch.tags_available(), 32, "tags reclaimed by the reset");
    }

    #[test]
    fn power_cycle_through_channel_restores_nvdimm_and_kills_link_state() {
        use contutto_core::MemoryKind;
        let pop = MemoryPopulation {
            kind: MemoryKind::NvdimmN,
            dimm_capacity: 512 << 10,
            dimms: 2,
        };
        let mut ch = DmiChannel::new(
            ChannelConfig::contutto(),
            Box::new(ConTutto::new(ContuttoConfig::base(), pop)),
        );
        ch.train(TrainerConfig::default(), 7).unwrap();
        let line = CacheLine::patterned(4);
        ch.write_line_blocking(0x1000, line).unwrap();
        ch.buffer_mut().set_save_armed(true);
        // Leave a command in flight when the rail drops.
        ch.submit(CommandOp::Read { addr: 0x1000 }).unwrap();
        let quiet = ch.power_cut(ch.now());
        assert!(quiet > ch.now(), "save engine runs past the cut");
        // All link/channel state died: tags free, training gone.
        assert_eq!(ch.tags_available(), 32);
        assert!(ch.training().is_none());
        assert!(ch.take_completions().is_empty());
        // Power returns after the save finished: clean restore.
        let (ready, outcome) = ch.power_restore_media(quiet + SimTime::from_secs(2));
        assert_eq!(outcome, PowerRestoreOutcome::Restored);
        assert!(ready >= quiet);
        // Retrain and serve traffic again.
        ch.retrain().unwrap();
        let (back, _) = ch.read_line_blocking(0x1000).unwrap();
        assert_eq!(back, line);
    }

    #[test]
    fn centaur_write_read_roundtrip() {
        let mut ch = centaur_channel();
        let line = CacheLine::patterned(5);
        ch.write_line_blocking(0x1000, line).unwrap();
        let (back, _) = ch.read_line_blocking(0x1000).unwrap();
        assert_eq!(back, line);
    }

    #[test]
    fn contutto_write_read_roundtrip() {
        let mut ch = contutto_channel();
        let line = CacheLine::patterned(6);
        ch.write_line_blocking(0x2000, line).unwrap();
        let (back, _) = ch.read_line_blocking(0x2000).unwrap();
        assert_eq!(back, line);
    }

    #[test]
    fn contutto_is_slower_than_centaur() {
        let mut cen = centaur_channel();
        let mut con = contutto_channel();
        // Warm both (first access opens rows).
        cen.read_line_blocking(0).unwrap();
        con.read_line_blocking(0).unwrap();
        let t0 = cen.now();
        cen.read_line_blocking(0).unwrap();
        let cen_lat = cen.now() - t0;
        let t0 = con.now();
        con.read_line_blocking(0).unwrap();
        let con_lat = con.now() - t0;
        assert!(
            con_lat > cen_lat * 3,
            "contutto {con_lat} vs centaur {cen_lat}"
        );
    }

    #[test]
    fn training_succeeds_on_both_buffers() {
        let mut cen = centaur_channel();
        let out = cen.train(TrainerConfig::default(), 42).unwrap();
        assert!(out.frtl < SimTime::from_ns(40), "centaur frtl {}", out.frtl);
        let mut con = contutto_channel();
        let out = con.train(TrainerConfig::default(), 42).unwrap();
        assert!(
            out.frtl > SimTime::from_ns(60),
            "contutto frtl {}",
            out.frtl
        );
        assert!(con.training().is_some());
    }

    #[test]
    fn tag_throttling_at_32_outstanding() {
        let mut ch = contutto_channel();
        for i in 0..32 {
            ch.submit(CommandOp::Read { addr: i * 128 }).unwrap();
        }
        assert_eq!(ch.tags_available(), 0);
        assert!(matches!(
            ch.submit(CommandOp::Read { addr: 0 }),
            Err(DmiError::NoFreeTag)
        ));
        // Drain: all 32 complete.
        let mut done = 0;
        let deadline = ch.now() + SimTime::from_ms(1);
        while let Some(_c) = ch.next_completion(deadline) {
            done += 1;
            if done == 32 {
                break;
            }
        }
        assert_eq!(done, 32);
        assert_eq!(ch.tags_available(), 32);
    }

    #[test]
    fn rmw_through_full_channel() {
        let mut ch = contutto_channel();
        let mut init = CacheLine::ZERO;
        init.set_word(0, 7);
        ch.write_line_blocking(0, init).unwrap();
        let mut add = CacheLine::ZERO;
        add.set_word(0, 5);
        let tag = ch
            .submit(CommandOp::Rmw {
                addr: 0,
                op: RmwOp::AtomicAdd,
                data: add,
            })
            .unwrap();
        let deadline = ch.now() + SimTime::from_ms(1);
        loop {
            match ch.next_completion(deadline) {
                Some(c) if c.tag == tag => break,
                Some(_) => {}
                None => panic!("rmw hung"),
            }
        }
        let (result, _) = ch.read_line_blocking(0).unwrap();
        assert_eq!(result.word(0), 12);
    }

    #[test]
    fn stale_read_beat_cannot_poison_a_write() {
        // Regression: a straggler data beat aliasing a reused tag used
        // to latch its poison bit onto whatever command now owned the
        // tag — even a write, which has no assembler and will never
        // consume data. The beat must be absorbed as stale *before*
        // poison is recorded.
        use contutto_dmi::frame::UPSTREAM_BEAT_BYTES;
        let mut ch = centaur_channel();
        let tag = ch
            .submit(CommandOp::Write {
                addr: 0x2000,
                data: CacheLine::patterned(3),
            })
            .unwrap();
        let now = ch.now();
        ch.handle_response(
            now,
            UpstreamPayload::ReadData {
                tag,
                beat: 0,
                data: [0u8; UPSTREAM_BEAT_BYTES],
                poison: true,
            },
        );
        assert!(ch.stale_responses() >= 1, "beat not counted as stale");
        let c = ch
            .next_completion(ch.now() + SimTime::from_us(50))
            .expect("write completes");
        assert_eq!(c.tag, tag);
        assert!(!c.poisoned, "stale beat poisoned a write completion");
    }

    #[test]
    fn tracked_rmw_is_aborted_not_retried() {
        // An RMW whose done notification is lost must NOT ride the
        // retry ladder: the buffer may already have applied the merge,
        // so a resubmission would double-apply it. The ladder surfaces
        // RmwAborted instead and schedules zero retries.
        let mut ch = centaur_channel();
        ch.set_retry_policy(RetryPolicy {
            op_timeout: SimTime::from_us(3),
            max_attempts: 3,
            base_backoff: SimTime::from_ns(500),
            max_retrains: 0,
        });
        ch.set_up_injector(BitErrorInjector::bernoulli(1.0, 42));
        let id = ch.enqueue_command(CommandOp::Rmw {
            addr: 0x3000,
            op: RmwOp::AtomicAdd,
            data: CacheLine::patterned(1),
        });
        let err = ch.wait_for_command(id).unwrap_err();
        assert!(
            matches!(err, DmiError::RmwAborted { addr: 0x3000 }),
            "got {err:?}"
        );
        assert!(ch.rmw_aborts() >= 1);
        assert_eq!(ch.retries_scheduled(), 0, "rmw must never retry");
    }

    #[test]
    fn pipelined_reads_overlap() {
        // 8 independent reads complete far faster than 8 serialized.
        let mut ch = contutto_channel();
        ch.read_line_blocking(0).unwrap(); // warm
        let t0 = ch.now();
        for i in 0..8u64 {
            ch.submit(CommandOp::Read { addr: i * 128 }).unwrap();
        }
        let deadline = ch.now() + SimTime::from_ms(1);
        let mut done = 0;
        while done < 8 {
            assert!(ch.next_completion(deadline).is_some(), "hang");
            done += 1;
        }
        let pipelined = ch.now() - t0;

        let mut ch2 = contutto_channel();
        ch2.read_line_blocking(0).unwrap();
        let t0 = ch2.now();
        for i in 0..8u64 {
            ch2.read_line_blocking(i * 128).unwrap();
        }
        let serialized = ch2.now() - t0;
        assert!(
            pipelined * 2 < serialized,
            "pipelined {pipelined} vs serialized {serialized}"
        );
    }

    #[test]
    fn poisoned_line_surfaces_as_typed_error_end_to_end() {
        use contutto_memdev::FaultConfig;
        // A storm of bit flips confined to one 64-bit word guarantees
        // a multi-bit (uncorrectable) error; no scrub to heal it.
        let mut card = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
        card.attach_media_faults(FaultConfig {
            transient_flips: 64,
            window: SimTime::from_us(10),
            hot_start: 0,
            hot_len: 8,
            ..FaultConfig::none(11)
        });
        let mut ch = DmiChannel::new(ChannelConfig::contutto(), Box::new(card));
        let line = CacheLine::patterned(9);
        ch.write_line_blocking(0, line).unwrap();
        // Let the fault window elapse so the flips land in the array.
        let resume = ch.now() + SimTime::from_us(15);
        ch.run_until(resume);
        let err = ch.read_line_blocking(0).unwrap_err();
        assert!(
            matches!(err, DmiError::Poisoned { addr: 0 }),
            "expected poison, got {err}"
        );
        assert_eq!(ch.poisoned_reads(), 1);
        // An unaffected line still reads clean: poison is contained.
        let clean = CacheLine::patterned(3);
        ch.write_line_blocking(0x4000, clean).unwrap();
        let (back, _) = ch.read_line_blocking(0x4000).unwrap();
        assert_eq!(back, clean);
    }

    #[test]
    fn channel_recovers_from_wire_errors() {
        let mut cfg = ChannelConfig::contutto();
        cfg.down_errors = BitErrorInjector::bernoulli(0.01, 99);
        cfg.up_errors = BitErrorInjector::bernoulli(0.01, 77);
        let mut ch = DmiChannel::new(
            cfg,
            Box::new(ConTutto::new(
                ContuttoConfig::base(),
                MemoryPopulation::dram_8gb(),
            )),
        );
        for i in 0..20u64 {
            let line = CacheLine::patterned(i);
            ch.write_line_blocking(i * 128, line).unwrap();
            let (back, _) = ch.read_line_blocking(i * 128).unwrap();
            assert_eq!(back, line, "iteration {i}");
        }
        assert!(
            ch.host_stats().crc_errors + ch.host_stats().seq_errors > 0
                || ch.host_stats().replays_triggered > 0
        );
    }

    #[test]
    fn a_restored_degrade_must_keep_a_window_to_return_to() {
        // The saved window is the last field of a channel image; a
        // degrade that ended on a window of 0 would issue nothing ever
        // again, so 0 is malformed, as for the live window.
        let mut ch = contutto_channel();
        ch.degrade_for(SimTime::from_us(5));
        let mut img = Vec::new();
        ch.snapshot_state(&mut img);
        let mut fresh = contutto_channel();
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();
        let at = img.len() - 8;
        img[at..].copy_from_slice(&0u64.to_le_bytes());
        let err = contutto_channel()
            .restore_state(&mut SnapReader::new(&img))
            .unwrap_err();
        assert_eq!(
            err,
            RestoreError::Malformed {
                context: "in-flight window out of range"
            }
        );
    }

    #[test]
    fn a_command_beyond_the_media_reads_poisoned_on_either_buffer() {
        for (mut ch, capacity) in [
            (centaur_channel(), 8u64 << 30),
            (contutto_channel(), 8 << 30),
        ] {
            for addr in [capacity, !127] {
                let err = ch.read_line_blocking(addr).unwrap_err();
                assert!(
                    matches!(err, DmiError::Poisoned { .. }),
                    "{addr:#x}: {err:?}"
                );
                ch.write_line_blocking(addr, CacheLine::patterned(1))
                    .unwrap();
            }
            let line = CacheLine::patterned(2);
            ch.write_line_blocking(0x80, line).unwrap();
            assert_eq!(ch.read_line_blocking(0x80).unwrap().0, line);
        }
    }

    #[test]
    fn an_image_stamped_past_its_clock_is_malformed() {
        let restore = |ch: &DmiChannel| {
            let mut img = Vec::new();
            ch.snapshot_state(&mut img);
            contutto_channel().restore_state(&mut SnapReader::new(&img))
        };
        let malformed = |context| Err(RestoreError::Malformed { context });
        let mut ch = contutto_channel();
        ch.issue_hold = ch.now + RETRAIN_SETTLE;
        assert_eq!(restore(&ch), Ok(()));
        ch.issue_hold += SimTime::from_ps(1);
        assert_eq!(
            restore(&ch),
            malformed("issue hold past the retrain settle window")
        );

        let mut ch = contutto_channel();
        ch.submit(CommandOp::Read { addr: 0 }).unwrap();
        let ahead = ch.now + SimTime::from_ps(1);
        ch.pending.values_mut().for_each(|p| p.issued = ahead);
        assert_eq!(
            restore(&ch),
            malformed("command stamped after the channel clock")
        );

        let mut ch = contutto_channel();
        let far = ch.now + SimTime::from_ms(1);
        ch.up.transmit(far, vec![0; 8]);
        assert_eq!(
            restore(&ch),
            malformed("frame in flight past the wire latency")
        );

        // Stepping this channel would subtract the stamp from the clock.
        let mut ch = contutto_channel();
        ch.quarantine
            .insert(Tag::new(3).unwrap(), ch.now + SimTime::from_ms(1));
        assert_eq!(
            restore(&ch),
            malformed("tag quarantined after the channel clock")
        );

        // A read due an hour out would be stepped to slot by slot.
        let mut ch = contutto_channel();
        let id = ch.enqueue_command(CommandOp::Read { addr: 0 });
        let (key, cmd) = ch.queue.pop_first().unwrap();
        assert_eq!(key.1, id);
        let longest = ch.longest_backoff();
        assert_eq!(longest, ch.retry.base_backoff * 2);
        ch.queue.insert((ch.now + longest, id), cmd.clone());
        assert_eq!(restore(&ch), Ok(()));
        ch.queue.clear();
        ch.queue
            .insert((ch.now + SimTime::from_secs(3600), id), cmd);
        assert_eq!(
            restore(&ch),
            malformed("queued retry due past the longest backoff")
        );
    }

    #[test]
    fn a_backoff_past_64_doublings_saturates() {
        let mut ch = contutto_channel();
        assert_eq!(ch.backoff_for(1), ch.retry.base_backoff);
        assert_eq!(ch.backoff_for(3), ch.retry.base_backoff * 4);
        assert_eq!(ch.backoff_for(64), SimTime::MAX);
        assert_eq!(ch.backoff_for(65), SimTime::MAX);
        ch.retry.max_attempts = 66;
        assert_eq!(ch.longest_backoff(), SimTime::MAX);
    }
}
