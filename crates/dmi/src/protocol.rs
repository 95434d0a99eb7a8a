//! The DMI packet-loop protocol: sequence IDs, embedded ACKs, and
//! replay-based error recovery.
//!
//! Paper §2.3: "there is a tight loop with a continuous flow of packets
//! and corresponding acknowledges ... each received frame is
//! acknowledged by inserting the ACK bit into a frame being transmitted
//! in the opposite direction. A missing ACK triggers automatic
//! re-transmission (replay) of packets for error recovery. ... this
//! FRTL value is used by the transmitter to determine where to start
//! the re-transmission; no explicit frame ID of the erroneous frame
//! needs to be communicated."
//!
//! [`LinkEndpoint`] implements one side of this loop, generic over the
//! frame direction via [`WireFrame`]. Both the POWER8 host model and
//! the buffer models (Centaur, ConTutto) embed two of these (one per
//! direction's transmit side).
//!
//! The ConTutto-specific **freeze workaround** (paper §3.3(ii)) is
//! modelled: with `replay_switch_delay_frames > 0`, the endpoint
//! responds to a replay trigger by first re-transmitting its *last*
//! frame (same sequence ID — the receiver discards duplicates) for
//! that many slots, "effectively freezing the flow of frames from the
//! processor's perspective, until the FPGA is ready to switch to
//! replay".

use std::collections::VecDeque;

use contutto_sim::persist_fields;
use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};
use contutto_sim::{LinkDir, TraceEvent, Tracer};

use crate::error::DmiError;
use crate::frame::{
    DownstreamFrame, DownstreamPayload, UpstreamFrame, UpstreamPayload, DOWNSTREAM_BEATS_PER_LINE,
    DOWNSTREAM_FRAME_BYTES, SEQ_MODULO, UPSTREAM_BEATS_PER_LINE, UPSTREAM_FRAME_BYTES,
};
use crate::link;

/// Which end of the channel an endpoint plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRole {
    /// The processor (DMI master). Transmits downstream frames.
    Host,
    /// The memory buffer (DMI slave). Transmits upstream frames.
    Buffer,
}

/// A frame type that can ride the link. Implemented by
/// [`DownstreamFrame`] and [`UpstreamFrame`]; sealed in practice by the
/// crate's frame formats.
pub trait WireFrame: Sized + Clone + PartialEq + std::fmt::Debug + Persist {
    /// The payload enum carried by this direction.
    type Payload: Clone + PartialEq + std::fmt::Debug;

    /// Serialized frame size on the wire.
    const WIRE_BYTES: usize;

    /// Builds a frame.
    fn assemble(seq: u8, ack: Option<u8>, payload: Self::Payload) -> Self;
    /// Serializes to wire bytes (CRC included).
    fn serialize(&self) -> Vec<u8>;
    /// Parses from wire bytes, checking CRC.
    ///
    /// # Errors
    ///
    /// Propagates [`DmiError::CrcMismatch`] / [`DmiError::MalformedFrame`].
    fn deserialize(bytes: &[u8]) -> Result<Self, DmiError>;
    /// The frame's sequence ID.
    fn seq(&self) -> u8;
    /// The embedded ACK, if any.
    fn ack(&self) -> Option<u8>;
    /// Borrows the payload.
    fn payload(&self) -> &Self::Payload;
    /// Consumes into the payload.
    fn into_payload(self) -> Self::Payload;
    /// The idle payload for slots with nothing to send.
    fn idle_payload() -> Self::Payload;
    /// Whether deserializing this frame's bytes gives back this very
    /// frame. Only a sequence ID or ACK outside the 7-bit space, or a
    /// data beat index past the end of a line, does not survive.
    fn round_trips(&self) -> bool;
}

/// Whether a frame's sequence ID and ACK fit the 7-bit sequence space.
fn seqs_fit(seq: u8, ack: Option<u8>) -> bool {
    seq < SEQ_MODULO && ack.is_none_or(|a| a < SEQ_MODULO)
}

impl WireFrame for DownstreamFrame {
    type Payload = DownstreamPayload;
    const WIRE_BYTES: usize = DOWNSTREAM_FRAME_BYTES;

    fn assemble(seq: u8, ack: Option<u8>, payload: Self::Payload) -> Self {
        DownstreamFrame { seq, ack, payload }
    }
    fn serialize(&self) -> Vec<u8> {
        self.to_bytes().to_vec()
    }
    fn deserialize(bytes: &[u8]) -> Result<Self, DmiError> {
        let arr: &[u8; DOWNSTREAM_FRAME_BYTES] = bytes
            .try_into()
            .map_err(|_| DmiError::MalformedFrame("wrong downstream frame size"))?;
        DownstreamFrame::from_bytes(arr)
    }
    fn seq(&self) -> u8 {
        self.seq
    }
    fn ack(&self) -> Option<u8> {
        self.ack
    }
    fn payload(&self) -> &Self::Payload {
        &self.payload
    }
    fn into_payload(self) -> Self::Payload {
        self.payload
    }
    fn idle_payload() -> Self::Payload {
        DownstreamPayload::Idle
    }
    fn round_trips(&self) -> bool {
        seqs_fit(self.seq, self.ack)
            && !matches!(self.payload, DownstreamPayload::WriteData { beat, .. }
                if usize::from(beat) >= DOWNSTREAM_BEATS_PER_LINE)
    }
}

impl WireFrame for UpstreamFrame {
    type Payload = UpstreamPayload;
    const WIRE_BYTES: usize = UPSTREAM_FRAME_BYTES;

    fn assemble(seq: u8, ack: Option<u8>, payload: Self::Payload) -> Self {
        UpstreamFrame { seq, ack, payload }
    }
    fn serialize(&self) -> Vec<u8> {
        self.to_bytes().to_vec()
    }
    fn deserialize(bytes: &[u8]) -> Result<Self, DmiError> {
        let arr: &[u8; UPSTREAM_FRAME_BYTES] = bytes
            .try_into()
            .map_err(|_| DmiError::MalformedFrame("wrong upstream frame size"))?;
        UpstreamFrame::from_bytes(arr)
    }
    fn seq(&self) -> u8 {
        self.seq
    }
    fn ack(&self) -> Option<u8> {
        self.ack
    }
    fn payload(&self) -> &Self::Payload {
        &self.payload
    }
    fn into_payload(self) -> Self::Payload {
        self.payload
    }
    fn idle_payload() -> Self::Payload {
        UpstreamPayload::Idle
    }
    fn round_trips(&self) -> bool {
        seqs_fit(self.seq, self.ack)
            && !matches!(self.payload, UpstreamPayload::ReadData { beat, .. }
                if usize::from(beat) >= UPSTREAM_BEATS_PER_LINE)
    }
}

/// Configuration for a [`LinkEndpoint`].
#[derive(Debug, Clone)]
pub struct LinkEndpointConfig {
    /// Which side this endpoint is.
    pub role: LinkRole,
    /// Replay-buffer depth in frames. Must exceed the FRTL in frames
    /// (paper: the buffer must cover one round trip so the transmitter
    /// can rewind without explicit NAK IDs).
    pub replay_buffer_frames: usize,
    /// Transmit slots without ACK progress before a replay is
    /// triggered. Set from the measured FRTL plus margin.
    pub ack_timeout_frames: u64,
    /// ConTutto freeze workaround: number of slots the endpoint
    /// re-transmits its last frame before switching to replay
    /// (0 for Centaur/host, >0 for the FPGA).
    pub replay_switch_delay_frames: u64,
}

impl LinkEndpointConfig {
    /// Host-side defaults (no freeze; ASIC-speed replay switch).
    pub fn host() -> Self {
        LinkEndpointConfig {
            role: LinkRole::Host,
            replay_buffer_frames: 48,
            ack_timeout_frames: 24,
            replay_switch_delay_frames: 0,
        }
    }

    /// Centaur-style buffer defaults.
    pub fn centaur_buffer() -> Self {
        LinkEndpointConfig {
            role: LinkRole::Buffer,
            replay_buffer_frames: 48,
            ack_timeout_frames: 24,
            replay_switch_delay_frames: 0,
        }
    }

    /// ConTutto-style buffer defaults, including the freeze workaround
    /// (paper §3.3(ii)).
    pub fn contutto_buffer() -> Self {
        LinkEndpointConfig {
            role: LinkRole::Buffer,
            replay_buffer_frames: 48,
            ack_timeout_frames: 24,
            replay_switch_delay_frames: 4,
        }
    }

    /// Checks the documented invariants: the ACK timeout must be
    /// nonzero (a zero timeout replays on every slot and the link
    /// livelocks), the replay buffer must exceed the ACK timeout in
    /// frames (the transmitter must be able to rewind a full round
    /// trip), and it must stay within half the sequence space (beyond
    /// that, old and new frames become ambiguous under modulo-128
    /// sequence IDs).
    ///
    /// # Errors
    ///
    /// [`DmiError::Config`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), DmiError> {
        if self.ack_timeout_frames == 0 {
            return Err(DmiError::Config("ack timeout must be nonzero"));
        }
        if self.replay_buffer_frames as u64 <= self.ack_timeout_frames {
            return Err(DmiError::Config("replay buffer must cover the ack timeout"));
        }
        if self.replay_buffer_frames >= SEQ_MODULO as usize / 2 {
            return Err(DmiError::Config(
                "replay buffer must stay within half the sequence space",
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    Normal,
    /// Re-transmitting the last frame while preparing the replay mux.
    Freeze {
        slots_left: u64,
    },
    /// Replaying from the replay buffer, next index to send.
    Replay {
        next_idx: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RxState {
    Normal,
    /// Saw a bad frame; discarding until the expected seq reappears.
    AwaitReplay,
}

/// Cumulative protocol statistics for one endpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames transmitted (including idles, duplicates and replays).
    pub frames_tx: u64,
    /// Good, in-order frames received and delivered.
    pub frames_rx_ok: u64,
    /// CRC failures observed on receive.
    pub crc_errors: u64,
    /// Sequence gaps observed on receive.
    pub seq_errors: u64,
    /// Duplicate frames discarded (normal during freeze/replay).
    pub duplicates_dropped: u64,
    /// Replay operations initiated by this transmitter.
    pub replays_triggered: u64,
    /// Frames re-transmitted during replays (excluding freeze dups).
    pub frames_replayed: u64,
}

persist_fields!(LinkStats {
    frames_tx,
    frames_rx_ok,
    crc_errors,
    seq_errors,
    duplicates_dropped,
    replays_triggered,
    frames_replayed
});

/// Modulo-128 "is `a` at-or-before `b`" within a window of half the
/// sequence space.
fn seq_reaches(from: u8, to: u8) -> bool {
    ((to.wrapping_sub(from)) % SEQ_MODULO) < SEQ_MODULO / 2
}

/// Sequence ID `seq` moved on by `k` in the modulo-128 space.
pub(crate) fn seq_add(seq: u8, k: u64) -> u8 {
    ((u64::from(seq) + k % u64::from(SEQ_MODULO)) % u64::from(SEQ_MODULO)) as u8
}

/// One side of a DMI link: owns the transmit sequence space, replay
/// buffer and receive bookkeeping for its direction.
///
/// Drive it one **frame slot** at a time: [`LinkEndpoint::tick_tx`]
/// produces the serialized frame for this slot (idle frames keep the
/// link running, as on real hardware), and
/// [`LinkEndpoint::on_receive`] consumes an arriving frame, returning
/// any newly delivered payload.
#[derive(Debug)]
pub struct LinkEndpoint<T: WireFrame, R: WireFrame> {
    cfg: LinkEndpointConfig,
    // Transmit side.
    backlog: VecDeque<T::Payload>,
    replay: VecDeque<T>,
    next_seq: u8,
    acked_upto: Option<u8>,
    slots_since_progress: u64,
    tx_state: TxState,
    last_frame: Option<T>,
    // Receive side.
    rx_expected: u8,
    rx_state: RxState,
    pending_ack: Option<u8>,
    // Observability.
    stats: LinkStats,
    tracer: Tracer,
    _marker: std::marker::PhantomData<R>,
}

impl<T: WireFrame, R: WireFrame> LinkEndpoint<T, R> {
    /// Creates an endpoint with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`LinkEndpointConfig::validate`] rejects the
    /// configuration. Use [`LinkEndpoint::try_new`] for a typed error.
    pub fn new(cfg: LinkEndpointConfig) -> Self {
        Self::try_new(cfg).expect("valid link endpoint config")
    }

    /// Creates an endpoint, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Propagates [`DmiError::Config`] from
    /// [`LinkEndpointConfig::validate`].
    pub fn try_new(cfg: LinkEndpointConfig) -> Result<Self, DmiError> {
        cfg.validate()?;
        Ok(LinkEndpoint {
            cfg,
            backlog: VecDeque::new(),
            replay: VecDeque::new(),
            next_seq: 0,
            acked_upto: None,
            slots_since_progress: 0,
            tx_state: TxState::Normal,
            last_frame: None,
            rx_expected: 0,
            rx_state: RxState::Normal,
            pending_ack: None,
            stats: LinkStats::default(),
            tracer: Tracer::off(),
            _marker: std::marker::PhantomData,
        })
    }

    /// Connects this endpoint to a shared [`Tracer`]. Frame, CRC and
    /// replay events are reported with the direction this endpoint
    /// transmits in ([`LinkRole::Host`] ⇒ downstream).
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Direction of frames this endpoint puts on the wire.
    fn tx_dir(&self) -> LinkDir {
        match self.cfg.role {
            LinkRole::Host => LinkDir::Downstream,
            LinkRole::Buffer => LinkDir::Upstream,
        }
    }

    /// Queues a payload for transmission in a future slot.
    pub fn enqueue(&mut self, payload: T::Payload) {
        self.backlog.push_back(payload);
    }

    /// Number of payloads waiting for a transmit slot.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Protocol statistics so far.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Updates the ACK timeout (called after FRTL measurement).
    ///
    /// # Errors
    ///
    /// [`DmiError::Config`] if the new timeout would violate the replay
    /// buffer's coverage invariant (the endpoint is left unchanged).
    pub fn set_ack_timeout(&mut self, frames: u64) -> Result<(), DmiError> {
        let candidate = LinkEndpointConfig {
            ack_timeout_frames: frames,
            ..self.cfg.clone()
        };
        candidate.validate()?;
        self.cfg = candidate;
        Ok(())
    }

    fn unacked_frames(&self) -> usize {
        self.replay.len()
    }

    /// Produces the wire image of this slot's frame: the byte form of
    /// [`LinkEndpoint::tick_tx_frame`].
    pub fn tick_tx(&mut self) -> Vec<u8> {
        link::encode(&self.tick_tx_frame())
    }

    /// Produces the frame for this transmit slot. The link always
    /// carries a frame; with nothing to send this is an idle.
    pub fn tick_tx_frame(&mut self) -> T {
        // Replay-trigger check: outstanding frames and no ACK progress
        // for longer than the round trip means the far end missed
        // something (or our frame was the one lost).
        if self.tx_state == TxState::Normal
            && self.unacked_frames() > 0
            && self.slots_since_progress >= self.cfg.ack_timeout_frames
        {
            self.stats.replays_triggered += 1;
            self.slots_since_progress = 0;
            self.tracer.record(TraceEvent::ReplayTrigger {
                dir: self.tx_dir(),
                unacked: self.unacked_frames(),
            });
            self.tx_state = if self.cfg.replay_switch_delay_frames > 0 {
                // ConTutto: not ready to switch the mux yet — freeze.
                TxState::Freeze {
                    slots_left: self.cfg.replay_switch_delay_frames,
                }
            } else {
                self.record_rewind();
                TxState::Replay { next_idx: 0 }
            };
        }

        let (frame, replayed) = match self.tx_state {
            TxState::Freeze { slots_left } => {
                self.tx_state = if slots_left <= 1 {
                    self.record_rewind();
                    TxState::Replay { next_idx: 0 }
                } else {
                    TxState::Freeze {
                        slots_left: slots_left - 1,
                    }
                };
                // Re-send the last frame verbatim except for a fresh ACK.
                let prev = self
                    .last_frame
                    .clone()
                    .unwrap_or_else(|| T::assemble(0, self.pending_ack, T::idle_payload()));
                (
                    T::assemble(prev.seq(), self.pending_ack, prev.payload().clone()),
                    true,
                )
            }
            TxState::Replay { next_idx } => {
                if next_idx < self.replay.len() {
                    self.stats.frames_replayed += 1;
                    let original = self.replay[next_idx].clone();
                    self.tx_state = TxState::Replay {
                        next_idx: next_idx + 1,
                    };
                    // Same seq and payload, fresh ACK.
                    (
                        T::assemble(original.seq(), self.pending_ack, original.payload().clone()),
                        true,
                    )
                } else {
                    // Replay complete; back to normal flow.
                    self.tx_state = TxState::Normal;
                    self.next_new_frame()
                }
            }
            TxState::Normal => self.next_new_frame(),
        };

        if self.unacked_frames() > 0 {
            self.slots_since_progress += 1;
        }
        self.stats.frames_tx += 1;
        self.tracer.record(TraceEvent::FrameTx {
            dir: self.tx_dir(),
            seq: frame.seq(),
            replayed,
        });
        self.last_frame = Some(frame.clone());
        frame
    }

    /// Records the rewind that accompanies a switch into replay mode.
    fn record_rewind(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        let from_seq = self.replay.front().map_or(self.next_seq, WireFrame::seq);
        self.tracer.record(TraceEvent::ReplayRewind {
            dir: self.tx_dir(),
            from_seq,
            frames: self.replay.len(),
        });
    }

    fn next_new_frame(&mut self) -> (T, bool) {
        // Flow control: unacked frames must never outrun the replay
        // buffer. Every frame takes a sequence ID, idles included, so
        // with the buffer full not even an idle may go out: re-send the
        // last frame (same seq, fresh ACK) until an ACK frees a slot.
        if self.replay.len() >= self.cfg.replay_buffer_frames {
            let prev = self
                .last_frame
                .clone()
                .unwrap_or_else(|| T::assemble(0, self.pending_ack, T::idle_payload()));
            return (
                T::assemble(prev.seq(), self.pending_ack, prev.payload().clone()),
                true,
            );
        }
        let payload = self.backlog.pop_front().unwrap_or_else(T::idle_payload);
        let seq = self.next_seq;
        self.next_seq = (self.next_seq + 1) % SEQ_MODULO;
        let frame = T::assemble(seq, self.pending_ack, payload);
        self.replay.push_back(frame.clone());
        (frame, false)
    }

    /// Consumes the wire image of a frame arriving from the far end:
    /// the byte form of [`LinkEndpoint::on_receive_frame`]. Bytes that
    /// are not one frame long are a malformed frame.
    pub fn on_receive(&mut self, bytes: &[u8]) -> Option<R::Payload> {
        self.on_receive_frame(link::decode(bytes))
    }

    /// Consumes a frame arriving from the far end, or the error its
    /// wire image failed to decode with. Returns the payload if this is
    /// a new, in-order, CRC-clean frame.
    pub fn on_receive_frame(&mut self, arrival: Result<R, DmiError>) -> Option<R::Payload> {
        let rx_dir = self.tx_dir().opposite();
        let frame = match arrival {
            Ok(f) => f,
            Err(DmiError::CrcMismatch { .. }) => {
                self.stats.crc_errors += 1;
                self.rx_state = RxState::AwaitReplay;
                self.tracer.record(TraceEvent::CrcFailure { dir: rx_dir });
                return None;
            }
            Err(_) => {
                self.stats.seq_errors += 1;
                self.rx_state = RxState::AwaitReplay;
                return None;
            }
        };

        // Process the embedded ACK even on duplicates: during the
        // freeze workaround the peer keeps ACKing via duplicates.
        if let Some(ack) = frame.ack() {
            self.process_ack(ack);
        }

        let seq = frame.seq();
        if seq == self.rx_expected {
            self.rx_expected = (seq + 1) % SEQ_MODULO;
            self.rx_state = RxState::Normal;
            self.pending_ack = Some(seq);
            self.stats.frames_rx_ok += 1;
            self.tracer.record(TraceEvent::FrameRx { dir: rx_dir, seq });
            Some(frame.into_payload())
        } else if self.pending_ack.is_some_and(|last| seq_reaches(seq, last)) {
            // Old frame (freeze duplicate or replay overlap): drop.
            self.stats.duplicates_dropped += 1;
            None
        } else {
            // Gap: a frame went missing entirely. Wait for replay.
            self.stats.seq_errors += 1;
            self.rx_state = RxState::AwaitReplay;
            self.tracer.record(TraceEvent::SeqGap {
                dir: rx_dir,
                expected: self.rx_expected,
                got: seq,
            });
            None
        }
    }

    fn process_ack(&mut self, ack: u8) {
        // Pop replay-buffer entries up to and including `ack`.
        let mut progressed = false;
        while let Some(front) = self.replay.front() {
            if seq_reaches(front.seq(), ack) {
                self.replay.pop_front();
                progressed = true;
            } else {
                break;
            }
        }
        if progressed {
            self.acked_upto = Some(ack);
            self.slots_since_progress = 0;
        }
    }

    /// Sequence ID the receiver expects next (for tests).
    pub fn rx_expected(&self) -> u8 {
        self.rx_expected
    }

    /// Whether the receiver is waiting out a replay.
    pub fn rx_awaiting_replay(&self) -> bool {
        self.rx_state == RxState::AwaitReplay
    }

    /// The ACK this endpoint's next frame carries, if it has received
    /// anything yet.
    pub(crate) fn pending_ack(&self) -> Option<u8> {
        self.pending_ack
    }

    /// Sequence ID the next new frame takes.
    pub(crate) fn next_seq(&self) -> u8 {
        self.next_seq
    }

    /// The last two frames sent, oldest first: the two a steady link
    /// has in flight. Call only when [`LinkEndpoint::idle_steady`]
    /// holds.
    pub(crate) fn last_two_sent(&self) -> (&T, &T) {
        let n = self.replay.len();
        (&self.replay[n - 2], &self.replay[n - 1])
    }

    /// Whether the transmit side is in the idle steady state of the
    /// packet loop, so that its next frame is one more idle of the same
    /// run, as long as that frame carries `next_ack`. All of these
    /// hold: nothing is backlogged; neither side is recovering; the
    /// replay buffer holds at least two frames, all idle, with
    /// consecutive sequence IDs and consecutive ACKs, and still has
    /// room; the last frame sent is its newest entry and `next_seq`
    /// follows it; no replay trigger is due; and `next_ack` follows the
    /// newest entry's ACK.
    pub(crate) fn idle_steady(&self, next_ack: u8) -> bool {
        if !self.backlog.is_empty()
            || self.tx_state != TxState::Normal
            || self.rx_state != RxState::Normal
            || self.replay.len() < 2
            || self.replay.len() >= self.cfg.replay_buffer_frames
            || self.slots_since_progress >= self.cfg.ack_timeout_frames
        {
            return false;
        }
        let idle = T::idle_payload();
        let (mut seq, mut ack) = (self.replay[0].seq(), self.replay[0].ack());
        for frame in &self.replay {
            if ack.is_none() || frame.seq() != seq || frame.ack() != ack || *frame.payload() != idle
            {
                return false;
            }
            seq = seq_add(seq, 1);
            ack = ack.map(|a| seq_add(a, 1));
        }
        let newest = self.replay.back().expect("at least two frames");
        self.last_frame.as_ref().is_some_and(|last| {
            last.seq() == newest.seq() && last.ack() == newest.ack() && *last.payload() == idle
        }) && self.next_seq == seq
            && ack == Some(next_ack)
    }

    /// Whether `frame`, arriving this slot, is the next in-order frame
    /// and ACKs exactly the oldest entry of the replay buffer.
    pub(crate) fn accepts_idle(&self, frame: &R) -> bool {
        frame.seq() == self.rx_expected
            && frame.ack().is_some()
            && frame.ack() == self.replay.front().map(WireFrame::seq)
    }

    /// Applies `k` idle slots in closed form. Each slot sends one idle
    /// and receives one, and the ACK it receives retires the oldest
    /// replay entry, so every sequence ID and ACK moves on by `k`, as
    /// do the frame counters. `slots_since_progress` is what stepping
    /// leaves in that counter, which depends on whether the endpoint
    /// transmits before or after it receives within a slot. Call only
    /// when [`LinkEndpoint::idle_steady`] holds.
    pub(crate) fn skip_idle(&mut self, k: u64, slots_since_progress: u64) {
        let oldest = self.replay.front().map_or(0, WireFrame::seq);
        for frame in &mut self.replay {
            *frame = T::assemble(
                seq_add(frame.seq(), k),
                frame.ack().map(|a| seq_add(a, k)),
                T::idle_payload(),
            );
        }
        self.last_frame = self.replay.back().cloned();
        self.next_seq = seq_add(self.next_seq, k);
        self.rx_expected = seq_add(self.rx_expected, k);
        self.pending_ack = Some(seq_add(self.rx_expected, u64::from(SEQ_MODULO) - 1));
        self.acked_upto = Some(seq_add(oldest, k - 1));
        self.slots_since_progress = slots_since_progress;
        self.stats.frames_tx += k;
        self.stats.frames_rx_ok += k;
    }

    fn ack_timeout_fits(&self, ack_timeout_frames: &u64) -> Result<(), RestoreError> {
        let candidate = LinkEndpointConfig {
            ack_timeout_frames: *ack_timeout_frames,
            ..self.cfg.clone()
        };
        candidate.validate().map_err(|_| RestoreError::Malformed {
            context: "link ack timeout",
        })
    }

    fn replay_fits(&self, replay: &VecDeque<T>) -> Result<(), RestoreError> {
        if replay.len() > self.cfg.replay_buffer_frames {
            return Err(RestoreError::Malformed {
                context: "replay buffer overflow",
            });
        }
        Ok(())
    }

    fn seq_fits(&self, seq: &u8) -> Result<(), RestoreError> {
        self.ack_fits(&Some(*seq))
    }

    fn ack_fits(&self, ack: &Option<u8>) -> Result<(), RestoreError> {
        if ack.is_some_and(|a| a >= SEQ_MODULO) {
            return Err(RestoreError::Malformed {
                context: "sequence ID out of range",
            });
        }
        Ok(())
    }

    fn replay_cursor_fits(&self) -> Result<(), RestoreError> {
        match self.tx_state {
            TxState::Replay { next_idx } if next_idx > self.replay.len() => {
                Err(RestoreError::Malformed {
                    context: "replay cursor out of range",
                })
            }
            _ => Ok(()),
        }
    }

    /// Backlogged payloads ride as whole frames, like the replay
    /// buffer, so a stored payload is checked by the frame decoder.
    fn persist_backlog(backlog: &VecDeque<T::Payload>, out: &mut Vec<u8>) {
        (backlog.len() as u64).persist(out);
        for payload in backlog {
            T::assemble(0, None, payload.clone()).persist(out);
        }
    }

    fn restore_backlog(r: &mut SnapReader<'_>) -> Result<VecDeque<T::Payload>, RestoreError> {
        Ok(VecDeque::<T>::restore(r)?
            .into_iter()
            .map(WireFrame::into_payload)
            .collect())
    }

    contutto_sim::state_fields! {
        /// Serializes the endpoint's dynamic state into a snapshot
        /// payload. Frames (replay buffer, last frame) and backlogged
        /// payloads ride as their wire bytes — the same encoding the
        /// link itself uses, CRC included — so a flipped byte in a
        /// stored frame is caught on restore by the frame decoder. The
        /// role and buffer sizing are construction parameters; only the
        /// runtime-mutable ACK timeout (set after FRTL measurement) is
        /// persisted, and restore checks it against the replay buffer's
        /// coverage invariant, every sequence ID against the 7-bit
        /// space and the replay cursor against the buffer.
        pub {
            cfg.ack_timeout_frames if Self::ack_timeout_fits,
            backlog with (Self::persist_backlog, Self::restore_backlog),
            replay if Self::replay_fits,
            next_seq if Self::seq_fits,
            acked_upto if Self::ack_fits,
            slots_since_progress,
            tx_state,
            last_frame,
            rx_expected if Self::seq_fits,
            rx_state,
            pending_ack if Self::ack_fits,
            stats,
            check Self::replay_cursor_fits,
        }
    }
}

/// A frame persists as its wire bytes, CRC included; restoring one the
/// frame decoder rejects is [`RestoreError::Malformed`].
macro_rules! persist_as_wire_bytes {
    ($($frame:ty),+) => {$(
        impl Persist for $frame {
            fn persist(&self, out: &mut Vec<u8>) {
                self.serialize().persist(out);
            }
            fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
                Self::deserialize(&Vec::<u8>::restore(r)?).map_err(|_| RestoreError::Malformed {
                    context: "stored link frame",
                })
            }
        }
    )+};
}

persist_as_wire_bytes!(DownstreamFrame, UpstreamFrame);

impl Persist for TxState {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            TxState::Normal => out.push(0),
            TxState::Freeze { slots_left } => {
                out.push(1);
                slots_left.persist(out);
            }
            TxState::Replay { next_idx } => {
                out.push(2);
                next_idx.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(match r.u8()? {
            0 => TxState::Normal,
            1 => TxState::Freeze {
                slots_left: r.u64()?,
            },
            2 => TxState::Replay {
                next_idx: usize::restore(r)?,
            },
            _ => {
                return Err(RestoreError::Malformed {
                    context: "TxState discriminant",
                })
            }
        })
    }
}

impl Persist for RxState {
    fn persist(&self, out: &mut Vec<u8>) {
        out.push(match self {
            RxState::Normal => 0,
            RxState::AwaitReplay => 1,
        });
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        match r.u8()? {
            0 => Ok(RxState::Normal),
            1 => Ok(RxState::AwaitReplay),
            _ => Err(RestoreError::Malformed {
                context: "RxState discriminant",
            }),
        }
    }
}

/// Convenience aliases for the two concrete endpoint directions.
pub type HostEndpoint = LinkEndpoint<DownstreamFrame, UpstreamFrame>;
/// Buffer-side endpoint (transmits upstream frames).
pub type BufferEndpoint = LinkEndpoint<UpstreamFrame, DownstreamFrame>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Tag;
    use crate::frame::CommandHeader;
    use crate::link::{BitErrorInjector, LinkSegment, LinkSpeed};
    use crate::scramble::Scrambler;
    use contutto_sim::SimTime;

    fn host() -> HostEndpoint {
        LinkEndpoint::new(LinkEndpointConfig::host())
    }
    fn buffer() -> BufferEndpoint {
        LinkEndpoint::new(LinkEndpointConfig::centaur_buffer())
    }

    /// Runs `slots` full-duplex frame slots between two endpoints over
    /// the given segments, collecting payloads delivered at each side.
    fn run_slots(
        host: &mut HostEndpoint,
        buf: &mut BufferEndpoint,
        down: &mut LinkSegment<DownstreamFrame>,
        up: &mut LinkSegment<UpstreamFrame>,
        slots: u64,
    ) -> (Vec<UpstreamPayload>, Vec<DownstreamPayload>) {
        let mut to_host = Vec::new();
        let mut to_buf = Vec::new();
        let slot = LinkSpeed::Gbps8.frame_time();
        for i in 0..slots {
            let now = slot * i;
            down.transmit(now, host.tick_tx());
            up.transmit(now, buf.tick_tx());
            while let Some(bytes) = down.receive(now) {
                if let Some(p) = buf.on_receive(&bytes) {
                    to_buf.push(p);
                }
            }
            while let Some(bytes) = up.receive(now) {
                if let Some(p) = host.on_receive(&bytes) {
                    to_host.push(p);
                }
            }
        }
        (to_host, to_buf)
    }

    fn cmd_payload(tag: u8, addr: u64) -> DownstreamPayload {
        DownstreamPayload::Command {
            tag: Tag::new(tag).unwrap(),
            header: CommandHeader::Read { addr },
        }
    }

    #[test]
    fn clean_link_delivers_in_order() {
        let mut h = host();
        let mut b = buffer();
        let mut down = LinkSegment::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::never(),
        );
        let mut up = LinkSegment::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::never(),
        );
        for i in 0..5 {
            h.enqueue(cmd_payload(i, u64::from(i) * 128));
        }
        let (_, to_buf) = run_slots(&mut h, &mut b, &mut down, &mut up, 20);
        let cmds: Vec<_> = to_buf
            .into_iter()
            .filter(|p| !matches!(p, DownstreamPayload::Idle))
            .collect();
        assert_eq!(cmds.len(), 5);
        assert_eq!(cmds[0], cmd_payload(0, 0));
        assert_eq!(cmds[4], cmd_payload(4, 512));
        assert_eq!(h.stats().replays_triggered, 0);
        assert_eq!(b.stats().crc_errors, 0);
    }

    #[test]
    fn corrupted_downstream_frame_is_replayed() {
        let mut h = host();
        let mut b = buffer();
        // Corrupt downstream frame #3.
        let mut down = LinkSegment::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::at_frames(vec![3]),
        );
        let mut up = LinkSegment::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::never(),
        );
        for i in 0..10 {
            h.enqueue(cmd_payload(i, u64::from(i) * 128));
        }
        let (_, to_buf) = run_slots(&mut h, &mut b, &mut down, &mut up, 120);
        let cmds: Vec<_> = to_buf
            .into_iter()
            .filter(|p| !matches!(p, DownstreamPayload::Idle))
            .collect();
        // All ten commands arrive, in order, exactly once.
        assert_eq!(cmds.len(), 10, "stats: {:?}", h.stats());
        for (i, c) in cmds.iter().enumerate() {
            assert_eq!(*c, cmd_payload(i as u8, i as u64 * 128));
        }
        assert_eq!(b.stats().crc_errors, 1);
        assert!(h.stats().replays_triggered >= 1);
        assert!(h.stats().frames_replayed > 0);
    }

    #[test]
    fn corrupted_upstream_frame_is_replayed() {
        let mut h = host();
        let mut b = LinkEndpoint::new(LinkEndpointConfig::contutto_buffer());
        let mut down = LinkSegment::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::never(),
        );
        let mut up = LinkSegment::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::at_frames(vec![5]),
        );
        for t in 0..4 {
            b.enqueue(UpstreamPayload::Done {
                first: Tag::new(t).unwrap(),
                second: None,
            });
        }
        // Give the buffer a moment, then more payloads after the error.
        let (to_host, _) = run_slots(&mut h, &mut b, &mut down, &mut up, 150);
        let dones: Vec<_> = to_host
            .into_iter()
            .filter(|p| !matches!(p, UpstreamPayload::Idle))
            .collect();
        assert_eq!(
            dones.len(),
            4,
            "host stats {:?} buf stats {:?}",
            h.stats(),
            b.stats()
        );
        assert_eq!(h.stats().crc_errors, 1);
        assert!(b.stats().replays_triggered >= 1);
        // The freeze workaround produced frames the host discarded
        // while waiting for replay (counted as dup or out-of-order
        // depending on where the corruption landed in the window).
        assert!(h.stats().duplicates_dropped + h.stats().seq_errors > 0);
    }

    #[test]
    fn freeze_workaround_delays_replay_start() {
        // With the ConTutto config, after a replay trigger the first
        // `replay_switch_delay_frames` frames must be duplicates of the
        // last frame, not replay frames.
        let mut b: BufferEndpoint = LinkEndpoint::new(LinkEndpointConfig::contutto_buffer());
        b.enqueue(UpstreamPayload::Done {
            first: Tag::new(1).unwrap(),
            second: None,
        });
        // Send some frames into the void (no ACKs will ever arrive).
        let mut sent = Vec::new();
        for _ in 0..40 {
            sent.push(b.tick_tx());
        }
        assert!(b.stats().replays_triggered >= 1);
        // Find where the replay was triggered: timeout is 24 slots.
        // Slots 0..24 are new frames; replay triggers on slot 24's tick;
        // freeze occupies 4 slots (dup of last frame), then replay
        // starts from seq 0.
        let descramble = |bytes: &Vec<u8>| {
            let mut d = bytes.clone();
            Scrambler::trained().apply(&mut d);
            UpstreamFrame::from_bytes(d.as_slice().try_into().unwrap()).unwrap()
        };
        let timeout = 24usize;
        let pre_freeze = descramble(&sent[timeout - 1]);
        for i in 0..4 {
            let dup = descramble(&sent[timeout + i]);
            assert_eq!(dup.seq, pre_freeze.seq, "freeze slot {i} must duplicate");
        }
        let first_replayed = descramble(&sent[timeout + 4]);
        assert_eq!(first_replayed.seq, 0, "replay restarts from oldest unacked");
    }

    #[test]
    fn repeated_errors_eventually_recover() {
        let mut h = host();
        let mut b = buffer();
        let mut down = LinkSegment::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::bernoulli(0.05, 7),
        );
        let mut up = LinkSegment::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::never(),
        );
        for i in 0..20 {
            h.enqueue(cmd_payload(i % 32, u64::from(i) * 128));
        }
        let (_, to_buf) = run_slots(&mut h, &mut b, &mut down, &mut up, 3000);
        let cmds: Vec<_> = to_buf
            .into_iter()
            .filter(|p| !matches!(p, DownstreamPayload::Idle))
            .collect();
        assert_eq!(
            cmds.len(),
            20,
            "all commands delivered despite 5% frame errors"
        );
        for (i, c) in cmds.iter().enumerate() {
            assert_eq!(
                *c,
                cmd_payload(i as u8 % 32, i as u64 * 128),
                "order preserved"
            );
        }
    }

    #[test]
    fn window_full_stalls_new_payloads() {
        let mut h = host();
        // No receiver: no acks, so the window fills at 48 frames.
        for i in 0..200 {
            h.enqueue(cmd_payload((i % 32) as u8, 0));
        }
        for _ in 0..100 {
            h.tick_tx();
        }
        // backlog drains at most replay_buffer_frames before stalling
        // (plus whatever a replay trigger consumed).
        assert!(h.backlog_len() >= 200 - 48, "backlog {}", h.backlog_len());
    }

    #[test]
    fn seq_reaches_wraps() {
        assert!(seq_reaches(0, 0));
        assert!(seq_reaches(0, 5));
        assert!(!seq_reaches(5, 0));
        assert!(seq_reaches(126, 1)); // wrap-around
        assert!(!seq_reaches(1, 126));
    }

    #[test]
    #[should_panic(expected = "replay buffer must cover")]
    fn config_validation() {
        let cfg = LinkEndpointConfig {
            role: LinkRole::Host,
            replay_buffer_frames: 8,
            ack_timeout_frames: 16,
            replay_switch_delay_frames: 0,
        };
        let _: HostEndpoint = LinkEndpoint::new(cfg);
    }

    #[test]
    fn try_new_returns_typed_config_errors() {
        let undersized = LinkEndpointConfig {
            replay_buffer_frames: 8,
            ack_timeout_frames: 16,
            ..LinkEndpointConfig::host()
        };
        assert_eq!(
            HostEndpoint::try_new(undersized).err(),
            Some(DmiError::Config("replay buffer must cover the ack timeout"))
        );
        let zero_timeout = LinkEndpointConfig {
            ack_timeout_frames: 0,
            ..LinkEndpointConfig::host()
        };
        assert_eq!(
            HostEndpoint::try_new(zero_timeout).err(),
            Some(DmiError::Config("ack timeout must be nonzero"))
        );
        let oversized = LinkEndpointConfig {
            replay_buffer_frames: SEQ_MODULO as usize / 2,
            ..LinkEndpointConfig::host()
        };
        assert_eq!(
            HostEndpoint::try_new(oversized).err(),
            Some(DmiError::Config(
                "replay buffer must stay within half the sequence space"
            ))
        );
        assert!(HostEndpoint::try_new(LinkEndpointConfig::host()).is_ok());
    }

    #[test]
    fn snapshot_restores_endpoint_mid_recovery() {
        // Drive a host endpoint into a messy state: backlog, unacked
        // replay frames, a replay in progress.
        let mut h = host();
        for i in 0..40 {
            h.enqueue(cmd_payload(i % 32, u64::from(i) * 128));
        }
        for _ in 0..30 {
            h.tick_tx(); // no ACKs ever arrive: window fills, replay triggers
        }
        assert!(h.stats().replays_triggered >= 1);

        let mut image = Vec::new();
        h.snapshot_state(&mut image);
        let mut fresh = host();
        fresh
            .restore_state(&mut contutto_sim::SnapReader::new(&image))
            .expect("restore");

        // From here both endpoints must emit byte-identical frames and
        // process ACKs identically.
        for slot in 0..60 {
            assert_eq!(h.tick_tx(), fresh.tick_tx(), "slot {slot}");
        }
        let ack = UpstreamFrame {
            seq: 0,
            ack: Some(3),
            payload: UpstreamPayload::Idle,
        };
        let mut bytes = ack.to_bytes().to_vec();
        crate::scramble::apply_trained(&mut bytes);
        assert_eq!(h.on_receive(&bytes), fresh.on_receive(&bytes));
        assert_eq!(h.stats(), fresh.stats());
        for slot in 0..20 {
            assert_eq!(h.tick_tx(), fresh.tick_tx(), "post-ack slot {slot}");
        }
    }

    #[test]
    fn endpoint_restore_rejects_corrupt_frames() {
        use contutto_sim::RestoreError;
        let mut h = host();
        h.enqueue(cmd_payload(1, 0x80));
        h.tick_tx();
        let mut image = Vec::new();
        h.snapshot_state(&mut image);
        // Flip a byte inside the stored replay frame: the frame CRC
        // catches it at decode time.
        let mut bad = image.clone();
        let n = bad.len();
        bad[n - 60] ^= 0x10;
        let err = host()
            .restore_state(&mut contutto_sim::SnapReader::new(&bad))
            .unwrap_err();
        assert!(
            matches!(
                err,
                RestoreError::Malformed { .. } | RestoreError::Truncated { .. }
            ),
            "got {err:?}"
        );
        // An uncoverable ACK timeout is rejected before anything else.
        let mut zeroed = image;
        zeroed[..8].fill(0);
        assert_eq!(
            host()
                .restore_state(&mut contutto_sim::SnapReader::new(&zeroed))
                .unwrap_err(),
            RestoreError::Malformed {
                context: "link ack timeout"
            }
        );
    }

    #[test]
    fn oversized_input_is_a_malformed_frame_not_a_panic() {
        // Regression: the byte form copied its input into a one-frame
        // stack buffer before checking the size, so 100 bytes panicked.
        let junk = [0xA5u8; 100];
        let mut h = host();
        assert_eq!(h.on_receive(&junk), None);
        assert_eq!(h.stats().seq_errors, 1);
        assert!(h.rx_awaiting_replay());
        let mut b = buffer();
        assert_eq!(b.on_receive(&junk), None);
        assert_eq!(b.stats().seq_errors, 1);
        assert!(b.rx_awaiting_replay());
    }

    #[test]
    fn set_ack_timeout_rejects_uncoverable_values() {
        let mut h = host();
        // 48-frame replay buffer: 47 is the largest coverable timeout.
        h.set_ack_timeout(47).unwrap();
        assert_eq!(
            h.set_ack_timeout(48),
            Err(DmiError::Config("replay buffer must cover the ack timeout"))
        );
        assert_eq!(
            h.set_ack_timeout(0),
            Err(DmiError::Config("ack timeout must be nonzero"))
        );
        // The rejected calls left the previous (valid) timeout in place.
        assert_eq!(h.cfg.ack_timeout_frames, 47);
    }
}
