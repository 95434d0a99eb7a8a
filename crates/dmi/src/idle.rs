//! Closed-form stepping of an idle DMI link.
//!
//! The packet loop never goes quiet (paper §2.3): every frame slot
//! carries a sequenced, ACK-bearing frame in each direction, whether or
//! not a command is in flight. Once both directions carry nothing but
//! idles, a further slot only moves every sequence ID and ACK on by
//! one. [`IdleLink`] recognizes that steady state and applies any
//! number of such slots at once. The end state and the trace records
//! are the ones stepping the slots one by one would produce.
//!
//! Within a slot the order is the channel's: the host transmits, the
//! buffer receives and then transmits, and the host receives.

use contutto_sim::{SimTime, Tracer};

use crate::frame::{DownstreamFrame, UpstreamFrame};
use crate::link::LinkSegment;
use crate::protocol::{seq_add, BufferEndpoint, HostEndpoint, WireFrame};

/// The link layer of one channel: both endpoints and both wires.
#[derive(Debug)]
pub struct IdleLink<'a> {
    /// The host endpoint (transmits downstream).
    pub host: &'a mut HostEndpoint,
    /// The buffer endpoint (transmits upstream).
    pub buffer: &'a mut BufferEndpoint,
    /// The downstream wire.
    pub down: &'a mut LinkSegment<DownstreamFrame>,
    /// The upstream wire.
    pub up: &'a mut LinkSegment<UpstreamFrame>,
}

impl IdleLink<'_> {
    /// Whether the link is in its idle steady state at slot time `now`,
    /// so that this slot and every later one, until something else
    /// happens, only moves idles. All of these hold:
    ///
    /// - each endpoint's transmit side is idle and steady
    ///   ([`crate::LinkEndpoint`]: empty backlog, no recovery, a replay
    ///   buffer of idles with consecutive sequence IDs and ACKs ending
    ///   in the last frame sent);
    /// - the host's next frame ACKs the upstream frame after the last
    ///   one its replay entries ACK, and so does the buffer's, once it
    ///   has received this slot's downstream frame;
    /// - each wire holds exactly the sender's last two frames, riding
    ///   as frames (an entry that rides as bytes, corrupted or just
    ///   restored, is never steady): the older one lands this slot and
    ///   the newer one the next, as a wire latency between one and two
    ///   slots implies;
    /// - the frame landing this slot is the receiver's next in-order
    ///   frame and ACKs exactly the oldest entry of its replay buffer.
    pub fn is_steady(&self, now: SimTime) -> bool {
        let slot = self.down.speed().frame_time();
        let Some(host_ack) = self.host.pending_ack() else {
            return false;
        };
        if self.host.rx_expected() != seq_add(host_ack, 1)
            || !self.host.idle_steady(host_ack)
            || !self.buffer.idle_steady(self.buffer.rx_expected())
        {
            return false;
        }
        let (down_old, down_new) = self.host.last_two_sent();
        let (up_old, up_new) = self.buffer.last_two_sent();
        self.buffer.accepts_idle(down_old)
            && self.host.accepts_idle(up_old)
            && wire_carries(self.down, [down_old, down_new], now, slot)
            && wire_carries(self.up, [up_old, up_new], now, slot)
    }

    /// How many slots from now on both wires' injectors leave clean,
    /// looking at most `limit` slots ahead.
    pub fn clean_slots(&self, limit: u64) -> u64 {
        self.down
            .clean_frames_ahead(limit)
            .min(self.up.clean_frames_ahead(limit))
    }

    /// Applies the `k >= 2` idle slots starting at `now` in closed
    /// form. The link must be steady at `now` and both wires clean for
    /// all `k` slots ([`IdleLink::is_steady`],
    /// [`IdleLink::clean_slots`]). When `tracer` is on it gets the four
    /// records stepping makes per slot, each stamped with its slot's
    /// time, in one pass ([`Tracer::record_idle_run`]), so every
    /// fingerprint comes out the same.
    pub fn skip(&mut self, now: SimTime, k: u64, tracer: &Tracer) {
        debug_assert!(k >= 2 && self.is_steady(now) && self.clean_slots(k) == k);
        let slot = self.down.speed().frame_time();
        tracer.record_idle_run(
            now,
            slot,
            k,
            [
                self.host.next_seq(),
                self.buffer.rx_expected(),
                self.buffer.next_seq(),
                self.host.rx_expected(),
            ],
        );
        // The host transmits before it receives, so the ACK it receives
        // leaves its no-progress counter at zero. The buffer receives
        // first, and its own transmit then counts one.
        self.host.skip_idle(k, 0);
        self.buffer.skip_idle(k, 1);
        let last = now + slot * (k - 1);
        skip_wire(self.down, k, self.host.last_two_sent(), last, slot);
        skip_wire(self.up, k, self.buffer.last_two_sent(), last, slot);
    }
}

/// Whether `seg` holds exactly `frames` (oldest first), riding as
/// frames, the older landing at `now` and the newer one slot later.
fn wire_carries<F: WireFrame>(
    seg: &LinkSegment<F>,
    frames: [&F; 2],
    now: SimTime,
    slot: SimTime,
) -> bool {
    let latency = seg.latency();
    if latency <= slot || latency > slot * 2 {
        return false;
    }
    let mut in_flight = seg.in_flight_frames();
    let (Some((old_at, Some(old))), Some((new_at, Some(new))), None) =
        (in_flight.next(), in_flight.next(), in_flight.next())
    else {
        return false;
    };
    old_at <= now && now < new_at && new_at <= now + slot && old == frames[0] && new == frames[1]
}

/// Puts the sender's last two frames back on `seg` after `k` skipped
/// slots, sent in the slots before and at `last`.
fn skip_wire<F: WireFrame>(
    seg: &mut LinkSegment<F>,
    k: u64,
    (older, newer): (&F, &F),
    last: SimTime,
    slot: SimTime,
) {
    seg.skip_frames(k, [(last - slot, older.clone()), (last, newer.clone())]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{DownstreamPayload, UpstreamPayload};
    use crate::link::{BitErrorInjector, LinkSpeed};
    use crate::protocol::{LinkEndpoint, LinkEndpointConfig};
    use contutto_sim::snapshot::Persist;

    struct Link {
        host: HostEndpoint,
        buffer: BufferEndpoint,
        down: LinkSegment<DownstreamFrame>,
        up: LinkSegment<UpstreamFrame>,
        now: SimTime,
        tracer: Tracer,
    }

    impl Link {
        fn new(ring: usize) -> Self {
            let tracer = Tracer::ring(ring);
            let mut host = LinkEndpoint::new(LinkEndpointConfig::host());
            let mut buffer = LinkEndpoint::new(LinkEndpointConfig::contutto_buffer());
            host.attach_tracer(tracer.clone());
            buffer.attach_tracer(tracer.clone());
            let latency = SimTime::from_ns(1);
            Link {
                host,
                buffer,
                down: LinkSegment::new(LinkSpeed::Gbps8, latency, BitErrorInjector::never()),
                up: LinkSegment::new(LinkSpeed::Gbps8, latency, BitErrorInjector::never()),
                now: SimTime::ZERO,
                tracer,
            }
        }

        fn slot(&self) -> SimTime {
            self.down.speed().frame_time()
        }

        /// One slot in the channel's order, frames riding as frames.
        fn step(&mut self) {
            let now = self.now;
            self.tracer.advance(now);
            self.down.transmit_frame(now, self.host.tick_tx_frame());
            while let Some(arrival) = self.down.receive_frame(now) {
                assert_eq!(
                    self.buffer.on_receive_frame(arrival),
                    Some(DownstreamPayload::Idle)
                );
            }
            self.up.transmit_frame(now, self.buffer.tick_tx_frame());
            while let Some(arrival) = self.up.receive_frame(now) {
                assert_eq!(
                    self.host.on_receive_frame(arrival),
                    Some(UpstreamPayload::Idle)
                );
            }
            self.now += self.slot();
        }

        /// One slot through the byte API: both wires carry wire images.
        fn step_bytes(&mut self) {
            let now = self.now;
            self.tracer.advance(now);
            self.down.transmit(now, self.host.tick_tx());
            while let Some(bytes) = self.down.receive(now) {
                self.buffer.on_receive(&bytes);
            }
            self.up.transmit(now, self.buffer.tick_tx());
            while let Some(bytes) = self.up.receive(now) {
                self.host.on_receive(&bytes);
            }
            self.now += self.slot();
        }

        fn idle(&mut self) -> IdleLink<'_> {
            IdleLink {
                host: &mut self.host,
                buffer: &mut self.buffer,
                down: &mut self.down,
                up: &mut self.up,
            }
        }

        fn image(&self) -> Vec<u8> {
            let mut out = Vec::new();
            self.host.snapshot_state(&mut out);
            self.buffer.snapshot_state(&mut out);
            self.down.snapshot_state(&mut out);
            self.up.snapshot_state(&mut out);
            self.now.persist(&mut out);
            out
        }
    }

    #[test]
    fn a_fresh_link_settles_into_the_steady_state() {
        let mut link = Link::new(64);
        let now = link.now;
        assert!(!link.idle().is_steady(now), "nothing sent yet");
        for _ in 0..8 {
            link.step();
        }
        let now = link.now;
        assert!(link.idle().is_steady(now));
        // A wire image in flight is never steady, even a clean one, until
        // both frames in flight ride as frames again.
        link.step_bytes();
        for _ in 0..2 {
            let now = link.now;
            assert!(!link.idle().is_steady(now), "a wire image in flight");
            link.step();
        }
        let now = link.now;
        assert!(link.idle().is_steady(now));
        // A queued payload ends it.
        link.host.enqueue(DownstreamPayload::Idle);
        assert!(!link.idle().is_steady(now));
    }

    #[test]
    fn skipping_equals_stepping_across_sequence_wraps() {
        // A 16-record ring wraps within four slots, so the skip's
        // eviction is checked as well as its fingerprint.
        for (ring, k) in [64, 16]
            .into_iter()
            .flat_map(|ring| [2, 3, 127, 128, 129, 1_000].map(|k| (ring, k)))
        {
            let (mut stepped, mut skipped) = (Link::new(ring), Link::new(ring));
            for _ in 0..8 {
                stepped.step();
                skipped.step();
            }
            for _ in 0..k {
                stepped.step();
            }
            let (now, tracer) = (skipped.now, skipped.tracer.clone());
            skipped.idle().skip(now, k, &tracer);
            skipped.now += skipped.slot() * k;
            assert!(stepped.image() == skipped.image(), "k={k}: state differs");
            assert_eq!(
                stepped.tracer.render(),
                skipped.tracer.render(),
                "ring={ring} k={k}"
            );
            // Both keep running identically afterwards.
            for _ in 0..4 {
                stepped.step();
                skipped.step();
            }
            assert!(stepped.image() == skipped.image(), "k={k}: diverged later");
            assert_eq!(stepped.tracer.fingerprint(), skipped.tracer.fingerprint());
        }
    }
}
