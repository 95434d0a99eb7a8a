//! The physical DMI channel.
//!
//! A [`LinkSegment`] is one direction of the channel: it carries frames
//! with a fixed wire + serialization latency, and can corrupt bits in
//! flight via a [`BitErrorInjector`] (the channel is "short reach ...
//! up to 21dB" — errors are rare but real, which is why the replay
//! machinery of paper §2.3 exists).
//!
//! This module is the only one that knows the wire format: a frame's
//! wire image is its CRC-sealed serialization, scrambled with the
//! trained keystream (`encode`, `decode`). A clean frame's bytes
//! cannot change any outcome, so a frame the injector leaves alone
//! rides the wire as the frame itself. A frame the injector corrupts
//! rides as its scrambled wire image with one real bit flipped, and
//! the receiver descrambles it and checks its CRC as hardware would.

use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};
use contutto_sim::{DelayQueue, SimRng, SimTime};

use crate::error::DmiError;
use crate::protocol::WireFrame;
use crate::scramble::{apply_trained, KEYSTREAM_LEN};

/// Link speed grades of the DMI channel.
///
/// Paper §3.3(i): "The DMI links on POWER8 can run at link speeds of
/// up to 9.6 GHz. When using ConTutto, we run the links at 8 GHz."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkSpeed {
    /// 8 Gb/s per lane — the ConTutto operating point.
    Gbps8,
    /// 9.6 Gb/s per lane — the Centaur operating point.
    Gbps9_6,
}

impl LinkSpeed {
    /// Duration of one unit interval (UI) on a lane, in picoseconds.
    pub fn ui_ps(self) -> u64 {
        match self {
            LinkSpeed::Gbps8 => 125,
            LinkSpeed::Gbps9_6 => 104, // 104.17 ps, rounded; <0.2 % error
        }
    }

    /// Time for one 16-UI frame to cross the serializer.
    pub fn frame_time(self) -> SimTime {
        SimTime::from_ps(self.ui_ps() * 16)
    }

    /// Aggregate raw bandwidth of a direction with `lanes` lanes, in
    /// bytes/second.
    pub fn raw_bandwidth_bytes_per_sec(self, lanes: u32) -> f64 {
        let gbps = match self {
            LinkSpeed::Gbps8 => 8.0,
            LinkSpeed::Gbps9_6 => 9.6,
        };
        gbps * 1e9 * f64::from(lanes) / 8.0
    }
}

/// Deterministic bit-error injection policy for a link direction.
#[derive(Debug, Clone)]
pub enum BitErrorInjector {
    /// Never corrupt (the default).
    Never,
    /// Corrupt exactly the frames with these ordinals (0-based count of
    /// frames pushed onto the segment), flipping one bit each. Kept
    /// sorted so the per-transmit lookup is a binary search, not a scan.
    AtFrames(Vec<u64>),
    /// Corrupt each frame independently with probability `p`, using a
    /// seeded RNG (deterministic across runs).
    Bernoulli {
        /// Per-frame corruption probability.
        p: f64,
        /// RNG used to decide corruption and bit position.
        rng: SimRng,
    },
}

impl BitErrorInjector {
    /// An injector that never corrupts.
    pub fn never() -> Self {
        BitErrorInjector::Never
    }

    /// An injector corrupting exactly the given frame ordinals. The
    /// schedule is sorted once here so each transmit-path lookup is
    /// O(log n) even for long fault schedules.
    pub fn at_frames(mut frames: Vec<u64>) -> Self {
        frames.sort_unstable();
        frames.dedup();
        BitErrorInjector::AtFrames(frames)
    }

    /// A seeded random injector with per-frame error probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn bernoulli(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        BitErrorInjector::Bernoulli {
            p,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Possibly corrupts `bytes` (frame ordinal `ordinal`). Returns
    /// `true` if a bit was flipped. Every frame slot carries a full
    /// serialized frame, idles included, so on a channel `bytes` is
    /// never empty; an empty buffer (only a raw [`LinkSegment`] user
    /// can send one) has no bit to flip and is always left alone.
    pub fn maybe_corrupt(&mut self, ordinal: u64, bytes: &mut [u8]) -> bool {
        match self.corrupt_bit(ordinal, bytes.len()) {
            Some(bit) => {
                bytes[bit / 8] ^= 1 << (bit % 8);
                true
            }
            None => false,
        }
    }

    /// Decides whether frame `ordinal`, `len` bytes on the wire, is
    /// corrupted, and if so which bit flips. This is the one decision
    /// behind [`BitErrorInjector::maybe_corrupt`], with the same random
    /// draws in the same order, so a caller can decide before it builds
    /// any bytes. A `Bernoulli` injector draws for an empty frame too,
    /// so that whether a frame is empty does not shift the decisions
    /// for later frames, but never corrupts it.
    pub(crate) fn corrupt_bit(&mut self, ordinal: u64, len: usize) -> Option<usize> {
        let bits = len * 8;
        match self {
            BitErrorInjector::Never => None,
            // Flip a bit at a position derived from the ordinal,
            // deterministically.
            BitErrorInjector::AtFrames(frames) => (bits > 0
                && frames.binary_search(&ordinal).is_ok())
            .then(|| (ordinal as usize * 7) % bits),
            BitErrorInjector::Bernoulli { p, rng } => {
                (rng.gen_bool(*p) && bits > 0).then(|| rng.gen_index(bits))
            }
        }
    }

    /// How many consecutive non-empty frames from ordinal `from` on
    /// this injector leaves clean, looking at most `limit` frames
    /// ahead. A `Bernoulli` injector draws ahead on a copy of its RNG,
    /// so the injector itself does not move.
    pub(crate) fn clean_frames(&self, from: u64, limit: u64) -> u64 {
        match self {
            BitErrorInjector::Never => limit,
            BitErrorInjector::AtFrames(frames) => {
                let next = frames.partition_point(|&o| o < from);
                frames.get(next).map_or(limit, |&o| (o - from).min(limit))
            }
            BitErrorInjector::Bernoulli { p, rng } => {
                let mut ahead = rng.clone();
                (0..limit).find(|_| ahead.gen_bool(*p)).unwrap_or(limit)
            }
        }
    }

    /// Moves the injector past `n` non-empty frames that
    /// [`BitErrorInjector::clean_frames`] found clean, leaving it
    /// exactly where corrupt-checking them one by one would have.
    pub(crate) fn skip_clean(&mut self, n: u64) {
        if let BitErrorInjector::Bernoulli { p, rng } = self {
            for _ in 0..n {
                let corrupt = rng.gen_bool(*p);
                debug_assert!(!corrupt, "skipped a frame the injector corrupts");
            }
        }
    }
}

impl Persist for BitErrorInjector {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            BitErrorInjector::Never => out.push(0),
            BitErrorInjector::AtFrames(frames) => {
                out.push(1);
                frames.persist(out);
            }
            BitErrorInjector::Bernoulli { p, rng } => {
                out.push(2);
                p.persist(out);
                rng.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(match r.u8()? {
            0 => BitErrorInjector::Never,
            1 => {
                let frames = Vec::<u64>::restore(r)?;
                if frames.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(RestoreError::Malformed {
                        context: "fault schedule not sorted",
                    });
                }
                BitErrorInjector::AtFrames(frames)
            }
            2 => {
                let p = r.f64()?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(RestoreError::Malformed {
                        context: "error probability out of range",
                    });
                }
                BitErrorInjector::Bernoulli {
                    p,
                    rng: SimRng::restore(r)?,
                }
            }
            _ => {
                return Err(RestoreError::Malformed {
                    context: "BitErrorInjector discriminant",
                })
            }
        })
    }
}

/// The wire image of `frame`: its serialization, CRC included,
/// scrambled with the trained keystream.
pub(crate) fn encode<F: WireFrame>(frame: &F) -> Vec<u8> {
    let mut bytes = frame.serialize();
    apply_trained(&mut bytes);
    bytes
}

/// Descrambles a wire image and parses the frame in it, checking the
/// CRC. Allocation-free: the descrambled copy lives on the stack.
///
/// # Errors
///
/// [`DmiError::MalformedFrame`] when `bytes` is not exactly one frame
/// long or does not decode, [`DmiError::CrcMismatch`] on a CRC failure.
pub(crate) fn decode<F: WireFrame>(bytes: &[u8]) -> Result<F, DmiError> {
    if bytes.len() != F::WIRE_BYTES {
        return Err(DmiError::MalformedFrame("wrong frame size"));
    }
    let mut buf = [0u8; KEYSTREAM_LEN];
    let descrambled = &mut buf[..bytes.len()];
    descrambled.copy_from_slice(bytes);
    apply_trained(descrambled);
    F::deserialize(descrambled)
}

/// One entry in flight on a [`LinkSegment`].
#[derive(Debug)]
enum OnWire<F> {
    /// A frame the injector left clean, which the receiver gets back
    /// exactly as sent.
    Frame(F),
    /// A scrambled wire image: a corrupted frame, bytes a caller sent
    /// with [`LinkSegment::transmit`], or an entry restored from a
    /// snapshot.
    Bytes(Vec<u8>),
}

impl<F: WireFrame> OnWire<F> {
    fn into_bytes(self) -> Vec<u8> {
        match self {
            OnWire::Frame(frame) => encode(&frame),
            OnWire::Bytes(bytes) => bytes,
        }
    }

    fn into_frame(self) -> Result<F, DmiError> {
        match self {
            OnWire::Frame(frame) => Ok(frame),
            OnWire::Bytes(bytes) => decode(&bytes),
        }
    }
}

/// Every entry persists as its wire image, however it rides, and is
/// restored as bytes.
impl<F: WireFrame> Persist for OnWire<F> {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            OnWire::Frame(frame) => encode(frame).persist(out),
            OnWire::Bytes(bytes) => bytes.persist(out),
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(OnWire::Bytes(Vec::restore(r)?))
    }
}

/// One direction of a DMI channel: a latency pipe for frames of type
/// `F`, with error injection and frame accounting.
///
/// # Example
///
/// ```
/// use contutto_dmi::{BitErrorInjector, DownstreamFrame, DownstreamPayload, LinkSegment, LinkSpeed};
/// use contutto_sim::SimTime;
///
/// let mut seg: LinkSegment<DownstreamFrame> =
///     LinkSegment::new(LinkSpeed::Gbps8, SimTime::from_ns(1), BitErrorInjector::never());
/// let frame = DownstreamFrame { seq: 0, ack: None, payload: DownstreamPayload::Idle };
/// seg.transmit_frame(SimTime::ZERO, frame.clone());
/// // Wire latency (1 ns) + serialization of one frame (2 ns) = 3 ns.
/// assert!(seg.receive_frame(SimTime::from_ns(2)).is_none());
/// assert_eq!(seg.receive_frame(SimTime::from_ns(3)), Some(Ok(frame)));
/// ```
#[derive(Debug)]
pub struct LinkSegment<F: WireFrame> {
    speed: LinkSpeed,
    wire: DelayQueue<OnWire<F>>,
    injector: BitErrorInjector,
    frames_sent: u64,
    frames_corrupted: u64,
}

impl<F: WireFrame> LinkSegment<F> {
    /// Creates a segment with the given speed, propagation latency and
    /// error injector. Total per-frame latency is the propagation
    /// latency plus one frame serialization time.
    pub fn new(speed: LinkSpeed, propagation: SimTime, injector: BitErrorInjector) -> Self {
        LinkSegment {
            speed,
            wire: DelayQueue::with_latency(propagation + speed.frame_time()),
            injector,
            frames_sent: 0,
            frames_corrupted: 0,
        }
    }

    /// The link speed.
    pub fn speed(&self) -> LinkSpeed {
        self.speed
    }

    /// Pushes a frame onto the wire at time `now`. The injector decides
    /// first, exactly as [`LinkSegment::transmit`] would for the
    /// frame's wire image. A clean frame rides as itself: nothing is
    /// encoded, sealed or allocated. A corrupted one is encoded and
    /// rides as its wire image with the chosen bit flipped.
    pub fn transmit_frame(&mut self, now: SimTime, frame: F) {
        let entry = match self.injector.corrupt_bit(self.frames_sent, F::WIRE_BYTES) {
            None if frame.round_trips() => OnWire::Frame(frame),
            None => OnWire::Bytes(encode(&frame)),
            Some(bit) => {
                let mut bytes = encode(&frame);
                bytes[bit / 8] ^= 1 << (bit % 8);
                self.frames_corrupted += 1;
                OnWire::Bytes(bytes)
            }
        };
        self.frames_sent += 1;
        self.wire
            .push(now, entry)
            .expect("link segment is unbounded");
    }

    /// Pushes serialized (already scrambled) frame bytes onto the wire
    /// at time `now`.
    pub fn transmit(&mut self, now: SimTime, mut bytes: Vec<u8>) {
        if self.injector.maybe_corrupt(self.frames_sent, &mut bytes) {
            self.frames_corrupted += 1;
        }
        self.frames_sent += 1;
        self.wire
            .push(now, OnWire::Bytes(bytes))
            .expect("link segment is unbounded");
    }

    /// Pops the next frame if it has arrived by `now`: the frame
    /// itself, or the outcome of decoding the wire image it rode as.
    pub fn receive_frame(&mut self, now: SimTime) -> Option<Result<F, DmiError>> {
        self.wire.pop_ready(now).map(OnWire::into_frame)
    }

    /// Pops the wire image of the next frame if it has arrived by
    /// `now`.
    pub fn receive(&mut self, now: SimTime) -> Option<Vec<u8>> {
        self.wire.pop_ready(now).map(OnWire::into_bytes)
    }

    /// Time the next frame becomes available, if any is in flight.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.wire.next_ready_time()
    }

    /// Time the last frame in flight arrives, if any is in flight.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.wire.iter().last().map(|(at, _)| at)
    }

    /// Total per-frame latency: propagation plus one serialization.
    pub(crate) fn latency(&self) -> SimTime {
        self.wire.latency()
    }

    /// The entries in flight, oldest first, each with its arrival time
    /// and the frame, or `None` for one that rides as bytes.
    pub(crate) fn in_flight_frames(&self) -> impl Iterator<Item = (SimTime, Option<&F>)> {
        self.wire.iter().map(|(at, entry)| match entry {
            OnWire::Frame(frame) => (at, Some(frame)),
            OnWire::Bytes(_) => (at, None),
        })
    }

    /// How many frames, from the next transmit on, the injector leaves
    /// clean, looking at most `limit` frames ahead.
    pub(crate) fn clean_frames_ahead(&self, limit: u64) -> u64 {
        self.injector.clean_frames(self.frames_sent, limit)
    }

    /// Applies `k >= 2` transmit slots in closed form. The two frames
    /// in flight now arrive, and of the `k` frames sent only the last
    /// two are still in flight afterwards: `last_two` gives their
    /// transmit times and frames. The caller guarantees that the
    /// injector leaves all `k` frames clean
    /// ([`LinkSegment::clean_frames_ahead`]).
    pub(crate) fn skip_frames(&mut self, k: u64, last_two: [(SimTime, F); 2]) {
        debug_assert!(k >= 2 && self.wire.len() == 2);
        self.injector.skip_clean(k);
        self.frames_sent += k;
        self.wire.clear();
        for (sent, frame) in last_two {
            self.wire
                .push(sent, OnWire::Frame(frame))
                .expect("link segment is unbounded");
        }
    }

    /// Frames transmitted since construction.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Frames corrupted by the injector since construction.
    pub fn frames_corrupted(&self) -> u64 {
        self.frames_corrupted
    }

    /// Number of frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.wire.len()
    }

    /// Replaces the error injector (e.g. to stop injecting after a
    /// fault-injection phase).
    pub fn set_injector(&mut self, injector: BitErrorInjector) {
        self.injector = injector;
    }

    fn latency_matches(&self, wire: &DelayQueue<OnWire<F>>) -> Result<(), RestoreError> {
        if wire.latency() != self.wire.latency() {
            return Err(RestoreError::TopologyMismatch {
                context: "link segment latency",
            });
        }
        Ok(())
    }

    contutto_sim::state_fields! {
        /// Serializes the segment's dynamic state (in-flight frames,
        /// each as its wire image, injector, frame accounting). Restored
        /// frames ride as their wire images until they are delivered.
        /// The speed grade is a construction parameter and is not
        /// persisted; the wire latency it implies is cross-checked on
        /// restore instead.
        pub {
            wire if Self::latency_matches,
            injector,
            frames_sent,
            frames_corrupted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{DownstreamFrame, DownstreamPayload};

    type Seg = LinkSegment<DownstreamFrame>;

    #[test]
    fn speed_constants() {
        assert_eq!(LinkSpeed::Gbps8.frame_time(), SimTime::from_ps(2000));
        assert_eq!(LinkSpeed::Gbps9_6.frame_time(), SimTime::from_ps(1664));
        // Downstream: 14 lanes at 8 Gb/s = 14 GB/s raw; the paper's
        // "35 GB/s per link aggregate" counts both directions at 9.6.
        let down = LinkSpeed::Gbps9_6.raw_bandwidth_bytes_per_sec(14);
        let up = LinkSpeed::Gbps9_6.raw_bandwidth_bytes_per_sec(21);
        assert!((down + up) / 1e9 > 35.0);
    }

    #[test]
    fn delivers_in_order_with_latency() {
        let mut seg = Seg::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::never(),
        );
        seg.transmit(SimTime::ZERO, vec![1]);
        seg.transmit(SimTime::from_ns(2), vec![2]);
        assert_eq!(seg.in_flight(), 2);
        assert_eq!(seg.receive(SimTime::from_ns(2)), None);
        assert_eq!(seg.receive(SimTime::from_ns(3)), Some(vec![1]));
        assert_eq!(seg.receive(SimTime::from_ns(4)), None);
        assert_eq!(seg.receive(SimTime::from_ns(5)), Some(vec![2]));
    }

    #[test]
    fn at_frames_injector_corrupts_exactly_those() {
        let mut seg = Seg::new(
            LinkSpeed::Gbps8,
            SimTime::ZERO,
            BitErrorInjector::at_frames(vec![1]),
        );
        let payload = vec![0u8; 28];
        seg.transmit(SimTime::ZERO, payload.clone());
        seg.transmit(SimTime::ZERO, payload.clone());
        seg.transmit(SimTime::ZERO, payload.clone());
        assert_eq!(seg.frames_corrupted(), 1);
        let t = SimTime::from_ns(10);
        assert_eq!(seg.receive(t), Some(payload.clone())); // frame 0 clean
        assert_ne!(seg.receive(t), Some(payload.clone())); // frame 1 corrupted
        assert_eq!(seg.receive(t), Some(payload)); // frame 2 clean
    }

    #[test]
    fn bernoulli_injector_is_deterministic() {
        let run = || {
            let mut inj = BitErrorInjector::bernoulli(0.3, 42);
            let mut outcomes = Vec::new();
            for i in 0..50 {
                let mut buf = vec![0u8; 28];
                outcomes.push(inj.maybe_corrupt(i, &mut buf));
            }
            outcomes
        };
        assert_eq!(run(), run());
        assert!(
            run().iter().any(|&c| c),
            "p=0.3 over 50 frames should corrupt"
        );
    }

    #[test]
    fn bernoulli_zero_never_corrupts() {
        let mut inj = BitErrorInjector::bernoulli(0.0, 1);
        let mut buf = vec![0xFFu8; 28];
        for i in 0..100 {
            assert!(!inj.maybe_corrupt(i, &mut buf));
        }
        assert_eq!(buf, vec![0xFF; 28]);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bernoulli_validates_p() {
        let _ = BitErrorInjector::bernoulli(1.5, 0);
    }

    #[test]
    fn empty_payloads_are_never_corrupted() {
        // Regression: `(ordinal * 7) % (len * 8)` divided by zero and
        // the Bernoulli draw sampled an empty range when a zero-length
        // payload crossed the injector.
        let mut empty = Vec::new();
        let mut scheduled = BitErrorInjector::at_frames(vec![0, 1, 2]);
        assert!(!scheduled.maybe_corrupt(1, &mut empty));
        let mut noisy = BitErrorInjector::bernoulli(1.0, 7);
        assert!(!noisy.maybe_corrupt(0, &mut empty));
        let mut never = BitErrorInjector::never();
        assert!(!never.maybe_corrupt(0, &mut empty));
        // And a segment transmit of an empty frame survives end to end.
        let mut seg = Seg::new(
            LinkSpeed::Gbps8,
            SimTime::ZERO,
            BitErrorInjector::bernoulli(1.0, 7),
        );
        seg.transmit(SimTime::ZERO, Vec::new());
        assert_eq!(seg.frames_corrupted(), 0);
        assert_eq!(seg.receive(SimTime::from_ns(10)), Some(Vec::new()));
    }

    #[test]
    fn empty_frames_do_not_shift_bernoulli_decisions() {
        let decide = |lengths: &[usize]| {
            let mut inj = BitErrorInjector::bernoulli(0.5, 3);
            lengths
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let mut buf = vec![0u8; len];
                    inj.maybe_corrupt(i as u64, &mut buf)
                })
                .collect::<Vec<_>>()
        };
        let with_gap = decide(&[28, 0, 28, 28]);
        let without_gap = decide(&[28, 28, 28, 28]);
        // The empty slot itself never corrupts, and the frames after it
        // see the same coin flips either way.
        assert!(!with_gap[1]);
        assert_eq!(with_gap[2..], without_gap[2..]);
    }

    #[test]
    fn snapshot_restores_in_flight_frames_and_rng() {
        let mut seg = Seg::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::bernoulli(0.3, 9),
        );
        for i in 0..10u8 {
            seg.transmit(SimTime::from_ns(u64::from(i)), vec![i; 28]);
        }
        let mut image = Vec::new();
        seg.snapshot_state(&mut image);
        let mut fresh = Seg::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::never(),
        );
        fresh
            .restore_state(&mut SnapReader::new(&image))
            .expect("restore");
        assert_eq!(fresh.frames_sent(), seg.frames_sent());
        assert_eq!(fresh.frames_corrupted(), seg.frames_corrupted());
        // Drained frames and future corruption decisions are identical.
        let t = SimTime::from_secs(1);
        loop {
            let (a, b) = (seg.receive(t), fresh.receive(t));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        for i in 10..30u8 {
            let now = SimTime::from_ns(u64::from(i));
            seg.transmit(now, vec![i; 28]);
            fresh.transmit(now, vec![i; 28]);
        }
        assert_eq!(seg.frames_corrupted(), fresh.frames_corrupted());
    }

    #[test]
    fn frames_ride_as_frames_until_the_injector_corrupts_one() {
        let frame = |seq| DownstreamFrame {
            seq,
            ack: Some(seq),
            payload: DownstreamPayload::Idle,
        };
        let (mut framed, mut bytes) = (
            Seg::new(
                LinkSpeed::Gbps8,
                SimTime::ZERO,
                BitErrorInjector::at_frames(vec![1]),
            ),
            Seg::new(
                LinkSpeed::Gbps8,
                SimTime::ZERO,
                BitErrorInjector::at_frames(vec![1]),
            ),
        );
        for seq in 0..3 {
            framed.transmit_frame(SimTime::ZERO, frame(seq));
            bytes.transmit(SimTime::ZERO, encode(&frame(seq)));
        }
        let kinds: Vec<bool> = framed
            .in_flight_frames()
            .map(|(_, f)| f.is_some())
            .collect();
        assert_eq!(kinds, [true, false, true], "only frame 1 rides as bytes");
        assert_eq!(framed.frames_corrupted(), bytes.frames_corrupted());
        let t = SimTime::from_ns(10);
        assert_eq!(framed.receive_frame(t), Some(Ok(frame(0))));
        assert_eq!(bytes.receive_frame(t), Some(Ok(frame(0))));
        // The corrupted frame flipped the bit the byte path flips.
        let (a, b) = (framed.receive(t).unwrap(), bytes.receive(t).unwrap());
        assert_eq!(a, b);
        assert!(matches!(
            decode::<DownstreamFrame>(&a),
            Err(DmiError::CrcMismatch { .. })
        ));
        assert_eq!(framed.receive(t), Some(encode(&frame(2))));
        // A frame the wire cannot carry as itself rides as its bytes.
        let mut odd = Seg::new(LinkSpeed::Gbps8, SimTime::ZERO, BitErrorInjector::never());
        odd.transmit_frame(SimTime::ZERO, frame(200));
        assert!(odd.in_flight_frames().all(|(_, f)| f.is_none()));
        assert_eq!(odd.receive_frame(t), Some(Ok(frame(200 % 128))));
    }

    #[test]
    fn restore_rejects_mismatched_speed() {
        let seg = Seg::new(
            LinkSpeed::Gbps8,
            SimTime::from_ns(1),
            BitErrorInjector::never(),
        );
        let mut image = Vec::new();
        seg.snapshot_state(&mut image);
        let mut wrong = Seg::new(
            LinkSpeed::Gbps9_6,
            SimTime::from_ns(1),
            BitErrorInjector::never(),
        );
        assert!(matches!(
            wrong.restore_state(&mut SnapReader::new(&image)),
            Err(RestoreError::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn clean_frames_looks_ahead_without_moving_the_injector() {
        let scheduled = BitErrorInjector::at_frames(vec![9, 5]);
        assert_eq!(scheduled.clean_frames(0, 100), 5);
        assert_eq!(scheduled.clean_frames(5, 100), 0);
        assert_eq!(scheduled.clean_frames(6, 100), 3);
        assert_eq!(scheduled.clean_frames(6, 2), 2);
        assert_eq!(scheduled.clean_frames(10, 100), 100);
        assert_eq!(BitErrorInjector::never().clean_frames(0, 7), 7);
        assert_eq!(BitErrorInjector::bernoulli(1.0, 3).clean_frames(0, 7), 0);

        // Bernoulli: the look-ahead finds the first corrupted frame, and
        // skipping the clean ones leaves the injector where corrupt-
        // checking them one by one does.
        let mut skipped = BitErrorInjector::bernoulli(0.05, 11);
        let mut checked = skipped.clone();
        let clean = skipped.clean_frames(0, 1_000);
        assert!(clean > 0 && clean < 1_000, "clean run {clean}");
        skipped.skip_clean(clean);
        for i in 0..clean {
            assert!(!checked.maybe_corrupt(i, &mut [0u8; 28]), "frame {i}");
        }
        for i in clean..clean + 200 {
            let (mut a, mut b) = ([0u8; 28], [0u8; 28]);
            assert_eq!(
                skipped.maybe_corrupt(i, &mut a),
                checked.maybe_corrupt(i, &mut b)
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn at_frames_accepts_unsorted_schedules() {
        let mut inj = BitErrorInjector::at_frames(vec![9, 3, 7, 3]);
        let hits: Vec<u64> = (0..12)
            .filter(|&i| {
                let mut buf = vec![0u8; 28];
                inj.maybe_corrupt(i, &mut buf)
            })
            .collect();
        assert_eq!(hits, vec![3, 7, 9]);
    }
}
