//! Clean frames ride the DMI wire as frames, and only a corrupted frame
//! rides as its scrambled, CRC-sealed wire image. This checks that the
//! shortcut changes nothing: two identical links, one driven through
//! the byte API (`tick_tx`, `transmit`, `receive`, `on_receive`, which
//! serialize, scramble and decode every frame) and one through the
//! frame API (`tick_tx_frame`, `transmit_frame`, `receive_frame`,
//! `on_receive_frame`), are compared after every slot: endpoint and
//! wire snapshot images, delivered payloads, corrupted-frame counts
//! and trace fingerprints. A snapshot taken mid-flight and restored
//! into a fresh link continues identically as well.

use contutto_system::dmi::command::{RmwOp, Tag};
use contutto_system::dmi::frame::{
    CommandHeader, ControlKind, DownstreamFrame, DownstreamPayload, UpstreamFrame, UpstreamPayload,
};
use contutto_system::dmi::link::{BitErrorInjector, LinkSegment, LinkSpeed};
use contutto_system::dmi::protocol::{
    BufferEndpoint, HostEndpoint, LinkEndpoint, LinkEndpointConfig,
};
use contutto_system::sim::{SimTime, SnapReader, Tracer};

const SLOTS: u64 = 1_500;
/// The slot after which the mid-flight snapshot is taken.
const SNAPSHOT_AT: u64 = 300;

fn tag(raw: u8) -> Tag {
    Tag::new(raw).expect("tag in range")
}

fn controls() -> [ControlKind; 3] {
    [
        ControlKind::TrainingPattern {
            stage: 2,
            value: 0xDEAD_BEEF,
        },
        ControlKind::FrtlProbe { signature: 7 },
        ControlKind::FrtlEcho { signature: 9 },
    ]
}

/// Every downstream payload kind: each command header (every RMW op
/// included), a write-data beat and each control kind.
fn downstream_payloads() -> Vec<DownstreamPayload> {
    let mut headers = vec![
        CommandHeader::Read { addr: 0x1000 },
        CommandHeader::Write { addr: 0x2080 },
        CommandHeader::Flush,
    ];
    headers.extend(
        [
            RmwOp::PartialWrite { sector_mask: 0xA5 },
            RmwOp::AtomicAdd,
            RmwOp::MinStore,
            RmwOp::MaxStore,
            RmwOp::ConditionalSwap,
        ]
        .map(|op| CommandHeader::Rmw { addr: 0x3000, op }),
    );
    let mut payloads: Vec<DownstreamPayload> = headers
        .into_iter()
        .enumerate()
        .map(|(i, header)| DownstreamPayload::Command {
            tag: tag(i as u8),
            header,
        })
        .collect();
    payloads.push(DownstreamPayload::WriteData {
        tag: tag(1),
        beat: 7,
        data: [0x5A; 16],
    });
    payloads.extend(controls().map(DownstreamPayload::Control));
    payloads
}

/// Every upstream payload kind: read data with and without poison,
/// done with one and with two tags, and each control kind.
fn upstream_payloads() -> Vec<UpstreamPayload> {
    let mut payloads = vec![
        UpstreamPayload::ReadData {
            tag: tag(3),
            beat: 0,
            data: [0xC3; 32],
            poison: false,
        },
        UpstreamPayload::ReadData {
            tag: tag(4),
            beat: 3,
            data: [0x3C; 32],
            poison: true,
        },
        UpstreamPayload::Done {
            first: tag(5),
            second: None,
        },
        UpstreamPayload::Done {
            first: tag(6),
            second: Some(tag(31)),
        },
    ];
    payloads.extend(controls().map(UpstreamPayload::Control));
    payloads
}

/// One link: both endpoints, both wires, a tracer and what each side
/// has received so far.
struct Link {
    host: HostEndpoint,
    buffer: BufferEndpoint,
    down: LinkSegment<DownstreamFrame>,
    up: LinkSegment<UpstreamFrame>,
    tracer: Tracer,
    now: SimTime,
    to_buffer: Vec<DownstreamPayload>,
    to_host: Vec<UpstreamPayload>,
}

impl Link {
    fn new(buffer_cfg: &LinkEndpointConfig, down: BitErrorInjector, up: BitErrorInjector) -> Link {
        let tracer = Tracer::ring(256);
        let mut host = LinkEndpoint::new(LinkEndpointConfig::host());
        let mut buffer = LinkEndpoint::new(buffer_cfg.clone());
        host.attach_tracer(tracer.clone());
        buffer.attach_tracer(tracer.clone());
        let latency = SimTime::from_ns(1);
        Link {
            host,
            buffer,
            down: LinkSegment::new(LinkSpeed::Gbps8, latency, down),
            up: LinkSegment::new(LinkSpeed::Gbps8, latency, up),
            tracer,
            now: SimTime::ZERO,
            to_buffer: Vec::new(),
            to_host: Vec::new(),
        }
    }

    fn enqueue_all(&mut self) {
        for p in downstream_payloads() {
            self.host.enqueue(p);
        }
        for p in upstream_payloads() {
            self.buffer.enqueue(p);
        }
    }

    /// One slot in the channel's order, through the byte API.
    fn step_bytes(&mut self) {
        let now = self.now;
        self.tracer.advance(now);
        self.down.transmit(now, self.host.tick_tx());
        while let Some(bytes) = self.down.receive(now) {
            self.to_buffer.extend(self.buffer.on_receive(&bytes));
        }
        self.up.transmit(now, self.buffer.tick_tx());
        while let Some(bytes) = self.up.receive(now) {
            self.to_host.extend(self.host.on_receive(&bytes));
        }
        self.now += LinkSpeed::Gbps8.frame_time();
    }

    /// One slot in the channel's order, through the frame API.
    fn step_frames(&mut self) {
        let now = self.now;
        self.tracer.advance(now);
        self.down.transmit_frame(now, self.host.tick_tx_frame());
        while let Some(arrival) = self.down.receive_frame(now) {
            self.to_buffer.extend(self.buffer.on_receive_frame(arrival));
        }
        self.up.transmit_frame(now, self.buffer.tick_tx_frame());
        while let Some(arrival) = self.up.receive_frame(now) {
            self.to_host.extend(self.host.on_receive_frame(arrival));
        }
        self.now += LinkSpeed::Gbps8.frame_time();
    }

    /// Endpoint and wire snapshot images.
    fn image(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.host.snapshot_state(&mut out);
        self.buffer.snapshot_state(&mut out);
        self.down.snapshot_state(&mut out);
        self.up.snapshot_state(&mut out);
        out
    }

    /// A fresh link with this one's state restored into it, trace
    /// included.
    fn restored(&self, buffer_cfg: &LinkEndpointConfig) -> Link {
        let mut fresh = Link::new(
            buffer_cfg,
            BitErrorInjector::never(),
            BitErrorInjector::never(),
        );
        let image = self.image();
        let mut r = SnapReader::new(&image);
        fresh.host.restore_state(&mut r).expect("host restores");
        fresh.buffer.restore_state(&mut r).expect("buffer restores");
        fresh
            .down
            .restore_state(&mut r)
            .expect("down wire restores");
        fresh.up.restore_state(&mut r).expect("up wire restores");
        let mut trace = Vec::new();
        self.tracer.snapshot_state(&mut trace);
        fresh
            .tracer
            .restore_state(&mut SnapReader::new(&trace))
            .expect("trace restores");
        fresh.now = self.now;
        fresh.to_buffer = self.to_buffer.clone();
        fresh.to_host = self.to_host.clone();
        fresh
    }

    fn assert_same(&self, reference: &Link, what: &str) {
        assert!(self.image() == reference.image(), "{what}: images differ");
        assert_eq!(
            self.to_buffer, reference.to_buffer,
            "{what}: downstream delivery"
        );
        assert_eq!(self.to_host, reference.to_host, "{what}: upstream delivery");
        assert_eq!(
            (self.down.frames_corrupted(), self.up.frames_corrupted()),
            (
                reference.down.frames_corrupted(),
                reference.up.frames_corrupted()
            ),
            "{what}: corrupted frames"
        );
        assert_eq!(
            self.tracer.fingerprint(),
            reference.tracer.fingerprint(),
            "{what}: trace fingerprint"
        );
    }
}

fn injector_cases() -> Vec<(&'static str, BitErrorInjector, BitErrorInjector)> {
    vec![
        (
            "never",
            BitErrorInjector::never(),
            BitErrorInjector::never(),
        ),
        (
            // Consecutive ordinals, so errors land during replays, and
            // ordinal SNAPSHOT_AT - 1 downstream, so the snapshot holds
            // a corrupted frame in flight.
            "scheduled",
            BitErrorInjector::at_frames(vec![3, 4, 5, 40, 41, 299, 700]),
            BitErrorInjector::at_frames(vec![6, 7, 8, 60, 61, 62, 450]),
        ),
        (
            "random",
            BitErrorInjector::bernoulli(0.03, 11),
            BitErrorInjector::bernoulli(0.03, 12),
        ),
    ]
}

#[test]
fn the_frame_api_matches_the_byte_api_slot_by_slot() {
    let configs = [
        ("centaur", LinkEndpointConfig::centaur_buffer()),
        ("contutto-freeze", LinkEndpointConfig::contutto_buffer()),
    ];
    for (buffer_name, buffer_cfg) in &configs {
        for (injector_name, down, up) in injector_cases() {
            let mut bytes = Link::new(buffer_cfg, down.clone(), up.clone());
            let mut frames = Link::new(buffer_cfg, down, up);
            let mut restored: Option<Link> = None;
            for slot in 0..SLOTS {
                if slot % 500 == 0 {
                    for link in [&mut bytes, &mut frames].into_iter().chain(&mut restored) {
                        link.enqueue_all();
                    }
                }
                bytes.step_bytes();
                frames.step_frames();
                let what = format!("{buffer_name}/{injector_name} slot {slot}");
                frames.assert_same(&bytes, &what);
                if slot + 1 == SNAPSHOT_AT {
                    restored = Some(frames.restored(buffer_cfg));
                } else if let Some(link) = restored.as_mut() {
                    link.step_frames();
                    link.assert_same(&bytes, &format!("restored {what}"));
                }
            }
            // Every payload arrived, exactly once and in order.
            let sent_down: Vec<_> = (0..3).flat_map(|_| downstream_payloads()).collect();
            let sent_up: Vec<_> = (0..3).flat_map(|_| upstream_payloads()).collect();
            let delivered_down: Vec<_> = frames
                .to_buffer
                .iter()
                .filter(|p| **p != DownstreamPayload::Idle)
                .cloned()
                .collect();
            let delivered_up: Vec<_> = frames
                .to_host
                .iter()
                .filter(|p| **p != UpstreamPayload::Idle)
                .cloned()
                .collect();
            assert_eq!(delivered_down, sent_down, "{buffer_name}/{injector_name}");
            assert_eq!(delivered_up, sent_up, "{buffer_name}/{injector_name}");
            let corrupted = frames.down.frames_corrupted() + frames.up.frames_corrupted();
            let replays =
                frames.host.stats().replays_triggered + frames.buffer.stats().replays_triggered;
            if injector_name == "never" {
                assert_eq!((corrupted, replays), (0, 0));
            } else {
                assert!(
                    corrupted > 0 && replays > 0,
                    "{buffer_name}/{injector_name}"
                );
            }
        }
    }
}
