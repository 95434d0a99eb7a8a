//! DMI frame formats.
//!
//! Paper §2.2: "Commands and memory store data are interspersed within
//! synchronous packets, four of which constitute a frame. Owing to the
//! difference in the number of upstream and downstream signals, the
//! upstream and downstream frames use different formats."
//!
//! We model one frame as the unit of transmission:
//!
//! * **Downstream** (processor → buffer): 14 lanes × 16 UI = 224 bits =
//!   28 bytes. Layout: `seq(1) ack(1) kind(1) payload(23) crc(2)`.
//!   A 128 B write is one command frame plus eight 16-byte data beats.
//! * **Upstream** (buffer → processor): 21 lanes × 16 UI = 336 bits =
//!   42 bytes. Layout: `seq(1) ack(1) kind(1) payload(37) crc(2)`.
//!   A 128 B read response is four 32-byte data beats; *done* frames
//!   can carry completions for up to two tags (paper §3.3(iii): "the
//!   two upstream frames may contain completion notification from two
//!   separate command engines").
//!
//! Every frame serializes to real bytes; the CRC is computed over all
//! bytes preceding it. The `ack` byte embeds the ACK for the opposite
//! direction (paper §2.3): `0x80 | seq` acknowledges `seq`, `0x00`
//! carries no ACK.

use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};

use crate::command::{CacheLine, CommandOp, RmwOp, Tag};
use crate::crc::crc16;
use crate::error::DmiError;

/// Serialized size of a downstream frame in bytes.
pub const DOWNSTREAM_FRAME_BYTES: usize = 28;
/// Serialized size of an upstream frame in bytes.
pub const UPSTREAM_FRAME_BYTES: usize = 42;
/// Write-data beat size carried by one downstream frame.
pub const DOWNSTREAM_BEAT_BYTES: usize = 16;
/// Number of downstream data beats per 128 B line.
pub const DOWNSTREAM_BEATS_PER_LINE: usize = 8;
/// Read-data beat size carried by one upstream frame.
pub const UPSTREAM_BEAT_BYTES: usize = 32;
/// Number of upstream data beats per 128 B line.
pub const UPSTREAM_BEATS_PER_LINE: usize = 4;

/// Sequence IDs are 7 bits and wrap (top bit of the ack byte is the
/// valid flag).
pub const SEQ_MODULO: u8 = 128;

/// Control content usable in either direction, for link bring-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// Training pattern for bit/word/frame alignment; the stage is
    /// echoed back so the trainer can verify lock.
    TrainingPattern {
        /// Which alignment stage this pattern exercises.
        stage: u8,
        /// Pattern payload checked by the receiver.
        value: u32,
    },
    /// FRTL probe with a distinctive signature (paper §2.3: "FRTL is
    /// determined by transmission of frames with specific signatures").
    FrtlProbe {
        /// Signature echoed back by the far end.
        signature: u32,
    },
    /// Echo of an FRTL probe.
    FrtlEcho {
        /// The signature from the probe being echoed.
        signature: u32,
    },
}

/// Payload of a downstream (processor → buffer) frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownstreamPayload {
    /// No command this frame slot (the link always runs).
    Idle,
    /// A command header.
    Command {
        /// Tag of the command.
        tag: Tag,
        /// The operation (write/RMW data follows in later beats).
        header: CommandHeader,
    },
    /// One 16-byte beat of write data for an in-flight tag.
    WriteData {
        /// Tag of the write/RMW this beat belongs to.
        tag: Tag,
        /// Beat index (0..8).
        beat: u8,
        /// The 16 data bytes.
        data: [u8; DOWNSTREAM_BEAT_BYTES],
    },
    /// Link-control content.
    Control(ControlKind),
}

/// The address/op part of a command frame (the data, for writes,
/// arrives in separate beats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandHeader {
    /// Full-line read.
    Read {
        /// Line-aligned address.
        addr: u64,
    },
    /// Full-line write; 8 data beats follow.
    Write {
        /// Line-aligned address.
        addr: u64,
    },
    /// Read-modify-write; 8 data beats follow.
    Rmw {
        /// Line-aligned address.
        addr: u64,
        /// Merge operation.
        op: RmwOp,
    },
    /// Flush (ConTutto extension).
    Flush,
}

impl CommandHeader {
    /// Builds the header (without data) for a [`CommandOp`].
    pub fn from_op(op: &CommandOp) -> CommandHeader {
        match op {
            CommandOp::Read { addr } => CommandHeader::Read { addr: *addr },
            CommandOp::Write { addr, .. } => CommandHeader::Write { addr: *addr },
            CommandOp::Rmw { addr, op, .. } => CommandHeader::Rmw {
                addr: *addr,
                op: *op,
            },
            CommandOp::Flush => CommandHeader::Flush,
        }
    }

    /// Whether write-data beats follow this header.
    pub fn expects_data(&self) -> bool {
        matches!(
            self,
            CommandHeader::Write { .. } | CommandHeader::Rmw { .. }
        )
    }
}

/// A downstream frame ready for (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownstreamFrame {
    /// 7-bit sequence ID.
    pub seq: u8,
    /// ACK for the opposite direction, if any.
    pub ack: Option<u8>,
    /// The payload.
    pub payload: DownstreamPayload,
}

/// Payload of an upstream (buffer → processor) frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpstreamPayload {
    /// Nothing to report this slot.
    Idle,
    /// One 32-byte beat of read data.
    ReadData {
        /// Tag of the originating read.
        tag: Tag,
        /// Beat index (0..4).
        beat: u8,
        /// The 32 data bytes.
        data: [u8; UPSTREAM_BEAT_BYTES],
        /// Media ECC found the line uncorrectable; the data rides the
        /// frame but must not be consumed (poison bit, CRC-covered).
        poison: bool,
    },
    /// Completion notifications for one or two tags.
    Done {
        /// First completed tag.
        first: Tag,
        /// Optional second completed tag (two command engines may
        /// complete in the same cycle).
        second: Option<Tag>,
    },
    /// Link-control content.
    Control(ControlKind),
}

/// An upstream frame ready for (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpstreamFrame {
    /// 7-bit sequence ID.
    pub seq: u8,
    /// ACK for the opposite direction, if any.
    pub ack: Option<u8>,
    /// The payload.
    pub payload: UpstreamPayload,
}

fn ack_byte(ack: Option<u8>) -> u8 {
    match ack {
        Some(seq) => 0x80 | (seq % SEQ_MODULO),
        None => 0,
    }
}

fn parse_ack(byte: u8) -> Option<u8> {
    if byte & 0x80 != 0 {
        Some(byte & 0x7F)
    } else {
        None
    }
}

fn encode_control(kind: ControlKind, out: &mut [u8]) {
    match kind {
        ControlKind::TrainingPattern { stage, value } => {
            out[0] = 1;
            out[1] = stage;
            out[2..6].copy_from_slice(&value.to_le_bytes());
        }
        ControlKind::FrtlProbe { signature } => {
            out[0] = 2;
            out[1..5].copy_from_slice(&signature.to_le_bytes());
        }
        ControlKind::FrtlEcho { signature } => {
            out[0] = 3;
            out[1..5].copy_from_slice(&signature.to_le_bytes());
        }
    }
}

fn decode_control(bytes: &[u8]) -> Result<ControlKind, DmiError> {
    match bytes[0] {
        1 => Ok(ControlKind::TrainingPattern {
            stage: bytes[1],
            value: u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes")),
        }),
        2 => Ok(ControlKind::FrtlProbe {
            signature: u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")),
        }),
        3 => Ok(ControlKind::FrtlEcho {
            signature: u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")),
        }),
        _ => Err(DmiError::MalformedFrame("unknown control kind")),
    }
}

impl DownstreamFrame {
    /// Serializes the frame to its 28-byte wire format, computing the
    /// CRC over the first 26 bytes.
    pub fn to_bytes(&self) -> [u8; DOWNSTREAM_FRAME_BYTES] {
        let mut out = [0u8; DOWNSTREAM_FRAME_BYTES];
        out[0] = self.seq % SEQ_MODULO;
        out[1] = ack_byte(self.ack);
        let body = &mut out[2..26];
        match &self.payload {
            DownstreamPayload::Idle => {
                body[0] = 0;
            }
            DownstreamPayload::Command { tag, header } => {
                body[0] = 1;
                body[1] = tag.raw();
                match header {
                    CommandHeader::Read { addr } => {
                        body[2] = 0;
                        body[3..11].copy_from_slice(&addr.to_le_bytes());
                    }
                    CommandHeader::Write { addr } => {
                        body[2] = 1;
                        body[3..11].copy_from_slice(&addr.to_le_bytes());
                    }
                    CommandHeader::Rmw { addr, op } => {
                        body[2] = 2;
                        body[3..11].copy_from_slice(&addr.to_le_bytes());
                        let (code, arg) = match op {
                            RmwOp::PartialWrite { sector_mask } => (0u8, *sector_mask),
                            RmwOp::AtomicAdd => (1, 0),
                            RmwOp::MinStore => (2, 0),
                            RmwOp::MaxStore => (3, 0),
                            RmwOp::ConditionalSwap => (4, 0),
                        };
                        body[11] = code;
                        body[12] = arg;
                    }
                    CommandHeader::Flush => {
                        body[2] = 3;
                    }
                }
            }
            DownstreamPayload::WriteData { tag, beat, data } => {
                body[0] = 2;
                body[1] = tag.raw();
                body[2] = *beat;
                body[3..19].copy_from_slice(data);
            }
            DownstreamPayload::Control(kind) => {
                body[0] = 3;
                encode_control(*kind, &mut body[1..]);
            }
        }
        let crc = crc16(&out[..26]);
        out[26..28].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a frame from its wire format, verifying the CRC.
    ///
    /// # Errors
    ///
    /// [`DmiError::CrcMismatch`] on CRC failure,
    /// [`DmiError::MalformedFrame`] on undecodable content.
    pub fn from_bytes(bytes: &[u8; DOWNSTREAM_FRAME_BYTES]) -> Result<Self, DmiError> {
        let crc = u16::from_le_bytes(bytes[26..28].try_into().expect("2 bytes"));
        if crc != crc16(&bytes[..26]) {
            return Err(DmiError::CrcMismatch {
                claimed_seq: bytes[0] & 0x7F,
            });
        }
        let seq = bytes[0] & 0x7F;
        let ack = parse_ack(bytes[1]);
        let body = &bytes[2..26];
        let payload = match body[0] {
            0 => DownstreamPayload::Idle,
            1 => {
                let tag = Tag::new(body[1])?;
                let addr = u64::from_le_bytes(body[3..11].try_into().expect("8 bytes"));
                let header = match body[2] {
                    0 => CommandHeader::Read { addr },
                    1 => CommandHeader::Write { addr },
                    2 => {
                        let op = match body[11] {
                            0 => RmwOp::PartialWrite {
                                sector_mask: body[12],
                            },
                            1 => RmwOp::AtomicAdd,
                            2 => RmwOp::MinStore,
                            3 => RmwOp::MaxStore,
                            4 => RmwOp::ConditionalSwap,
                            _ => return Err(DmiError::MalformedFrame("unknown rmw op")),
                        };
                        CommandHeader::Rmw { addr, op }
                    }
                    3 => CommandHeader::Flush,
                    _ => return Err(DmiError::MalformedFrame("unknown command kind")),
                };
                DownstreamPayload::Command { tag, header }
            }
            2 => {
                let tag = Tag::new(body[1])?;
                let beat = body[2];
                if beat as usize >= DOWNSTREAM_BEATS_PER_LINE {
                    return Err(DmiError::MalformedFrame("downstream beat out of range"));
                }
                let mut data = [0u8; DOWNSTREAM_BEAT_BYTES];
                data.copy_from_slice(&body[3..19]);
                DownstreamPayload::WriteData { tag, beat, data }
            }
            3 => DownstreamPayload::Control(decode_control(&body[1..])?),
            _ => return Err(DmiError::MalformedFrame("unknown downstream payload")),
        };
        Ok(DownstreamFrame { seq, ack, payload })
    }
}

impl UpstreamFrame {
    /// Serializes the frame to its 42-byte wire format, computing the
    /// CRC over the first 40 bytes.
    pub fn to_bytes(&self) -> [u8; UPSTREAM_FRAME_BYTES] {
        let mut out = [0u8; UPSTREAM_FRAME_BYTES];
        out[0] = self.seq % SEQ_MODULO;
        out[1] = ack_byte(self.ack);
        let body = &mut out[2..40];
        match &self.payload {
            UpstreamPayload::Idle => {
                body[0] = 0;
            }
            UpstreamPayload::ReadData {
                tag,
                beat,
                data,
                poison,
            } => {
                body[0] = 1;
                body[1] = tag.raw();
                body[2] = *beat;
                body[3..35].copy_from_slice(data);
                body[35] = u8::from(*poison);
            }
            UpstreamPayload::Done { first, second } => {
                body[0] = 2;
                body[1] = first.raw();
                match second {
                    Some(t) => {
                        body[2] = 1;
                        body[3] = t.raw();
                    }
                    None => {
                        body[2] = 0;
                    }
                }
            }
            UpstreamPayload::Control(kind) => {
                body[0] = 3;
                encode_control(*kind, &mut body[1..]);
            }
        }
        let crc = crc16(&out[..40]);
        out[40..42].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a frame from its wire format, verifying the CRC.
    ///
    /// # Errors
    ///
    /// [`DmiError::CrcMismatch`] on CRC failure,
    /// [`DmiError::MalformedFrame`] on undecodable content.
    pub fn from_bytes(bytes: &[u8; UPSTREAM_FRAME_BYTES]) -> Result<Self, DmiError> {
        let crc = u16::from_le_bytes(bytes[40..42].try_into().expect("2 bytes"));
        if crc != crc16(&bytes[..40]) {
            return Err(DmiError::CrcMismatch {
                claimed_seq: bytes[0] & 0x7F,
            });
        }
        let seq = bytes[0] & 0x7F;
        let ack = parse_ack(bytes[1]);
        let body = &bytes[2..40];
        let payload = match body[0] {
            0 => UpstreamPayload::Idle,
            1 => {
                let tag = Tag::new(body[1])?;
                let beat = body[2];
                if beat as usize >= UPSTREAM_BEATS_PER_LINE {
                    return Err(DmiError::MalformedFrame("upstream beat out of range"));
                }
                let mut data = [0u8; UPSTREAM_BEAT_BYTES];
                data.copy_from_slice(&body[3..35]);
                let poison = body[35] != 0;
                UpstreamPayload::ReadData {
                    tag,
                    beat,
                    data,
                    poison,
                }
            }
            2 => {
                let first = Tag::new(body[1])?;
                let second = match body[2] {
                    0 => None,
                    1 => Some(Tag::new(body[3])?),
                    // The flag is a single bit on the wire; anything
                    // else is a decode error, not a missing second tag.
                    _ => return Err(DmiError::MalformedFrame("done second-tag flag")),
                };
                UpstreamPayload::Done { first, second }
            }
            3 => UpstreamPayload::Control(decode_control(&body[1..])?),
            _ => return Err(DmiError::MalformedFrame("unknown upstream payload")),
        };
        Ok(UpstreamFrame { seq, ack, payload })
    }
}

/// Splits a cache line into eight downstream write-data beats.
pub fn line_to_downstream_beats(tag: Tag, line: &CacheLine) -> Vec<DownstreamPayload> {
    (0..DOWNSTREAM_BEATS_PER_LINE)
        .map(|beat| {
            let mut data = [0u8; DOWNSTREAM_BEAT_BYTES];
            data.copy_from_slice(
                &line.0[beat * DOWNSTREAM_BEAT_BYTES..(beat + 1) * DOWNSTREAM_BEAT_BYTES],
            );
            DownstreamPayload::WriteData {
                tag,
                beat: beat as u8,
                data,
            }
        })
        .collect()
}

/// Splits a cache line into four upstream read-data beats. `poison`
/// marks every beat when the media flagged the line uncorrectable.
pub fn line_to_upstream_beats(tag: Tag, line: &CacheLine, poison: bool) -> Vec<UpstreamPayload> {
    (0..UPSTREAM_BEATS_PER_LINE)
        .map(|beat| {
            let mut data = [0u8; UPSTREAM_BEAT_BYTES];
            data.copy_from_slice(
                &line.0[beat * UPSTREAM_BEAT_BYTES..(beat + 1) * UPSTREAM_BEAT_BYTES],
            );
            UpstreamPayload::ReadData {
                tag,
                beat: beat as u8,
                data,
                poison,
            }
        })
        .collect()
}

/// Accumulates data beats back into a cache line, tracking which beats
/// have arrived (beats for different tags may interleave, paper
/// §3.3(iii)).
#[derive(Debug, Clone)]
pub struct LineAssembler {
    line: CacheLine,
    beats_seen: u16,
    beats_expected: u16,
    beat_bytes: usize,
}

impl LineAssembler {
    /// Assembler for downstream (8 × 16 B) beats.
    pub fn downstream() -> Self {
        LineAssembler {
            line: CacheLine::ZERO,
            beats_seen: 0,
            beats_expected: (1 << DOWNSTREAM_BEATS_PER_LINE) - 1,
            beat_bytes: DOWNSTREAM_BEAT_BYTES,
        }
    }

    /// Assembler for upstream (4 × 32 B) beats.
    pub fn upstream() -> Self {
        LineAssembler {
            line: CacheLine::ZERO,
            beats_seen: 0,
            beats_expected: (1 << UPSTREAM_BEATS_PER_LINE) - 1,
            beat_bytes: UPSTREAM_BEAT_BYTES,
        }
    }

    /// Adds one beat. Returns `true` once the line is complete.
    ///
    /// # Panics
    ///
    /// Panics if the beat index is out of range or `data` has the
    /// wrong length for this direction. Beats handed over from a
    /// decoded frame are already range-checked; use
    /// [`LineAssembler::try_add_beat`] for data of wire/replay
    /// provenance that has not been through the frame decoder.
    pub fn add_beat(&mut self, beat: u8, data: &[u8]) -> bool {
        self.try_add_beat(beat, data)
            .expect("beat index/size validated by the frame decoder")
    }

    /// Fallible [`LineAssembler::add_beat`]: rejects out-of-range beat
    /// indices and wrong-sized data as [`DmiError::MalformedFrame`]
    /// instead of panicking, so consumers fed from the wire or a
    /// replay buffer can drop a malformed beat loudly rather than
    /// bring the whole simulation down.
    ///
    /// # Errors
    ///
    /// [`DmiError::MalformedFrame`] when `beat` exceeds this
    /// direction's beat count or `data` is not one beat long.
    pub fn try_add_beat(&mut self, beat: u8, data: &[u8]) -> Result<bool, DmiError> {
        if data.len() != self.beat_bytes {
            return Err(DmiError::MalformedFrame("wrong beat size"));
        }
        let start = beat as usize * self.beat_bytes;
        let Some(slot) = self.line.0.get_mut(start..start + self.beat_bytes) else {
            return Err(DmiError::MalformedFrame("beat index out of range"));
        };
        slot.copy_from_slice(data);
        self.beats_seen |= 1 << beat;
        Ok(self.is_complete())
    }

    /// Whether all beats have arrived.
    pub fn is_complete(&self) -> bool {
        self.beats_seen == self.beats_expected
    }

    /// Takes the assembled line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not complete.
    pub fn into_line(self) -> CacheLine {
        assert!(self.is_complete(), "line not complete");
        self.line
    }

    /// Fallible [`LineAssembler::into_line`]: a line with missing
    /// beats (a write abandoned mid-burst when the power failed, or
    /// beats lost to a retrain) comes back as a typed error.
    ///
    /// # Errors
    ///
    /// [`DmiError::MalformedFrame`] when beats are missing.
    pub fn try_into_line(self) -> Result<CacheLine, DmiError> {
        if !self.is_complete() {
            return Err(DmiError::MalformedFrame("line incomplete"));
        }
        Ok(self.line)
    }
}

impl Persist for LineAssembler {
    fn persist(&self, out: &mut Vec<u8>) {
        self.line.persist(out);
        self.beats_seen.persist(out);
        self.beats_expected.persist(out);
        self.beat_bytes.persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let line = CacheLine::restore(r)?;
        let beats_seen = r.u16()?;
        let beats_expected = r.u16()?;
        let beat_bytes = usize::restore(r)?;
        let valid_shape = (beat_bytes == DOWNSTREAM_BEAT_BYTES
            && beats_expected == (1 << DOWNSTREAM_BEATS_PER_LINE) - 1)
            || (beat_bytes == UPSTREAM_BEAT_BYTES
                && beats_expected == (1 << UPSTREAM_BEATS_PER_LINE) - 1);
        if !valid_shape || beats_seen & !beats_expected != 0 {
            return Err(RestoreError::Malformed {
                context: "line assembler shape",
            });
        }
        Ok(LineAssembler {
            line,
            beats_seen,
            beats_expected,
            beat_bytes,
        })
    }
}

impl Persist for ControlKind {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            ControlKind::TrainingPattern { stage, value } => {
                0u8.persist(out);
                stage.persist(out);
                value.persist(out);
            }
            ControlKind::FrtlProbe { signature } => {
                1u8.persist(out);
                signature.persist(out);
            }
            ControlKind::FrtlEcho { signature } => {
                2u8.persist(out);
                signature.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        match r.u8()? {
            0 => Ok(ControlKind::TrainingPattern {
                stage: r.u8()?,
                value: r.u32()?,
            }),
            1 => Ok(ControlKind::FrtlProbe {
                signature: r.u32()?,
            }),
            2 => Ok(ControlKind::FrtlEcho {
                signature: r.u32()?,
            }),
            _ => Err(RestoreError::Malformed {
                context: "ControlKind discriminant",
            }),
        }
    }
}

impl Persist for CommandHeader {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            CommandHeader::Read { addr } => {
                0u8.persist(out);
                addr.persist(out);
            }
            CommandHeader::Write { addr } => {
                1u8.persist(out);
                addr.persist(out);
            }
            CommandHeader::Rmw { addr, op } => {
                2u8.persist(out);
                addr.persist(out);
                op.persist(out);
            }
            CommandHeader::Flush => 3u8.persist(out),
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        match r.u8()? {
            0 => Ok(CommandHeader::Read { addr: r.u64()? }),
            1 => Ok(CommandHeader::Write { addr: r.u64()? }),
            2 => Ok(CommandHeader::Rmw {
                addr: r.u64()?,
                op: RmwOp::restore(r)?,
            }),
            3 => Ok(CommandHeader::Flush),
            _ => Err(RestoreError::Malformed {
                context: "CommandHeader discriminant",
            }),
        }
    }
}

impl Persist for DownstreamPayload {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            DownstreamPayload::Idle => 0u8.persist(out),
            DownstreamPayload::Command { tag, header } => {
                1u8.persist(out);
                tag.persist(out);
                header.persist(out);
            }
            DownstreamPayload::WriteData { tag, beat, data } => {
                2u8.persist(out);
                tag.persist(out);
                beat.persist(out);
                data.persist(out);
            }
            DownstreamPayload::Control(kind) => {
                3u8.persist(out);
                kind.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        match r.u8()? {
            0 => Ok(DownstreamPayload::Idle),
            1 => Ok(DownstreamPayload::Command {
                tag: Tag::restore(r)?,
                header: CommandHeader::restore(r)?,
            }),
            2 => {
                let tag = Tag::restore(r)?;
                let beat = r.u8()?;
                if usize::from(beat) >= DOWNSTREAM_BEATS_PER_LINE {
                    return Err(RestoreError::Malformed {
                        context: "downstream beat index",
                    });
                }
                Ok(DownstreamPayload::WriteData {
                    tag,
                    beat,
                    data: <[u8; DOWNSTREAM_BEAT_BYTES]>::restore(r)?,
                })
            }
            3 => Ok(DownstreamPayload::Control(ControlKind::restore(r)?)),
            _ => Err(RestoreError::Malformed {
                context: "DownstreamPayload discriminant",
            }),
        }
    }
}

impl Persist for UpstreamPayload {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            UpstreamPayload::Idle => 0u8.persist(out),
            UpstreamPayload::ReadData {
                tag,
                beat,
                data,
                poison,
            } => {
                1u8.persist(out);
                tag.persist(out);
                beat.persist(out);
                data.persist(out);
                poison.persist(out);
            }
            UpstreamPayload::Done { first, second } => {
                2u8.persist(out);
                first.persist(out);
                second.persist(out);
            }
            UpstreamPayload::Control(kind) => {
                3u8.persist(out);
                kind.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        match r.u8()? {
            0 => Ok(UpstreamPayload::Idle),
            1 => {
                let tag = Tag::restore(r)?;
                let beat = r.u8()?;
                if usize::from(beat) >= UPSTREAM_BEATS_PER_LINE {
                    return Err(RestoreError::Malformed {
                        context: "upstream beat index",
                    });
                }
                Ok(UpstreamPayload::ReadData {
                    tag,
                    beat,
                    data: <[u8; UPSTREAM_BEAT_BYTES]>::restore(r)?,
                    poison: r.bool()?,
                })
            }
            2 => Ok(UpstreamPayload::Done {
                first: Tag::restore(r)?,
                second: Option::restore(r)?,
            }),
            3 => Ok(UpstreamPayload::Control(ControlKind::restore(r)?)),
            _ => Err(RestoreError::Malformed {
                context: "UpstreamPayload discriminant",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CACHE_LINE_BYTES;

    fn t(n: u8) -> Tag {
        Tag::new(n).unwrap()
    }

    #[test]
    fn downstream_roundtrip_all_kinds() {
        let frames = vec![
            DownstreamFrame {
                seq: 5,
                ack: Some(3),
                payload: DownstreamPayload::Idle,
            },
            DownstreamFrame {
                seq: 127,
                ack: None,
                payload: DownstreamPayload::Command {
                    tag: t(7),
                    header: CommandHeader::Read { addr: 0x1234_5680 },
                },
            },
            DownstreamFrame {
                seq: 0,
                ack: Some(127),
                payload: DownstreamPayload::Command {
                    tag: t(31),
                    header: CommandHeader::Rmw {
                        addr: 0x80,
                        op: RmwOp::PartialWrite { sector_mask: 0xA5 },
                    },
                },
            },
            DownstreamFrame {
                seq: 1,
                ack: None,
                payload: DownstreamPayload::WriteData {
                    tag: t(2),
                    beat: 7,
                    data: [0xAB; 16],
                },
            },
            DownstreamFrame {
                seq: 2,
                ack: None,
                payload: DownstreamPayload::Control(ControlKind::FrtlProbe {
                    signature: 0xDEAD_BEEF,
                }),
            },
            DownstreamFrame {
                seq: 3,
                ack: None,
                payload: DownstreamPayload::Command {
                    tag: t(0),
                    header: CommandHeader::Flush,
                },
            },
        ];
        for f in frames {
            let bytes = f.to_bytes();
            let back = DownstreamFrame::from_bytes(&bytes).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn upstream_roundtrip_all_kinds() {
        let frames = vec![
            UpstreamFrame {
                seq: 9,
                ack: Some(8),
                payload: UpstreamPayload::Idle,
            },
            UpstreamFrame {
                seq: 10,
                ack: None,
                payload: UpstreamPayload::ReadData {
                    tag: t(4),
                    beat: 3,
                    data: [0x5A; 32],
                    poison: false,
                },
            },
            UpstreamFrame {
                seq: 14,
                ack: None,
                payload: UpstreamPayload::ReadData {
                    tag: t(5),
                    beat: 0,
                    data: [0xEE; 32],
                    poison: true,
                },
            },
            UpstreamFrame {
                seq: 11,
                ack: Some(0),
                payload: UpstreamPayload::Done {
                    first: t(1),
                    second: Some(t(30)),
                },
            },
            UpstreamFrame {
                seq: 12,
                ack: None,
                payload: UpstreamPayload::Done {
                    first: t(1),
                    second: None,
                },
            },
            UpstreamFrame {
                seq: 13,
                ack: None,
                payload: UpstreamPayload::Control(ControlKind::TrainingPattern {
                    stage: 2,
                    value: 0x0F0F_0F0F,
                }),
            },
        ];
        for f in frames {
            let bytes = f.to_bytes();
            let back = UpstreamFrame::from_bytes(&bytes).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn corrupted_frame_fails_crc() {
        let f = DownstreamFrame {
            seq: 5,
            ack: None,
            payload: DownstreamPayload::Idle,
        };
        let mut bytes = f.to_bytes();
        bytes[10] ^= 0x40;
        assert!(matches!(
            DownstreamFrame::from_bytes(&bytes),
            Err(DmiError::CrcMismatch { claimed_seq: 5 })
        ));
    }

    #[test]
    fn corrupted_upstream_fails_crc() {
        let f = UpstreamFrame {
            seq: 64,
            ack: None,
            payload: UpstreamPayload::Idle,
        };
        let mut bytes = f.to_bytes();
        bytes[41] ^= 0x01; // even CRC corruption is caught
        assert!(DownstreamFrame::from_bytes(&bytes[..28].try_into().unwrap()).is_err());
        assert!(UpstreamFrame::from_bytes(&bytes).is_err());
    }

    #[test]
    fn seq_wraps_to_seven_bits() {
        let f = DownstreamFrame {
            seq: 200, // > 127, wraps on serialization
            ack: Some(130),
            payload: DownstreamPayload::Idle,
        };
        let back = DownstreamFrame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back.seq, 200 % SEQ_MODULO);
        assert_eq!(back.ack, Some(130 % SEQ_MODULO));
    }

    #[test]
    fn line_splitting_and_reassembly_downstream() {
        let line = CacheLine::patterned(77);
        let beats = line_to_downstream_beats(t(6), &line);
        assert_eq!(beats.len(), 8);
        let mut asm = LineAssembler::downstream();
        // deliver out of order — interleaving is allowed
        for idx in [3usize, 0, 7, 1, 2, 6, 5] {
            if let DownstreamPayload::WriteData { beat, data, .. } = &beats[idx] {
                assert!(!asm.add_beat(*beat, data));
            }
        }
        if let DownstreamPayload::WriteData { beat, data, .. } = &beats[4] {
            assert!(asm.add_beat(*beat, data));
        }
        assert_eq!(asm.into_line(), line);
    }

    #[test]
    fn line_splitting_and_reassembly_upstream() {
        let line = CacheLine::patterned(99);
        let beats = line_to_upstream_beats(t(0), &line, false);
        assert_eq!(beats.len(), 4);
        let mut asm = LineAssembler::upstream();
        for p in &beats {
            if let UpstreamPayload::ReadData { beat, data, .. } = p {
                asm.add_beat(*beat, data);
            }
        }
        assert!(asm.is_complete());
        assert_eq!(asm.into_line(), line);
    }

    #[test]
    fn poison_bit_is_crc_covered() {
        let f = UpstreamFrame {
            seq: 1,
            ack: None,
            payload: UpstreamPayload::ReadData {
                tag: t(3),
                beat: 0,
                data: [0x11; 32],
                poison: false,
            },
        };
        let mut bytes = f.to_bytes();
        // Flipping the poison byte on the wire must be caught by CRC —
        // poison can never be silently gained or lost in transit.
        bytes[37] ^= 1;
        assert!(matches!(
            UpstreamFrame::from_bytes(&bytes),
            Err(DmiError::CrcMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "not complete")]
    fn incomplete_line_panics() {
        let asm = LineAssembler::upstream();
        let _ = asm.into_line();
    }

    #[test]
    fn malformed_payload_kind_rejected() {
        let f = DownstreamFrame {
            seq: 0,
            ack: None,
            payload: DownstreamPayload::Idle,
        };
        let mut bytes = f.to_bytes();
        bytes[2] = 9; // unknown payload kind
        let crc = crc16(&bytes[..26]);
        bytes[26..28].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            DownstreamFrame::from_bytes(&bytes),
            Err(DmiError::MalformedFrame(_))
        ));
    }

    #[test]
    fn done_second_tag_flag_must_be_a_bit() {
        let f = UpstreamFrame {
            seq: 4,
            ack: None,
            payload: UpstreamPayload::Done {
                first: t(1),
                second: None,
            },
        };
        let mut bytes = f.to_bytes();
        bytes[4] = 2; // body[2]: the second-tag flag, corrupted past CRC
        let crc = crc16(&bytes[..40]);
        bytes[40..42].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            UpstreamFrame::from_bytes(&bytes),
            Err(DmiError::MalformedFrame("done second-tag flag"))
        ));
    }

    #[test]
    fn try_add_beat_rejects_out_of_range_index() {
        let mut asm = LineAssembler::upstream();
        assert!(matches!(
            asm.try_add_beat(4, &[0u8; UPSTREAM_BEAT_BYTES]),
            Err(DmiError::MalformedFrame("beat index out of range"))
        ));
        // A huge index must not overflow anything either.
        assert!(asm.try_add_beat(255, &[0u8; UPSTREAM_BEAT_BYTES]).is_err());
        // The assembler is still usable after rejecting garbage.
        assert!(!asm.try_add_beat(0, &[0u8; UPSTREAM_BEAT_BYTES]).unwrap());
    }

    #[test]
    fn try_add_beat_rejects_wrong_size() {
        let mut asm = LineAssembler::downstream();
        assert!(matches!(
            asm.try_add_beat(0, &[0u8; UPSTREAM_BEAT_BYTES]),
            Err(DmiError::MalformedFrame("wrong beat size"))
        ));
    }

    #[test]
    fn try_into_line_reports_missing_beats() {
        let mut asm = LineAssembler::upstream();
        asm.try_add_beat(0, &[1u8; UPSTREAM_BEAT_BYTES]).unwrap();
        assert!(matches!(
            asm.try_into_line(),
            Err(DmiError::MalformedFrame("line incomplete"))
        ));
        // A complete line comes back intact.
        let line = CacheLine::patterned(3);
        let mut asm = LineAssembler::upstream();
        for p in line_to_upstream_beats(t(0), &line, false) {
            if let UpstreamPayload::ReadData { beat, data, .. } = p {
                asm.try_add_beat(beat, &data).unwrap();
            }
        }
        assert_eq!(asm.try_into_line().unwrap(), line);
    }

    #[test]
    fn random_bytes_never_panic_the_decoders() {
        use contutto_sim::SimRng;
        // Valid CRCs over arbitrary bodies: the decoder must return a
        // typed error (or a frame) for every byte pattern, never panic.
        let mut rng = SimRng::seed_from_u64(0xF00D);
        for _ in 0..20_000 {
            let mut down = [0u8; DOWNSTREAM_FRAME_BYTES];
            for b in down.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            let crc = crc16(&down[..26]);
            down[26..28].copy_from_slice(&crc.to_le_bytes());
            let _ = DownstreamFrame::from_bytes(&down);

            let mut up = [0u8; UPSTREAM_FRAME_BYTES];
            for b in up.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            let crc = crc16(&up[..40]);
            up[40..42].copy_from_slice(&crc.to_le_bytes());
            let _ = UpstreamFrame::from_bytes(&up);
        }
    }

    mod random {
        use super::*;
        use contutto_sim::SimRng;

        fn byte(rng: &mut SimRng) -> u8 {
            rng.next_u64() as u8
        }

        fn tag(rng: &mut SimRng) -> Tag {
            t(byte(rng) % 32)
        }

        fn ack(rng: &mut SimRng) -> Option<u8> {
            let b = byte(rng);
            (b & 0x80 != 0).then_some(b & 0x7F)
        }

        fn control(rng: &mut SimRng) -> ControlKind {
            let word = rng.next_u64() as u32;
            match rng.next_u64() % 3 {
                0 => ControlKind::TrainingPattern {
                    stage: byte(rng),
                    value: word,
                },
                1 => ControlKind::FrtlProbe { signature: word },
                _ => ControlKind::FrtlEcho { signature: word },
            }
        }

        fn downstream(rng: &mut SimRng) -> DownstreamFrame {
            let addr = rng.next_u64();
            let payload = match rng.next_u64() % 4 {
                0 => DownstreamPayload::Idle,
                1 => DownstreamPayload::Command {
                    tag: tag(rng),
                    header: match rng.next_u64() % 4 {
                        0 => CommandHeader::Read { addr },
                        1 => CommandHeader::Write { addr },
                        2 => CommandHeader::Rmw {
                            addr,
                            op: match rng.next_u64() % 5 {
                                0 => RmwOp::PartialWrite {
                                    sector_mask: byte(rng),
                                },
                                1 => RmwOp::AtomicAdd,
                                2 => RmwOp::MinStore,
                                3 => RmwOp::MaxStore,
                                _ => RmwOp::ConditionalSwap,
                            },
                        },
                        _ => CommandHeader::Flush,
                    },
                },
                2 => DownstreamPayload::WriteData {
                    tag: tag(rng),
                    beat: byte(rng) % DOWNSTREAM_BEATS_PER_LINE as u8,
                    data: std::array::from_fn(|_| byte(rng)),
                },
                _ => DownstreamPayload::Control(control(rng)),
            };
            DownstreamFrame {
                seq: byte(rng) % SEQ_MODULO,
                ack: ack(rng),
                payload,
            }
        }

        fn upstream(rng: &mut SimRng) -> UpstreamFrame {
            let payload = match rng.next_u64() % 4 {
                0 => UpstreamPayload::Idle,
                1 => UpstreamPayload::ReadData {
                    tag: tag(rng),
                    beat: byte(rng) % UPSTREAM_BEATS_PER_LINE as u8,
                    data: std::array::from_fn(|_| byte(rng)),
                    poison: byte(rng) & 1 != 0,
                },
                2 => UpstreamPayload::Done {
                    first: tag(rng),
                    second: (byte(rng) & 1 != 0).then(|| tag(rng)),
                },
                _ => UpstreamPayload::Control(control(rng)),
            };
            UpstreamFrame {
                seq: byte(rng) % SEQ_MODULO,
                ack: ack(rng),
                payload,
            }
        }

        #[test]
        fn random_frames_round_trip() {
            let mut rng = SimRng::seed_from_u64(0xF2A3);
            for _ in 0..5_000 {
                let down = downstream(&mut rng);
                assert_eq!(DownstreamFrame::from_bytes(&down.to_bytes()), Ok(down));
                let up = upstream(&mut rng);
                assert_eq!(UpstreamFrame::from_bytes(&up.to_bytes()), Ok(up));
            }
        }
    }

    #[test]
    fn frame_sizes_match_lane_math() {
        // 14 lanes x 16 UI = 224 bits downstream, 21 x 16 = 336 upstream.
        assert_eq!(DOWNSTREAM_FRAME_BYTES * 8, 14 * 16);
        assert_eq!(UPSTREAM_FRAME_BYTES * 8, 21 * 16);
        assert_eq!(
            DOWNSTREAM_BEATS_PER_LINE * DOWNSTREAM_BEAT_BYTES,
            CACHE_LINE_BYTES
        );
        assert_eq!(
            UPSTREAM_BEATS_PER_LINE * UPSTREAM_BEAT_BYTES,
            CACHE_LINE_BYTES
        );
    }
}
