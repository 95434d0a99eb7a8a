//! Card-to-card PCIe transfers.
//!
//! Paper §3.2: "The PCIe interface could be potentially used for
//! direct memory-to-memory transfers between ConTutto cards without
//! burdening the POWER8 memory bus."
//!
//! [`P2pLink`] models that side channel: a DMA engine that streams
//! data from one card's DIMMs to another card's DIMMs over a private
//! PCIe connection. The transfer is functional (real bytes move) and
//! charged at PCIe bandwidth — and, critically, it performs **zero**
//! Avalon line transfers on either card's DMI-facing ports, which the
//! tests assert.

use contutto_sim::SimTime;

use crate::avalon::AvalonBus;

/// A point-to-point PCIe link between two ConTutto cards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pLink {
    /// Usable link bandwidth, bytes/sec (Gen3 x8 ≈ 7.9 GB/s).
    pub bandwidth: f64,
    /// Per-transfer DMA setup cost (descriptor write + doorbell).
    pub setup: SimTime,
}

impl Default for P2pLink {
    fn default() -> Self {
        P2pLink {
            bandwidth: 7.9e9,
            setup: SimTime::from_us(2),
        }
    }
}

/// Statistics for one transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pTransfer {
    /// Bytes moved.
    pub bytes: u64,
    /// Completion time.
    pub completed_at: SimTime,
    /// Achieved bandwidth, bytes/sec.
    pub bandwidth: f64,
}

impl P2pLink {
    /// Copies `len` bytes from `src_addr` on `src` card to `dst_addr`
    /// on `dst` card, starting at `now`.
    ///
    /// # Panics
    ///
    /// Panics if either range exceeds the card's capacity.
    pub fn transfer(
        &self,
        src: &mut AvalonBus,
        dst: &mut AvalonBus,
        src_addr: u64,
        dst_addr: u64,
        len: u64,
        now: SimTime,
    ) -> P2pTransfer {
        assert!(
            src_addr + len <= src.capacity_bytes(),
            "source out of range"
        );
        assert!(
            dst_addr + len <= dst.capacity_bytes(),
            "destination out of range"
        );
        // Functional move in 64 KiB chunks, port-interleaved like the
        // cards' line interleave.
        let mut buf = vec![0u8; 64 * 1024];
        let mut off = 0u64;
        while off < len {
            let n = (len - off).min(buf.len() as u64) as usize;
            read_interleaved(src, src_addr + off, &mut buf[..n]);
            write_interleaved(dst, dst_addr + off, &buf[..n]);
            off += n as u64;
        }
        let duration = SimTime::from_ps((len as f64 / self.bandwidth * 1e12) as u64);
        let completed_at = now + self.setup + duration;
        P2pTransfer {
            bytes: len,
            completed_at,
            bandwidth: len as f64 / (completed_at - now).as_secs_f64(),
        }
    }
}

fn read_interleaved(bus: &mut AvalonBus, addr: u64, buf: &mut [u8]) {
    let ports = bus.ports() as u64;
    let mut off = 0u64;
    while (off as usize) < buf.len() {
        let a = addr + off;
        let unit = a / 128;
        let port = (unit % ports) as usize;
        let local = (unit / ports) * 128 + a % 128;
        let span = 128 - a % 128;
        let n = span.min(buf.len() as u64 - off) as usize;
        bus.controller_mut(port)
            .array()
            .peek(local, &mut buf[off as usize..off as usize + n]);
        off += n as u64;
    }
}

fn write_interleaved(bus: &mut AvalonBus, addr: u64, data: &[u8]) {
    let ports = bus.ports() as u64;
    let mut off = 0u64;
    while (off as usize) < data.len() {
        let a = addr + off;
        let unit = a / 128;
        let port = (unit % ports) as usize;
        let local = (unit / ports) * 128 + a % 128;
        let span = 128 - a % 128;
        let n = span.min(data.len() as u64 - off) as usize;
        bus.controller_mut(port)
            .array_mut()
            .poke(local, &data[off as usize..off as usize + n]);
        off += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memctl::{MemoryController, MemoryKind};

    fn card_bus() -> AvalonBus {
        AvalonBus::new(
            vec![
                MemoryController::new(MemoryKind::Ddr3Dram, 1 << 29),
                MemoryController::new(MemoryKind::Ddr3Dram, 1 << 29),
            ],
            5,
        )
    }

    #[test]
    fn transfer_moves_data_between_cards() {
        let mut a = card_bus();
        let mut b = card_bus();
        let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 249) as u8).collect();
        write_interleaved(&mut a, 0x1000, &payload);
        let link = P2pLink::default();
        let t = link.transfer(
            &mut a,
            &mut b,
            0x1000,
            0x9000,
            payload.len() as u64,
            SimTime::ZERO,
        );
        assert_eq!(t.bytes, payload.len() as u64);
        let mut back = vec![0u8; payload.len()];
        read_interleaved(&mut b, 0x9000, &mut back);
        assert_eq!(back, payload);
    }

    #[test]
    fn memory_bus_is_not_burdened() {
        // The paper's point: P2P traffic bypasses the DMI path. The
        // Avalon line-transfer counters (which the DMI/MBS path uses)
        // must not move.
        let mut a = card_bus();
        let mut b = card_bus();
        let before = (a.transfers(), b.transfers());
        P2pLink::default().transfer(&mut a, &mut b, 0, 0, 1 << 20, SimTime::ZERO);
        assert_eq!((a.transfers(), b.transfers()), before);
    }

    #[test]
    fn bandwidth_is_pcie_class() {
        let mut a = card_bus();
        let mut b = card_bus();
        let len: u64 = 64 << 20;
        let t = P2pLink::default().transfer(&mut a, &mut b, 0, 0, len, SimTime::ZERO);
        let gbps = t.bandwidth / 1e9;
        assert!((6.0..8.0).contains(&gbps), "p2p at {gbps} GB/s");
    }

    #[test]
    fn setup_dominates_tiny_transfers() {
        let mut a = card_bus();
        let mut b = card_bus();
        let t = P2pLink::default().transfer(&mut a, &mut b, 0, 0, 64, SimTime::ZERO);
        assert!(t.completed_at >= SimTime::from_us(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_checked() {
        let mut a = card_bus();
        let mut b = card_bus();
        let cap = a.capacity_bytes();
        P2pLink::default().transfer(&mut a, &mut b, cap - 10, 0, 100, SimTime::ZERO);
    }
}
