//! Pins the snapshot images of DRAM, STT-MRAM and NVDIMM-N cell arrays
//! driven through media states that no pinned system image holds: a
//! partial-line write, a flip planted into an unwritten page, a
//! correctable count on an unwritten page, a scrub that heals and then
//! retires a page, a poisoned line moved over the sideband, power loss
//! and an NVDIMM save/restore cycle.
//!
//! Every phase appends the device's image to one buffer; the test pins
//! the buffer's length and CRC-32. A change meant to keep the image
//! format must leave it green without editing a constant. Each phase
//! also asserts the state it claims to reach, so a seed that stops
//! reaching it fails loudly instead of pinning something else.

use contutto_memdev::{
    DdrTimings, Dram, FaultConfig, MediaArray, MemoryDevice, MramGeneration, NvdimmN, ReadOutcome,
    SttMram,
};
use contutto_sim::snapshot::crc32;
use contutto_sim::SimTime;

const CAPACITY: u64 = 1 << 20;
const PAGE: u64 = 4096;

fn us(n: u64) -> SimTime {
    SimTime::from_us(n)
}

fn faults(seed: u64, flips: u32, hot_start: u64, hot_len: u64, stuck: u32) -> FaultConfig {
    FaultConfig {
        seed,
        transient_flips: flips,
        window: us(1),
        hot_start,
        hot_len,
        stuck_cells: stuck,
        wear_acceleration: 0.0,
    }
}

/// Drives one device through the shared phases, appending its image
/// after each to `images`. Returns the time the last phase ended.
fn drive<D: MemoryDevice>(
    dev: &mut D,
    array: fn(&mut D) -> &mut MediaArray,
    snapshot: fn(&D, &mut Vec<u8>),
    images: &mut Vec<u8>,
) -> SimTime {
    // Written data: a full line, a partial line, and a span crossing
    // three lines.
    let pattern: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
    dev.write(us(0), 0, &[0xA5; 128]);
    dev.write(us(0), PAGE + 0x10, &pattern[..40]);
    dev.write(us(0), 2 * PAGE + 0x40, &pattern);
    snapshot(dev, images);

    // Transient flips land in page 5, which nothing has written.
    array(dev).attach_media_faults_at(us(1), faults(11, 4, 5 * PAGE, PAGE, 0));
    let mut buf = [0u8; 128];
    assert!(dev.read(us(5), 0, &mut buf).outcome.is_clean());
    snapshot(dev, images);

    // A stuck cell overlaid on a read of an unwritten line of page 6:
    // a correctable count for a page that holds no data.
    array(dev).attach_media_faults_at(us(10), faults(2, 0, 6 * PAGE + 40, 1, 1));
    let outcome = dev.read(us(11), 6 * PAGE, &mut buf).outcome;
    assert_eq!(outcome, ReadOutcome::Corrected { bits: 1 });
    snapshot(dev, images);

    // Page 0: transient flips the first scrub heals, and stuck cells
    // whose corrections pile up until a later pass retires the page.
    array(dev).attach_media_faults_at(us(20), faults(5, 3, 0, PAGE, 12));
    let first = dev.scrub_pass(us(25));
    assert!(first.corrected > 0 && first.retired_pages.is_empty());
    snapshot(dev, images);
    let mut t = us(25);
    let mut retired = Vec::new();
    for _ in 0..16 {
        t += us(1);
        retired = dev.scrub_pass(t).retired_pages;
        if !retired.is_empty() {
            break;
        }
    }
    assert_eq!(retired, vec![0]);
    snapshot(dev, images);

    // Two flips in one word of the partially written line rot it; the
    // sideband moves it as poison to page 8.
    array(dev).attach_media_faults_at(us(40), faults(3, 2, PAGE, 8, 0));
    let (line, poisoned) = array(dev).sideband_read_line(us(45), PAGE);
    assert!(poisoned);
    array(dev).sideband_write_line(8 * PAGE, &line, true);
    assert!(dev.read(us(46), PAGE, &mut buf).outcome.is_uncorrectable());
    snapshot(dev, images);
    us(50)
}

fn dram_images(images: &mut Vec<u8>) {
    let mut d = Dram::new(CAPACITY, DdrTimings::ddr3_1600());
    drive(&mut d, Dram::array_mut, Dram::snapshot_state, images);
    d.power_loss();
    d.snapshot_state(images);
}

fn mram_images(images: &mut Vec<u8>) {
    let mut m = SttMram::new(CAPACITY, MramGeneration::Pmtj);
    drive(&mut m, SttMram::array_mut, SttMram::snapshot_state, images);
    m.power_loss();
    m.snapshot_state(images);
}

fn nvdimm_images(images: &mut Vec<u8>) {
    let mut nv = NvdimmN::new(CAPACITY, DdrTimings::ddr3_1600());
    let t = drive(&mut nv, NvdimmN::array_mut, NvdimmN::snapshot_state, images);
    let quiesced = nv.power_loss(t);
    nv.snapshot_state(images);
    nv.power_restore(quiesced + SimTime::from_ms(1))
        .expect("a completed save restores");
    nv.snapshot_state(images);
}

#[test]
fn media_array_images_match_their_golden_digest() {
    let mut images = Vec::new();
    dram_images(&mut images);
    mram_images(&mut images);
    nvdimm_images(&mut images);
    let (len, crc) = (images.len(), crc32(&images));
    assert_eq!(
        (len, crc),
        (3_676_371, 0xa784_849a),
        "media images {len} bytes crc {crc:#010x}"
    );
}
