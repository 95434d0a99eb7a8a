//! Hostile DRAM images. A media page or a checked line placed where the
//! array has no cells (at or past the capacity, or off the 128-byte line
//! grid) is refused as `Malformed`, the device the image was restored
//! onto is left exactly as it was, and it goes on scrubbing and serving
//! reads. A checked line whose page the image lists no data for is
//! accepted and re-images byte for byte.

use contutto_memdev::ecc::encode_line;
use contutto_memdev::{DdrTimings, Dram, MemoryDevice};
use contutto_sim::snapshot::{RestoreError, SnapReader};
use contutto_sim::SimTime;

const CAPACITY: u64 = 1 << 20;
const PAGE: u64 = 4096;
/// The one line the source DRAM holds, at the start of page 3.
const BASE: u64 = 3 * PAGE;

fn dram() -> Dram {
    Dram::new(CAPACITY, DdrTimings::ddr3_1600())
}

fn line() -> [u8; 128] {
    std::array::from_fn(|i| (i as u8).wrapping_mul(29).wrapping_add(7))
}

/// The image of a DRAM holding only `line()` at `BASE`, with the
/// offsets of its data page's index and of its checked line's address.
fn source_image() -> (Vec<u8>, usize, usize) {
    let mut src = dram();
    src.array_mut().poke(BASE, &line());
    let mut image = Vec::new();
    src.snapshot_state(&mut image);
    let page_entry = [&(BASE / PAGE).to_le_bytes()[..], &line()[..8]].concat();
    let check_entry = [&BASE.to_le_bytes()[..], &encode_line(&line())[..]].concat();
    (
        image.clone(),
        find(&image, &page_entry),
        find(&image, &check_entry),
    )
}

/// The one offset of `needle` in `image`.
fn find(image: &[u8], needle: &[u8]) -> usize {
    let hits: Vec<usize> = (0..=image.len() - needle.len())
        .filter(|&at| image[at..at + needle.len()] == *needle)
        .collect();
    assert_eq!(hits.len(), 1, "needle found {} times", hits.len());
    hits[0]
}

fn snapshot(d: &Dram) -> Vec<u8> {
    let mut image = Vec::new();
    d.snapshot_state(&mut image);
    image
}

#[test]
fn media_pages_and_checked_lines_outside_the_cells_are_refused_untouched() {
    let (image, page_at, check_at) = source_image();
    let cases = [
        ("data page at the capacity", page_at, CAPACITY / PAGE),
        ("data page at 2^60", page_at, 1 << 60),
        ("data page at u64::MAX", page_at, u64::MAX),
        ("checked line off the line grid", check_at, BASE + 8),
        ("checked line at the capacity", check_at, CAPACITY),
        ("checked line at 2^60", check_at, 1 << 60),
    ];
    for (case, at, value) in cases {
        let mut hostile = image.clone();
        hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());

        // The target holds data of its own, which must survive.
        let mut target = dram();
        target.write(SimTime::ZERO, 0, &[0x5A; 128]);
        let before = snapshot(&target);
        let err = target
            .restore_state(&mut SnapReader::new(&hostile))
            .expect_err(case);
        assert!(
            matches!(err, RestoreError::Malformed { .. }),
            "{case}: {err:?}"
        );
        assert!(snapshot(&target) == before, "{case}: the target changed");

        let report = target.scrub_pass(SimTime::from_us(1));
        assert_eq!(report.lines_scanned, 32, "{case}: one resident page");
        let mut buf = [0u8; 128];
        let read = target.read(SimTime::from_us(2), 0, &mut buf);
        assert!(read.outcome.is_clean(), "{case}");
        assert_eq!(buf, [0x5A; 128], "{case}");
    }
}

#[test]
fn a_checked_line_without_page_data_reimages_exactly() {
    let (mut image, page_at, _) = source_image();
    // Drop the one data page: its count sits right before it.
    image[page_at - 8..page_at].copy_from_slice(&0u64.to_le_bytes());
    image.drain(page_at..page_at + 8 + PAGE as usize);

    let mut d = dram();
    d.restore_state(&mut SnapReader::new(&image))
        .expect("check bytes without data restore");
    assert!(snapshot(&d) == image, "the image re-images byte for byte");
    assert_eq!(d.scrub_pass(SimTime::from_us(1)).lines_scanned, 0);
    let mut buf = [0xFFu8; 128];
    d.read(SimTime::from_us(2), BASE, &mut buf);
    d.array().peek(BASE, &mut buf);
    assert_eq!(buf, [0; 128], "a page without data holds zeros");
}
