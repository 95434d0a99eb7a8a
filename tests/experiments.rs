//! Integration: the full experiment runners regenerate every table
//! and figure with the paper's shape. These are the end-to-end
//! acceptance tests of the reproduction (EXPERIMENTS.md documents the
//! numbers side by side).

use contutto_bench as bench;
use contutto_centaur::CentaurConfig;
use contutto_core::ContuttoConfig;
use contutto_workloads::spec;

#[test]
fn table1_regenerates_exactly() {
    let report = bench::table1();
    let total = report.total();
    assert_eq!(
        (total.alms, total.registers, total.m20k),
        (136_856, 191_403, 244)
    );
    assert_eq!(total.percent_of_device(), (43, 30, 9));
}

#[test]
fn table2_rows_track_paper_anchors() {
    let rows = bench::table2();
    assert_eq!(rows.len(), 4);
    // Latency column: 79 / 83 / 116 / 249 ns within a few ns.
    let paper = [79.0, 83.0, 116.0, 249.0];
    for (row, target) in rows.iter().zip(paper) {
        let err = (row.latency_ns - target).abs() / target;
        assert!(
            err < 0.05,
            "{}: {} vs {}",
            row.setting,
            row.latency_ns,
            target
        );
    }
    // DB2 column: monotone, 5387 → ~5800, <8% total increase.
    assert!((rows[0].db2_seconds - 5387.0).abs() < 5.0);
    assert!(rows.windows(2).all(|w| w[0].db2_seconds < w[1].db2_seconds));
    assert!(rows[3].db2_seconds / rows[0].db2_seconds - 1.0 < 0.08);
}

#[test]
fn table3_rows_track_paper_anchors() {
    let rows = bench::table3();
    let get = |needle: &str| {
        rows.iter()
            .find(|r| r.configuration.contains(needle))
            .unwrap_or_else(|| panic!("missing {needle}"))
            .latency_ns
    };
    let checks = [
        ("Centaur", 97.0),
        ("ConTutto base", 390.0),
        ("knob @ 2", 438.0),
        ("knob @ 6", 534.0),
        ("knob @ 7", 558.0),
        ("matched", 293.0),
    ];
    for (needle, target) in checks {
        let measured = get(needle);
        let err = (measured - target).abs() / target;
        assert!(err < 0.05, "{needle}: {measured} vs paper {target}");
    }
}

/// Checks a setting-major SPEC sweep: one point per setting and
/// benchmark in suite order, latency rising strictly from each setting
/// to the next, and no benchmark's ratio rising with it.
fn assert_degrades_monotonically(points: &[bench::SpecPoint], settings: &[&str]) {
    let suite = spec::suite();
    assert_eq!(points.len(), settings.len() * suite.len());
    let blocks: Vec<&[bench::SpecPoint]> = points.chunks(suite.len()).collect();
    for (block, name) in blocks.iter().zip(settings) {
        for (p, bm) in block.iter().zip(&suite) {
            assert_eq!((p.setting.as_str(), p.benchmark), (*name, bm.name));
        }
    }
    for pair in blocks.windows(2) {
        let (before, after) = (&pair[0][0], &pair[1][0]);
        assert!(
            before.latency_ns < after.latency_ns,
            "{} ({} ns) must be slower than {} ({} ns)",
            after.setting,
            after.latency_ns,
            before.setting,
            before.latency_ns
        );
        for (a, b) in pair[0].iter().zip(pair[1]) {
            assert!(
                b.ratio <= a.ratio,
                "{}: ratio rises from {} to {}",
                a.benchmark,
                a.setting,
                b.setting
            );
        }
    }
}

#[test]
fn figure6_degrades_monotonically() {
    let points = bench::figure6();
    let settings: Vec<&str> = CentaurConfig::table2_settings()
        .iter()
        .map(|c| c.name)
        .collect();
    assert_eq!(points.len(), 48, "4 settings x 12 benchmarks");
    assert_degrades_monotonically(&points, &settings);
    let (optimized, serialized) = (&points[..12], &points[36..]);
    for (p, bm) in optimized.iter().zip(&spec::suite()) {
        assert!(
            (p.ratio - bm.base_ratio).abs() < 1e-9,
            "{}: optimized ratio {} vs base {}",
            bm.name,
            p.ratio,
            bm.base_ratio
        );
    }
    // The memory-bound benchmarks lose the largest fraction at
    // `serialized`.
    let mut loss: Vec<(f64, &str)> = optimized
        .iter()
        .zip(serialized)
        .map(|(o, s)| (1.0 - s.ratio / o.ratio, o.benchmark))
        .collect();
    loss.sort_by(|x, y| y.0.total_cmp(&x.0));
    let worst: Vec<&str> = loss[..3].iter().map(|&(_, name)| name).collect();
    assert_eq!(
        worst,
        ["429.mcf", "462.libquantum", "471.omnetpp"],
        "{loss:?}"
    );
}

#[test]
fn figure7_degrades_monotonically_with_the_knob() {
    let points = bench::figure7();
    let settings = [0u8, 2, 6, 7].map(|knob| ContuttoConfig::with_knob(knob).name);
    assert_eq!(points.len(), 48, "4 knob settings x 12 benchmarks");
    assert_degrades_monotonically(&points, &settings);
    // ConTutto at knob 0 is already slower than optimized Centaur, the
    // ratios' baseline.
    for (p, bm) in points[..12].iter().zip(&spec::suite()) {
        assert!(p.ratio < bm.base_ratio, "{}: {}", bm.name, p.ratio);
    }
}

#[test]
fn figure7_summary_matches_paper_prose() {
    let s = bench::figure7_summary();
    assert!(
        (0.33..=0.58).contains(&s.under_2pct),
        "~half <2%: {}",
        s.under_2pct
    );
    assert!(
        (0.58..=0.75).contains(&s.under_10pct),
        "~two-thirds <10%: {}",
        s.under_10pct
    );
    assert!(s.over_50pct > 0.0 && s.over_50pct < 0.17, "one app >50%");
}

#[test]
fn figure8_covers_all_technologies_in_order() {
    let rows = bench::figure8();
    assert_eq!(rows.len(), 7);
    let mram = rows
        .iter()
        .find(|r| r.technology.to_string() == "STT-MRAM")
        .unwrap();
    let nand = rows
        .iter()
        .find(|r| r.technology.to_string() == "NAND (MLC)")
        .unwrap();
    assert!(
        mram.log10_min - nand.log10_max >= 7.0,
        "MRAM >= 7 decades above NAND"
    );
}

#[test]
fn table4_ordering_and_factors() {
    let rows = bench::table4();
    let (hdd, ssd, mram) = (rows[0].iops, rows[1].iops, rows[2].iops);
    assert!(hdd < ssd && ssd < mram);
    let mram_over_ssd = mram / ssd;
    assert!(
        (5.0..12.0).contains(&mram_over_ssd),
        "paper: 8.3x, measured {mram_over_ssd}"
    );
}

#[test]
fn figures9_10_orderings_hold() {
    let results = bench::figure9_10();
    let find = |device: &str, read: bool| {
        results
            .iter()
            .find(|r| {
                r.device == device
                    && (matches!(r.pattern, contutto_workloads::fio::FioPattern::RandRead) == read)
            })
            .unwrap_or_else(|| panic!("missing {device}"))
    };
    for read in [true, false] {
        let flash = find("flash-x4-pcie", read);
        let nvram = find("nvram-pcie", read);
        let mram_pcie = find("mram-pcie", read);
        let mram_ct = find("mram-contutto", read);
        let nvdimm_ct = find("nvdimm-contutto", read);
        // Latency ordering: memory bus < PCIe MRAM < NVRAM < flash.
        assert!(mram_ct.latency.mean() < mram_pcie.latency.mean());
        assert!(nvdimm_ct.latency.mean() < mram_pcie.latency.mean());
        assert!(mram_pcie.latency.mean() < nvram.latency.mean());
        assert!(nvram.latency.mean() < flash.latency.mean());
        // IOPS ordering mirrors it.
        assert!(mram_ct.iops > mram_pcie.iops);
        assert!(mram_pcie.iops > nvram.iops);
    }
    // The headline factors (ConTutto vs NVRAM PCIe).
    let read_gain = find("nvram-pcie", true).latency.mean().as_ns_f64()
        / find("mram-contutto", true).latency.mean().as_ns_f64();
    assert!(
        (4.0..9.0).contains(&read_gain),
        "paper 6.6x, measured {read_gain}"
    );
    let write_gain = find("nvram-pcie", false).latency.mean().as_ns_f64()
        / find("mram-contutto", false).latency.mean().as_ns_f64();
    assert!(write_gain > read_gain, "write gains exceed read gains");
}

#[test]
fn table5_factors_match() {
    let rows = bench::table5();
    let factor = |i: usize| rows[i].contutto / rows[i].software;
    // Paper: memcpy 1.9x, min/max 21x, FFT 1.9x.
    assert!((1.4..2.5).contains(&factor(0)), "memcpy {}", factor(0));
    assert!((15.0..30.0).contains(&factor(1)), "minmax {}", factor(1));
    assert!((1.4..2.5).contains(&factor(2)), "fft {}", factor(2));
    // And absolute values are close to the paper's.
    assert!((rows[0].contutto - 6.0).abs() < 0.5);
    assert!((rows[1].contutto - 10.5).abs() < 1.0);
    assert!((rows[2].contutto - 1.3).abs() < 0.15);
}
