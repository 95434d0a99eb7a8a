//! Regenerates every table and figure of the ConTutto paper from the
//! simulated system and prints them in the paper's layout.
//!
//! ```text
//! cargo run -p contutto-bench --release --bin tables            # everything
//! cargo run -p contutto-bench --release --bin tables -- --table3
//! ```
//!
//! Any argument that names no section prints the usage line and exits
//! with status 2.

#![deny(unsafe_code)]

use std::process::ExitCode;

use contutto_bench as bench;

/// Every section flag; an argument that names none is refused.
const SECTIONS: [&str; 12] = [
    "--table1",
    "--table2",
    "--figure6",
    "--table3",
    "--figure7",
    "--figure8",
    "--table4",
    "--figure9",
    "--figure10",
    "--table5",
    "--mram",
    "--metrics",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !SECTIONS.contains(&a.as_str())) {
        eprintln!(
            "tables: unknown argument {bad:?}\nusage: tables [{}]...",
            SECTIONS.join(" | ")
        );
        return ExitCode::from(2);
    }
    let want = |key: &str| args.is_empty() || args.iter().any(|a| a == key);

    if want("--table1") {
        print_table1();
    }
    if want("--table2") {
        print_table2();
    }
    if want("--figure6") {
        print_figure6();
    }
    if want("--table3") {
        print_table3();
    }
    if want("--figure7") {
        print_figure7();
    }
    if want("--figure8") {
        print_figure8();
    }
    if want("--table4") {
        print_table4();
    }
    if want("--figure9") || want("--figure10") {
        print_figures9_10();
    }
    if want("--table5") {
        print_table5();
    }
    if want("--mram") {
        print_mram_generations();
    }
    if want("--metrics") {
        print_metrics();
    }
    ExitCode::SUCCESS
}

/// Runs a noisy-channel replay scenario with tracing enabled and
/// renders the full hierarchical metrics registry: per-direction frame
/// counters, CRC failures, replay counts, cache and device activity.
fn print_metrics() {
    use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
    use contutto_dmi::command::CacheLine;
    use contutto_dmi::link::BitErrorInjector;
    use contutto_power8::channel::{ChannelConfig, DmiChannel};

    rule("Observability: replay-scenario metrics (2% frame errors, both directions)");
    let mut cfg = ChannelConfig::contutto();
    cfg.down_errors = BitErrorInjector::bernoulli(0.02, 11);
    cfg.up_errors = BitErrorInjector::bernoulli(0.02, 13);
    let mut ch = DmiChannel::new(
        cfg,
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    let tracer = ch.enable_tracing(4096);
    for i in 0..16u64 {
        let line = CacheLine::patterned(i);
        ch.write_line_blocking(i * 128, line).expect("tags free");
        let (back, _) = ch.read_line_blocking(i * 128).expect("tags free");
        assert_eq!(back, line, "data survived the noisy link");
    }
    print!("{}", ch.metrics().render());
    println!(
        "trace: {} events recorded ({} retained), fingerprint {:016x}",
        tracer.total_recorded(),
        tracer.len(),
        tracer.fingerprint()
    );
    print_overload_metrics();
}

/// Runs a short overload scenario — hedged reads with deadlines
/// against a slowed mirrored primary — and renders the system-level
/// registry so the `system.overload.*` counters show with live values.
fn print_overload_metrics() {
    use contutto_core::{ContuttoConfig, MemoryPopulation};
    use contutto_power8::failover::FailoverMode;
    use contutto_power8::firmware::layouts;
    use contutto_power8::inject::FaultAction;
    use contutto_power8::system::Power8System;
    use contutto_power8::{HedgeConfig, OverloadConfig};
    use contutto_sim::SimTime;

    rule("Overload: system metrics (slowed primary, hedged reads, deadlines)");
    let mut sys = Power8System::boot_with_failover(
        layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        11,
        FailoverMode::Mirrored {
            primary: 2,
            mirror: 4,
        },
    )
    .expect("mirrored testbed boots");
    let mut cfg = OverloadConfig::protective();
    cfg.hedge = Some(HedgeConfig {
        after: SimTime::from_ns(400),
        max_in_flight: 8,
    });
    sys.set_overload_config(cfg);
    sys.set_mlp_window(16);
    sys.apply_fault_action(
        sys.now(),
        &FaultAction::SlowChannel {
            slot: 2,
            window: SimTime::from_us(50),
        },
    );
    let base = 4u64 << 30; // the ConTutto region behind slot 2
    let deadline = sys.now() + SimTime::from_us(5);
    let mut issued = 0u64;
    for i in 0..32u64 {
        if sys
            .submit_load_deadline(base + i * 128, Some(deadline))
            .is_ok()
        {
            issued += 1;
        }
    }
    let done = sys.drain();
    assert_eq!(done.len() as u64, issued, "every admitted read resolves");
    print!("{}", sys.metrics().render());
}

fn print_mram_generations() {
    rule("STT-MRAM generations (paper §4.2: iMTJ -> pMTJ migration)");
    println!(
        "{:<30} {:>14} {:>14} {:>20}",
        "generation", "read (ns)", "write (ns)", "write energy (pJ)"
    );
    for row in bench::mram_generations() {
        println!(
            "{:<30} {:>14.0} {:>14.0} {:>20.0}",
            row.generation, row.read_ns, row.write_ns, row.write_energy_pj
        );
    }
}

fn rule(title: &str) {
    println!("\n=== {title} ===");
}

fn print_table1() {
    rule("Table 1. FPGA resource utilization");
    let report = bench::table1();
    println!(
        "{:<48} {:>10} {:>10} {:>6}",
        "Block", "ALMs", "Registers", "M20K"
    );
    for b in &report.blocks {
        println!(
            "{:<48} {:>10} {:>10} {:>6}",
            b.block, b.usage.alms, b.usage.registers, b.usage.m20k
        );
    }
    let total = report.total();
    let (a, r, m) = total.percent_of_device();
    println!(
        "{:<48} {:>10} {:>10} {:>6}",
        "TOTAL", total.alms, total.registers, total.m20k
    );
    println!("utilization: ALMs {a}%  registers {r}%  M20K {m}%  (paper: 43% / 30% / 9%)");
}

fn print_table2() {
    rule("Table 2. Centaur latency settings vs DB2 BLU runtime");
    println!(
        "{:<24} {:>16} {:>18}   paper anchors: 79->5387s ... 249->5802s",
        "Setting", "latency (ns)", "DB2 runtime (s)"
    );
    for row in bench::table2() {
        println!(
            "{:<24} {:>16.1} {:>18.0}",
            row.setting, row.latency_ns, row.db2_seconds
        );
    }
}

fn print_figure6() {
    rule("Figure 6. SPEC CINT2006 ratios with variable latency on Centaur");
    let points = bench::figure6();
    let mut settings: Vec<String> = points.iter().map(|p| p.setting.clone()).collect();
    settings.dedup();
    print!("{:<18}", "benchmark");
    for s in &settings {
        print!(" {:>22}", s.trim_start_matches("centaur-"));
    }
    println!();
    let benchmarks: Vec<&str> = {
        let mut b: Vec<&str> = points.iter().map(|p| p.benchmark).collect();
        b.dedup();
        b.truncate(12);
        b
    };
    for b in benchmarks {
        print!("{b:<18}");
        for s in &settings {
            let p = points
                .iter()
                .find(|p| p.benchmark == b && &p.setting == s)
                .expect("full grid");
            print!(" {:>22.2}", p.ratio);
        }
        println!();
    }
}

fn print_table3() {
    rule("Table 3. Variable latency settings on ConTutto");
    println!(
        "{:<44} {:>18}   paper: 97 / 390 / 438 / 534 / 558 / 293 ns",
        "Configuration", "latency (ns)"
    );
    for row in bench::table3() {
        println!("{:<44} {:>18.1}", row.configuration, row.latency_ns);
    }
}

fn print_figure7() {
    rule("Figure 7. SPEC CINT2006 ratios on ConTutto (Centaur baseline)");
    let points = bench::figure7();
    let mut settings: Vec<String> = points.iter().map(|p| p.setting.clone()).collect();
    settings.dedup();
    print!("{:<18}", "benchmark");
    for s in &settings {
        print!(" {:>18}", s.trim_start_matches("contutto-"));
    }
    println!();
    let benchmarks: Vec<&str> = {
        let mut b: Vec<&str> = points.iter().map(|p| p.benchmark).collect();
        b.dedup();
        b.truncate(12);
        b
    };
    for b in benchmarks {
        print!("{b:<18}");
        for s in &settings {
            let p = points
                .iter()
                .find(|p| p.benchmark == b && &p.setting == s)
                .expect("full grid");
            print!(" {:>18.2}", p.ratio);
        }
        println!();
    }
    let s = bench::figure7_summary();
    println!(
        "summary at slowest knob: {:.0}% of suite <2% degradation, {:.0}% <10%, \
         {:.0}% in 15-35% band, {:.0}% >50% (worst {:.0}%)",
        s.under_2pct * 100.0,
        s.under_10pct * 100.0,
        s.band_15_35 * 100.0,
        s.over_50pct * 100.0,
        s.worst * 100.0
    );
    println!("paper: ~half <2%, ~two-thirds <10%, tail 15-35%, one >50%");
}

fn print_figure8() {
    rule("Figure 8. Endurance comparison of non-volatile memories");
    println!(
        "{:<12} {:>12} {:>12} {:>26}",
        "technology", "log10 min", "log10 max", "days @ 1M writes/s (min)"
    );
    for row in bench::figure8() {
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>26.3}",
            row.technology.to_string(),
            row.log10_min,
            row.log10_max,
            row.lifetime_days_at_1mwps
        );
    }
}

fn print_table4() {
    rule("Table 4. GPFS performance per persistent store");
    println!(
        "{:<28} {:>20} {:>12}   paper: 75 / 15K / 125K",
        "Technology", "Interface", "IOPS"
    );
    for row in bench::table4() {
        println!(
            "{:<28} {:>20} {:>12.0}",
            row.technology, row.interface, row.iops
        );
    }
}

fn print_figures9_10() {
    rule("Figures 9 & 10. FIO IOPS and latency per technology/attach point");
    println!(
        "{:<20} {:>10} {:>12} {:>16}",
        "device", "pattern", "IOPS", "latency (us)"
    );
    for r in bench::figure9_10() {
        let pattern = match r.pattern {
            contutto_workloads::fio::FioPattern::RandRead => "read",
            contutto_workloads::fio::FioPattern::RandWrite => "write",
        };
        println!(
            "{:<20} {:>10} {:>12.0} {:>16.2}",
            r.device,
            pattern,
            r.iops,
            r.latency.mean().as_us_f64()
        );
    }
    println!("paper ratios (ConTutto vs PCIe): MRAM 2.4x/5x lower latency, NVDIMM 7.5x/12.5x");
}

fn print_table5() {
    rule("Table 5. Near-memory acceleration vs software");
    println!(
        "{:<36} {:>14} {:>14} {:>8}   paper: 6/3.2, 10.5/0.5, 1.3/0.68",
        "Function", "ConTutto", "Software", "unit"
    );
    for row in bench::table5() {
        println!(
            "{:<36} {:>14.2} {:>14.2} {:>8}",
            row.function, row.contutto, row.software, row.unit
        );
    }
}
