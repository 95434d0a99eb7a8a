//! The scenario × seed sweep every fault campaign shares.
//!
//! A campaign implements [`Campaign`] on its scenario type: its size
//! presets and floor, one run, its contract and its table. This module
//! runs every scenario over every seed, scenario-major; runs each
//! (scenario, seed) twice under panic capture and marks it
//! non-deterministic unless both runs agree (`run_checked`); and
//! reports violations as `"<scenario> seed <n>: <reason>"`. The power,
//! chaos and checkpoint campaigns keep their own loops but share
//! `catch`, `run_twice`, `run_checked` and the column-spec table
//! renderer (`header`, `row`).

use std::fmt;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};

use contutto_sim::MetricsRegistry;

use crate::report::Bench;

/// A campaign's size presets and floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Seeds `1..=n` and size of the quick `scripts/verify.sh` gate.
    pub smoke: (u64, u64),
    /// Seeds `1..=n` and size of the full sweep.
    pub full: (u64, u64),
    /// The smallest size a run accepts.
    pub floor: u64,
    /// Sizes round up to a multiple of this (1: no rounding).
    pub step: u64,
}

impl Sizing {
    /// `size` raised to the floor and rounded up to the step.
    pub fn clamp(&self, size: u64) -> u64 {
        size.max(self.floor).next_multiple_of(self.step)
    }

    /// The smoke or full preset's seeds and size, with a seed count
    /// and a size overriding them when given.
    pub fn resolve(&self, smoke: bool, seeds: Option<u64>, size: Option<u64>) -> (Vec<u64>, u64) {
        let (n, preset) = if smoke { self.smoke } else { self.full };
        let seeds = (1..=seeds.unwrap_or(n).max(1)).collect();
        (seeds, self.clamp(size.unwrap_or(preset)))
    }
}

/// Defines a size knob type named for what it counts, so a config
/// reads `cfg.lines` or `cfg.requests`.
macro_rules! size_knob {
    ($name:ident, $field:ident, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            /// The count.
            pub $field: u64,
        }

        impl From<u64> for $name {
            fn from($field: u64) -> Self {
                $name { $field }
            }
        }

        impl From<$name> for u64 {
            fn from(size: $name) -> u64 {
                size.$field
            }
        }
    };
}

size_knob!(Lines, lines, "Cache lines written and read back per run.");
size_knob!(Requests, requests, "Requests issued per run.");

/// What one execution of a run measured.
#[derive(Debug, Clone)]
pub struct Measured<R> {
    /// The campaign's own record.
    pub record: R,
    /// Trace fingerprint: byte-identical across same-seed runs.
    pub fingerprint: u64,
    /// Full metrics snapshot for `--metrics` aggregation.
    pub metrics: MetricsRegistry,
}

/// A fault campaign swept over scenarios × seeds, implemented by its
/// scenario type.
pub trait Campaign: Copy + PartialEq + fmt::Debug {
    /// The campaign's own per-run record.
    type Record: Clone + PartialEq + fmt::Debug;
    /// The size knob: [`Lines`] or [`Requests`].
    type Size: Copy + fmt::Debug + From<u64> + Into<u64>;
    /// Campaign name, as the driver reports a failure.
    const NAME: &'static str;
    /// Size presets and floor.
    const SIZING: Sizing;

    /// Every scenario, in table order.
    fn scenarios() -> Vec<Self>;

    /// The scenario's table key.
    fn label(self) -> String;

    /// Executes one run. A panic is caught by the sweep.
    fn run(self, seed: u64, size: u64) -> Measured<Self::Record>;

    /// Why a finished run's record breaks the campaign's contract, if
    /// it does. Panics and divergent reruns are the sweep's to report.
    fn violation(self, record: &Self::Record) -> Option<String>;

    /// Contract breaches only the whole campaign can show.
    fn campaign_violations(_report: &Report<Self>) -> Vec<String> {
        Vec::new()
    }

    /// Renders the campaign table.
    fn render(report: &Report<Self>) -> String;

    /// The campaign's BENCH rows, if it writes any.
    fn bench(_report: &Report<Self>) -> Option<Bench> {
        None
    }
}

/// Seeds and size for one sweep. Derefs to the size knob, so the size
/// reads as `cfg.lines` or `cfg.requests`.
#[derive(Debug, Clone)]
pub struct Config<S: Campaign> {
    /// Seeds swept per scenario.
    pub seeds: Vec<u64>,
    size: S::Size,
}

impl<S: Campaign> Config<S> {
    /// `seeds` at `size`, clamped to the campaign's floor.
    pub fn new(seeds: Vec<u64>, size: u64) -> Self {
        Config {
            seeds,
            size: S::SIZING.clamp(size).into(),
        }
    }

    /// The smoke or full preset with the driver's `--seeds` and
    /// `--lines` applied (see [`Sizing::resolve`]).
    pub fn sized(smoke: bool, seeds: Option<u64>, size: Option<u64>) -> Self {
        let (seeds, size) = S::SIZING.resolve(smoke, seeds, size);
        Config::new(seeds, size)
    }

    /// The quick gate used by `scripts/verify.sh`.
    pub fn smoke() -> Self {
        Config::sized(true, None, None)
    }

    /// The size every run uses.
    pub fn size(&self) -> u64 {
        self.size.into()
    }
}

impl<S: Campaign> Deref for Config<S> {
    type Target = S::Size;

    fn deref(&self) -> &S::Size {
        &self.size
    }
}

/// One scenario × seed run.
#[derive(Debug, Clone)]
pub struct Run<S: Campaign> {
    /// Scenario that ran.
    pub scenario: S,
    /// Seed that parameterized it.
    pub seed: u64,
    /// The campaign's record, or the message of the panic that ended
    /// the run.
    pub result: Result<S::Record, String>,
    /// Trace fingerprint (0 when the run panicked).
    pub fingerprint: u64,
    /// The same-seed rerun matched: same fingerprint and record, or
    /// the same panic.
    pub deterministic: bool,
    /// Metrics snapshot (empty when the run panicked).
    pub metrics: MetricsRegistry,
}

impl<S: Campaign> Run<S> {
    /// The campaign's record; panics with the run's own message if the
    /// run panicked.
    pub fn record(&self) -> &S::Record {
        match &self.result {
            Ok(record) => record,
            Err(msg) => panic!(
                "{} seed {} panicked: {msg}",
                self.scenario.label(),
                self.seed
            ),
        }
    }

    /// The run's contract breach as `"<scenario> seed <n>: <reason>"`,
    /// if any: a panic, a divergent rerun, or the campaign's own
    /// verdict on the record.
    pub fn violation(&self) -> Option<String> {
        let reason = match &self.result {
            Err(msg) => format!("PANIC: {msg}"),
            Ok(_) if !self.deterministic => "same-seed rerun diverged".into(),
            Ok(record) => self.scenario.violation(record)?,
        };
        Some(format!(
            "{} seed {}: {reason}",
            self.scenario.label(),
            self.seed
        ))
    }

    /// Whether the run breaks the contract.
    pub fn is_violation(&self) -> bool {
        self.violation().is_some()
    }
}

/// A whole sweep's result.
#[derive(Debug, Clone)]
pub struct Report<S: Campaign> {
    /// Every run, in scenario-major order.
    pub runs: Vec<Run<S>>,
    /// The size every run used (a BENCH key where the campaign writes
    /// one).
    pub size: u64,
}

impl<S: Campaign> Report<S> {
    /// Every contract breach, one line each: per run, then campaign
    /// wide.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = self.runs.iter().filter_map(Run::violation).collect();
        out.extend(S::campaign_violations(self));
        out
    }

    /// All run metrics merged (counters accumulate, log-histograms
    /// fold).
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for run in &self.runs {
            merged.merge(&run.metrics);
        }
        merged
    }

    /// The campaign table.
    pub fn render_table(&self) -> String {
        S::render(self)
    }

    /// The records of one scenario's finished runs, in seed order.
    pub fn records_of(&self, scenario: S) -> impl Iterator<Item = &S::Record> {
        let runs = self.runs.iter().filter(move |r| r.scenario == scenario);
        runs.filter_map(|r| r.result.as_ref().ok())
    }

    /// The header, rule and one row per run of a table whose columns
    /// are `scenario` (`label_width` wide), `seed`, the campaign's
    /// `columns`, `det` and `fingerprint`, then the run and violation
    /// counts followed by `note`. `cells` fills the campaign's columns
    /// of a finished run; a panicked run shows its message after the
    /// seed instead.
    pub(crate) fn table(
        &self,
        label_width: usize,
        columns: &[Column],
        note: &str,
        cells: impl Fn(&Run<S>, &S::Record) -> Vec<String>,
    ) -> String {
        let mut all = vec![
            Column::left("scenario", label_width),
            Column::right("seed", 4),
        ];
        all.extend_from_slice(columns);
        all.push(Column::right("det", 4));
        all.push(Column::left("fingerprint", 16).wide());
        let mut out = header(&all);
        for run in &self.runs {
            let mut line = vec![run.scenario.label(), run.seed.to_string()];
            match &run.result {
                Ok(record) => {
                    line.extend(cells(run, record));
                    line.push(if run.deterministic { "yes" } else { "NO" }.into());
                    line.push(format!("{:016x}", run.fingerprint));
                }
                Err(msg) => line.push(format!("PANIC: {msg}")),
            }
            out.push_str(&row(&all, &line));
        }
        let violations = self.violations().len();
        out + &format!(
            "\n{} runs, {violations} violations{note}\n",
            self.runs.len()
        )
    }
}

/// Runs `f`, turning a panic into its message.
pub(crate) fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Runs `run` twice: the first result, and whether `same` holds
/// between the two. Same seed must mean the same result, so a `false`
/// verdict is a determinism violation the caller records.
pub(crate) fn run_twice<R>(run: impl Fn() -> R, same: impl FnOnce(&R, &R) -> bool) -> (R, bool) {
    let first = run();
    let rerun = run();
    let verdict = same(&first, &rerun);
    (first, verdict)
}

/// Runs `run` twice, each under panic capture, and returns the first
/// run's record or panic message, fingerprint (0 after a panic) and
/// metrics (empty after a panic), and whether the runs agreed: the
/// same fingerprint and record, or the same panic.
pub(crate) fn run_checked<R: PartialEq>(
    run: impl Fn() -> Measured<R>,
) -> (Result<R, String>, u64, MetricsRegistry, bool) {
    let (first, same) = run_twice(
        || catch(&run),
        |a, b| match (a, b) {
            (Ok(a), Ok(b)) => a.fingerprint == b.fingerprint && a.record == b.record,
            (a, b) => a.as_ref().err() == b.as_ref().err(),
        },
    );
    match first {
        Ok(m) => (Ok(m.record), m.fingerprint, m.metrics, same),
        Err(msg) => (Err(msg), 0, MetricsRegistry::new(), same),
    }
}

/// Runs one scenario at one seed, twice (see `run_checked`).
pub fn run_scenario<S: Campaign>(scenario: S, seed: u64, size: u64) -> Run<S> {
    let (result, fingerprint, metrics, deterministic) = run_checked(|| scenario.run(seed, size));
    Run {
        scenario,
        seed,
        result,
        fingerprint,
        deterministic,
        metrics,
    }
}

/// Runs every scenario over every seed, scenario-major.
pub fn run_campaign<S: Campaign>(cfg: &Config<S>) -> Report<S> {
    let size = cfg.size();
    let runs = S::scenarios()
        .into_iter()
        .flat_map(|scenario| {
            cfg.seeds
                .iter()
                .map(move |&seed| run_scenario(scenario, seed, size))
        })
        .collect();
    Report { runs, size }
}

/// One table column: its header, minimum width (longer cells are not
/// cut), alignment, and the spaces before it (none for the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Column {
    name: &'static str,
    width: usize,
    left: bool,
    gap: usize,
}

impl Column {
    /// A left-aligned column one space after the previous.
    pub(crate) const fn left(name: &'static str, width: usize) -> Self {
        Column {
            name,
            width,
            left: true,
            gap: 1,
        }
    }

    /// A right-aligned column one space after the previous.
    pub(crate) const fn right(name: &'static str, width: usize) -> Self {
        Column {
            left: false,
            ..Column::left(name, width)
        }
    }

    /// The same column two spaces after the previous.
    pub(crate) const fn wide(self) -> Self {
        Column { gap: 2, ..self }
    }
}

/// The header line, then a dashed rule exactly as wide.
pub(crate) fn header(columns: &[Column]) -> String {
    let names: Vec<&str> = columns.iter().map(|c| c.name).collect();
    let line = row(columns, &names);
    let width = line.trim_end_matches('\n').chars().count();
    format!("{line}{}\n", "-".repeat(width))
}

/// One table line: each cell padded to its column. Extra cells are
/// ignored; a short row ends after its last cell.
pub(crate) fn row(columns: &[Column], cells: &[impl AsRef<str>]) -> String {
    let mut out = String::new();
    for (i, (col, cell)) in columns.iter().zip(cells).enumerate() {
        if i > 0 {
            out.push_str(&" ".repeat(col.gap));
        }
        let (cell, w) = (cell.as_ref(), col.width);
        out.push_str(&if col.left {
            format!("{cell:<w$}")
        } else {
            format!("{cell:>w$}")
        });
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        static CALLS: Cell<u64> = const { Cell::new(0) };
    }

    /// `Fine` finishes, `Boom` panics on seed 2, and `Flaky` records a
    /// different value on every execution.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fake {
        Fine,
        Boom,
        Flaky,
    }

    impl Campaign for Fake {
        type Record = u64;
        type Size = Lines;
        const NAME: &'static str = "fake";
        const SIZING: Sizing = Sizing {
            smoke: (2, 3),
            full: (3, 5),
            floor: 2,
            step: 2,
        };

        fn scenarios() -> Vec<Fake> {
            vec![Fake::Fine, Fake::Boom, Fake::Flaky]
        }

        fn label(self) -> String {
            format!("{self:?}").to_lowercase()
        }

        fn run(self, seed: u64, size: u64) -> Measured<u64> {
            let record = match self {
                Fake::Boom if seed == 2 => panic!("boom at seed {seed}"),
                Fake::Fine | Fake::Boom => seed * size,
                Fake::Flaky => CALLS.with(|c| c.replace(c.get() + 1)),
            };
            let metrics = MetricsRegistry::new();
            Measured {
                record,
                fingerprint: seed,
                metrics,
            }
        }

        fn violation(self, _: &u64) -> Option<String> {
            None
        }

        fn render(report: &Report<Fake>) -> String {
            let columns = [Column::right("record", 6).wide()];
            report.table(8, &columns, "", |_, r| vec![r.to_string()])
        }
    }

    #[test]
    fn a_panic_is_reported_and_the_sweep_goes_on_in_scenario_major_order() {
        let report = run_campaign(&Config::<Fake>::new(vec![1, 2, 3], 4));
        let order: Vec<(Fake, u64)> = report.runs.iter().map(|r| (r.scenario, r.seed)).collect();
        let want: Vec<(Fake, u64)> = Fake::scenarios()
            .into_iter()
            .flat_map(|s| [1, 2, 3].map(|seed| (s, seed)))
            .collect();
        assert_eq!(order, want);
        let boom = report.runs.iter().filter(|r| r.scenario == Fake::Boom);
        let boom: Vec<_> = boom.map(|r| &r.result).collect();
        let panicked = Err("boom at seed 2".to_string());
        assert_eq!(boom, [&Ok(4), &panicked, &Ok(12)], "seed 3 still ran");
        let violation = "boom seed 2: PANIC: boom at seed 2".to_string();
        assert!(report.violations().contains(&violation));
        assert!(report
            .render_table()
            .contains("\nboom        2  PANIC: boom at seed 2\n"));
    }

    #[test]
    fn a_rerun_that_differs_is_non_deterministic_and_a_violation() {
        let run = run_scenario(Fake::Flaky, 1, 4);
        assert!(!run.deterministic);
        let violation = run.violation();
        assert_eq!(
            violation.as_deref(),
            Some("flaky seed 1: same-seed rerun diverged")
        );
        let fine = run_scenario(Fake::Fine, 1, 4);
        assert!(fine.deterministic && fine.violation().is_none());
    }

    #[test]
    fn presets_and_overrides_respect_the_floor() {
        let smoke = Config::<Fake>::smoke();
        assert_eq!((smoke.seeds.as_slice(), smoke.lines), (&[1, 2][..], 4));
        assert_eq!(Config::<Fake>::sized(false, None, None).size(), 6);
        let cfg = Config::<Fake>::sized(true, Some(0), Some(1));
        assert_eq!((cfg.seeds.as_slice(), cfg.size()), (&[1][..], 2));
    }

    #[test]
    fn a_row_lines_up_under_its_header_and_the_rule_is_as_wide() {
        let columns = [
            Column::left("scenario", 10),
            Column::right("n", 4),
            Column::left("outcome", 8).wide(),
            Column::right("fingerprint", 12),
        ];
        let table = header(&columns) + &row(&columns, &["clean", "7", "pass", "abc"]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "scenario      n  outcome   fingerprint");
        assert_eq!(lines[1], "-".repeat(lines[0].len()));
        assert_eq!(lines[2], "clean         7  pass              abc");
    }
}
