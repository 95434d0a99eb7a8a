//! The Flexible Service Processor (FSP).
//!
//! Paper §3.2: "All IBM POWER systems contain a low level 'service
//! processor' ... The purpose of this service architecture is to
//! automatically derive the structure of the machine and configure
//! each feature card prior to boot. It also periodically checks the
//! correct operation of all the hardware, and recovers from errors
//! and system faults. The service processor maintains long-term logs
//! of faults and errors on each piece of hardware, and disables
//! hardware that generates too many errors."

use std::collections::{HashMap, VecDeque};

use contutto_sim::persist_fields;
use contutto_sim::snapshot::{persist_sorted_map, restore_map, Persist, RestoreError, SnapReader};
use contutto_sim::SimTime;

/// Severity of a logged event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational (training retry, presence detect).
    Info,
    /// Recovered error (replay, corrected CRC).
    Recovered,
    /// Unrecovered error (training failure, FRTL violation).
    Unrecovered,
}

/// One FSP log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// When it was logged.
    pub at: SimTime,
    /// Hardware unit (DMI channel index).
    pub channel: usize,
    /// Severity.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

/// FSP-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FspError {
    /// The channel has been deconfigured and must not be used.
    ChannelDeconfigured {
        /// The dead channel.
        channel: usize,
    },
}

impl std::fmt::Display for FspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FspError::ChannelDeconfigured { channel } => {
                write!(f, "channel {channel} is deconfigured")
            }
        }
    }
}

impl std::error::Error for FspError {}

/// Default bound on the in-memory event log. A real FSP keeps
/// long-term logs on its own flash; our model keeps the most recent
/// window and counts what scrolled off.
pub const DEFAULT_LOG_CAPACITY: usize = 512;

/// The service processor: log store + error budgets + deconfiguration.
#[derive(Debug)]
pub struct ServiceProcessor {
    log: VecDeque<LogEntry>,
    log_capacity: usize,
    log_dropped: u64,
    unrecovered_counts: HashMap<usize, u32>,
    deconfigured: Vec<usize>,
    /// Unrecovered errors tolerated per channel before deconfiguration.
    error_budget: u32,
    /// Circuit-breaker state reports received from the system's
    /// overload layer (open/close transitions).
    breaker_reports: u64,
}

impl ServiceProcessor {
    /// Creates an FSP with the given per-channel error budget and the
    /// default log capacity.
    pub fn new(error_budget: u32) -> Self {
        ServiceProcessor::with_log_capacity(error_budget, DEFAULT_LOG_CAPACITY)
    }

    /// Creates an FSP with an explicit log capacity (entries beyond it
    /// evict the oldest and increment [`Self::log_dropped`]).
    ///
    /// # Panics
    ///
    /// Panics if `log_capacity` is zero.
    pub fn with_log_capacity(error_budget: u32, log_capacity: usize) -> Self {
        assert!(log_capacity > 0, "log capacity must be nonzero");
        ServiceProcessor {
            log: VecDeque::new(),
            log_capacity,
            log_dropped: 0,
            unrecovered_counts: HashMap::new(),
            deconfigured: Vec::new(),
            error_budget,
            breaker_reports: 0,
        }
    }

    fn push_entry(&mut self, entry: LogEntry) {
        if self.log.len() == self.log_capacity {
            self.log.pop_front();
            self.log_dropped += 1;
        }
        self.log.push_back(entry);
    }

    /// Logs an event; unrecovered events count against the channel's
    /// budget and may deconfigure it.
    pub fn log(&mut self, at: SimTime, channel: usize, severity: Severity, message: &str) {
        self.push_entry(LogEntry {
            at,
            channel,
            severity,
            message: message.to_string(),
        });
        if severity == Severity::Unrecovered {
            let count = self.unrecovered_counts.entry(channel).or_insert(0);
            *count += 1;
            if *count > self.error_budget && !self.deconfigured.contains(&channel) {
                self.deconfigured.push(channel);
                self.push_entry(LogEntry {
                    at,
                    channel,
                    severity: Severity::Unrecovered,
                    message: "channel deconfigured (error budget exhausted)".to_string(),
                });
            }
        }
    }

    /// Records a circuit-breaker transition reported by the overload
    /// layer. A breaker opening is evidence of persistent failure the
    /// FSP folds into its own picture of channel health: the event is
    /// logged ([`Severity::Recovered`] — the breaker *is* the recovery
    /// action, fast-failing load away from the sick channel) and
    /// counted, but does not by itself charge the unrecovered-error
    /// budget; the ladder-final errors that tripped the breaker already
    /// did.
    pub fn note_breaker(&mut self, at: SimTime, channel: usize, open: bool) {
        self.breaker_reports += 1;
        let message = if open {
            "circuit breaker opened (ladder-final error threshold)"
        } else {
            "circuit breaker closed (probe successes)"
        };
        self.log(at, channel, Severity::Recovered, message);
    }

    /// Breaker transitions reported so far.
    pub fn breaker_reports(&self) -> u64 {
        self.breaker_reports
    }

    /// Takes a channel out of service directly — the firmware's
    /// verdict on a hard fault (hang, final retrain failure) or an
    /// operator's concurrent-maintenance request, as opposed to the
    /// gradual error-budget path. Idempotent.
    pub fn deconfigure(&mut self, at: SimTime, channel: usize, reason: &str) {
        if self.deconfigured.contains(&channel) {
            return;
        }
        self.deconfigured.push(channel);
        self.push_entry(LogEntry {
            at,
            channel,
            severity: Severity::Unrecovered,
            message: format!("channel deconfigured ({reason})"),
        });
    }

    /// Checks a channel is usable.
    ///
    /// # Errors
    ///
    /// [`FspError::ChannelDeconfigured`] once the budget is blown.
    pub fn check_channel(&self, channel: usize) -> Result<(), FspError> {
        if self.is_deconfigured(channel) {
            Err(FspError::ChannelDeconfigured { channel })
        } else {
            Ok(())
        }
    }

    /// Whether a channel has been taken out of service.
    pub fn is_deconfigured(&self, channel: usize) -> bool {
        self.deconfigured.contains(&channel)
    }

    /// The retained event log, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> {
        self.log.iter()
    }

    /// Entries currently retained.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Entries evicted to stay within the capacity bound.
    pub fn log_dropped(&self) -> u64 {
        self.log_dropped
    }

    /// The configured log bound.
    pub fn log_capacity(&self) -> usize {
        self.log_capacity
    }

    /// Channels taken out of service, in deconfiguration order.
    pub fn deconfigured_channels(&self) -> &[usize] {
        &self.deconfigured
    }

    fn capacity_is_nonzero(&self, capacity: &usize) -> Result<(), RestoreError> {
        if *capacity == 0 {
            return Err(RestoreError::Malformed {
                context: "fsp log capacity",
            });
        }
        Ok(())
    }

    fn log_fits(&self) -> Result<(), RestoreError> {
        if self.log.len() > self.log_capacity {
            return Err(RestoreError::Malformed {
                context: "fsp log holds more than its capacity",
            });
        }
        Ok(())
    }

    contutto_sim::state_fields! {
        /// Serializes the FSP's full state: the retained log (entries
        /// are stored verbatim so restored logs render identically),
        /// drop counter, per-channel error budgets spent,
        /// deconfiguration list and breaker reports. A log longer than
        /// its recorded capacity is rejected as malformed.
        pub {
            log_capacity if Self::capacity_is_nonzero,
            log_dropped,
            error_budget,
            breaker_reports,
            log,
            unrecovered_counts with (persist_sorted_map, restore_map),
            deconfigured,
            check Self::log_fits,
        }
    }
}

persist_fields!(LogEntry {
    at,
    channel,
    severity,
    message
});

impl Persist for Severity {
    fn persist(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Severity::Info => 0,
            Severity::Recovered => 1,
            Severity::Unrecovered => 2,
        });
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        match r.u8()? {
            0 => Ok(Severity::Info),
            1 => Ok(Severity::Recovered),
            2 => Ok(Severity::Unrecovered),
            _ => Err(RestoreError::Malformed {
                context: "fsp severity discriminant",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_events_never_deconfigure() {
        let mut fsp = ServiceProcessor::new(2);
        for _ in 0..100 {
            fsp.log(SimTime::ZERO, 0, Severity::Info, "training retry");
        }
        assert!(fsp.check_channel(0).is_ok());
        assert_eq!(fsp.log_len(), 100);
    }

    #[test]
    fn budget_exhaustion_deconfigures() {
        let mut fsp = ServiceProcessor::new(2);
        for i in 0..3 {
            assert!(fsp.check_channel(4).is_ok(), "still alive at {i}");
            fsp.log(
                SimTime::from_us(i),
                4,
                Severity::Unrecovered,
                "frtl exceeded",
            );
        }
        assert_eq!(
            fsp.check_channel(4),
            Err(FspError::ChannelDeconfigured { channel: 4 })
        );
        assert!(fsp.is_deconfigured(4));
        assert_eq!(fsp.deconfigured_channels(), &[4]);
        // Other channels unaffected.
        assert!(fsp.check_channel(5).is_ok());
    }

    #[test]
    fn recovered_errors_are_logged_but_free() {
        let mut fsp = ServiceProcessor::new(0);
        fsp.log(SimTime::ZERO, 1, Severity::Recovered, "replay completed");
        assert!(fsp.check_channel(1).is_ok());
    }

    #[test]
    fn deconfiguration_is_logged() {
        let mut fsp = ServiceProcessor::new(0);
        fsp.log(SimTime::ZERO, 2, Severity::Unrecovered, "boom");
        let last = fsp.entries().last().unwrap();
        assert!(last.message.contains("deconfigured"));
    }

    #[test]
    fn explicit_deconfigure_is_immediate_and_idempotent() {
        let mut fsp = ServiceProcessor::new(100);
        fsp.deconfigure(SimTime::from_us(3), 6, "maintenance pull");
        assert!(fsp.is_deconfigured(6));
        assert_eq!(fsp.deconfigured_channels(), &[6]);
        let logged = fsp.log_len();
        fsp.deconfigure(SimTime::from_us(4), 6, "again");
        assert_eq!(fsp.deconfigured_channels(), &[6], "no duplicate entry");
        assert_eq!(fsp.log_len(), logged, "idempotent calls log nothing");
        let last = fsp.entries().last().unwrap();
        assert!(last.message.contains("maintenance pull"));
    }

    #[test]
    fn log_is_bounded_and_counts_drops() {
        let mut fsp = ServiceProcessor::with_log_capacity(1000, 8);
        for i in 0..20u64 {
            fsp.log(SimTime::from_us(i), 0, Severity::Info, &format!("e{i}"));
        }
        assert_eq!(fsp.log_len(), 8);
        assert_eq!(fsp.log_capacity(), 8);
        assert_eq!(fsp.log_dropped(), 12);
        // Oldest entries were the ones evicted.
        let first = fsp.entries().next().unwrap();
        assert_eq!(first.message, "e12");
    }
}
