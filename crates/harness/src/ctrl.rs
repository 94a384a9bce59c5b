//! Cooperative run control and progress for long-running campaign drivers.
//!
//! The resumable drivers ([`crate::certify_resumable`],
//! [`crate::run_triaged_campaign_resumable`]) report a [`Progress`]
//! snapshot after every resolved section and check a shared [`RunCtrl`]
//! at every section boundary: once a stop is requested they finish the
//! section in flight, persist what completed to the [`crate::ResultStore`]
//! and return [`Status::Paused`] instead of a result. Nothing is lost —
//! re-invoking the same driver against the same store serves the
//! finished sections as hits and executes only the remainder. This is the
//! primitive `sor-server` builds pause/resume and graceful shutdown on;
//! its job registry persists the same [`Progress`] (and reuses it for the
//! campaign kind, whose work units are Figure-8 cells).

use sor_stats::OutcomeCounts;
use std::sync::atomic::{AtomicBool, Ordering};

/// A shared stop flag a driver polls between sections.
///
/// One `RunCtrl` is meant to be shared (via `Arc`) between the thread
/// executing a job and whoever may want to interrupt it — a pause
/// endpoint, a shutdown drain, a test. Requesting a stop is idempotent
/// and takes effect at the next section boundary; it never aborts an
/// injection mid-flight, so stores only ever see whole sections.
#[derive(Debug, Default)]
pub struct RunCtrl {
    stop: AtomicBool,
}

impl RunCtrl {
    /// A fresh control with no stop requested.
    pub fn new() -> Self {
        RunCtrl::default()
    }

    /// Asks the driver to pause at the next section boundary.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether a stop has been requested.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Re-arms the control so a paused job can be resumed under it.
    pub fn clear(&self) {
        self.stop.store(false, Ordering::Release);
    }
}

/// A snapshot of a driver's position, emitted after every resolved work
/// unit (a section, or a campaign cell).
///
/// `counts` aggregates the outcome histograms of every unit resolved so
/// far — cached and fresh — so a client watching a campaign sees the
/// classified fraction (and its Wilson interval, via
/// [`OutcomeCounts::sdc_ci95`]) converge unit by unit toward the final
/// report.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Work units resolved so far (store hits + freshly executed).
    pub done: u64,
    /// Work units the run was split into.
    pub total: u64,
    /// Units served from the store without executing anything.
    pub hits: u64,
    /// Injections executed by this run so far.
    pub fresh_injections: u64,
    /// Outcome histogram aggregated over every resolved unit.
    pub counts: OutcomeCounts,
}

/// What a resumable driver run ended as.
#[derive(Debug, Clone)]
pub enum Status<T> {
    /// Every section resolved; the composed result is exact.
    Done(T),
    /// A stop was requested: completed sections are persisted in the
    /// store, and re-invoking with the same arguments resumes from here.
    Paused,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_round_trips() {
        let c = RunCtrl::new();
        assert!(!c.stop_requested());
        c.request_stop();
        c.request_stop();
        assert!(c.stop_requested());
        c.clear();
        assert!(!c.stop_requested());
    }
}
