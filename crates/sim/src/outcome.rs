//! Outcome classification against a golden run (paper §2.1).

use crate::machine::{RunResult, RunStatus};
use std::fmt;

/// Effect of an injected fault on the program, per the paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// Correct output despite the fault (unnecessary for Architecturally
    /// Correct Execution).
    UnAce,
    /// Completed with wrong output: silent data corruption.
    Sdc,
    /// Abnormal termination (segmentation fault, division fault, stack
    /// overflow, deliberate abort).
    Segv,
    /// A SWIFT detection trap fired (detected unrecoverable error) —
    /// only produced by the detection-only baseline technique.
    Detected,
    /// The run exceeded its instruction budget (hang). Folded into SDC for
    /// Figure 8 since the paper has no hang category.
    Hang,
}

impl Outcome {
    /// All outcomes, in reporting order.
    pub const ALL: [Outcome; 5] = [
        Outcome::UnAce,
        Outcome::Sdc,
        Outcome::Segv,
        Outcome::Detected,
        Outcome::Hang,
    ];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::UnAce => "unACE",
            Outcome::Sdc => "SDC",
            Outcome::Segv => "SEGV",
            Outcome::Detected => "DUE",
            Outcome::Hang => "Hang",
        }
    }

    /// Collapses to the paper's three Figure-8 buckets (unACE, SDC, SEGV):
    /// `Hang` maps to SDC, `Detected` maps to the SEGV bucket (detection
    /// ends the program abnormally, like a crash), and every other outcome
    /// maps to itself.
    pub fn figure8_bucket(self) -> Outcome {
        match self {
            Outcome::Hang => Outcome::Sdc,
            Outcome::Detected => Outcome::Segv,
            o => o,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classifies a faulty run against the golden (fault-free) run.
pub fn classify(golden: &RunResult, faulty: &RunResult) -> Outcome {
    match faulty.status {
        RunStatus::Segv | RunStatus::Aborted => Outcome::Segv,
        RunStatus::Detected => Outcome::Detected,
        RunStatus::OutOfFuel => Outcome::Hang,
        RunStatus::Completed => {
            if faulty.output == golden.output {
                Outcome::UnAce
            } else {
                Outcome::Sdc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ProbeCounts;

    fn res(status: RunStatus, out: &[u64]) -> RunResult {
        RunResult {
            status,
            output: out.to_vec(),
            dyn_instrs: 10,
            probes: ProbeCounts::default(),
            injected: true,
            fault_pc: None,
            cycles: None,
            cache_hits: None,
            cache_misses: None,
        }
    }

    #[test]
    fn classification_matrix() {
        let golden = res(RunStatus::Completed, &[1, 2, 3]);
        assert_eq!(
            classify(&golden, &res(RunStatus::Completed, &[1, 2, 3])),
            Outcome::UnAce
        );
        assert_eq!(
            classify(&golden, &res(RunStatus::Completed, &[1, 2, 4])),
            Outcome::Sdc
        );
        assert_eq!(
            classify(&golden, &res(RunStatus::Completed, &[1, 2])),
            Outcome::Sdc,
            "truncated output is corruption"
        );
        assert_eq!(
            classify(&golden, &res(RunStatus::Segv, &[1])),
            Outcome::Segv
        );
        assert_eq!(
            classify(&golden, &res(RunStatus::Detected, &[])),
            Outcome::Detected
        );
        assert_eq!(
            classify(&golden, &res(RunStatus::OutOfFuel, &[1, 2, 3])),
            Outcome::Hang
        );
    }

    /// Exhaustive over `Outcome::ALL`: every outcome maps to one of the
    /// paper's three buckets, the fold is idempotent, and each bucket is
    /// pinned explicitly.
    #[test]
    fn figure8_buckets_exhaustive() {
        for o in Outcome::ALL {
            let bucket = o.figure8_bucket();
            assert!(
                matches!(bucket, Outcome::UnAce | Outcome::Sdc | Outcome::Segv),
                "{o} folded to non-bucket {bucket}"
            );
            assert_eq!(bucket.figure8_bucket(), bucket, "fold must be idempotent");
        }
        assert_eq!(Outcome::UnAce.figure8_bucket(), Outcome::UnAce);
        assert_eq!(Outcome::Sdc.figure8_bucket(), Outcome::Sdc);
        assert_eq!(Outcome::Segv.figure8_bucket(), Outcome::Segv);
        assert_eq!(Outcome::Hang.figure8_bucket(), Outcome::Sdc);
        assert_eq!(Outcome::Detected.figure8_bucket(), Outcome::Segv);
    }
}
