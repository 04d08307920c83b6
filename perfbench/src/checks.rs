//! Correctness checks. Each check is one benchmark operation; a failed
//! check is a failed operation, reported on stderr as it happens.

use std::fmt::Display;

/// Tally of checks made.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; `detail` is rendered only when it fails.
    pub fn check<D: Display>(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> D) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {what}: {}", detail());
        }
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
