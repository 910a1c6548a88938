//! The server's single host-clock accessor.
//!
//! Everything else in the workspace runs on the simulated NAND clock;
//! the network front end is the one component that genuinely lives in
//! host time (token-bucket refill, rate accounting). wslint's
//! `instant-off-sim-clock` rule covers this crate, so every host-clock
//! read is funneled through this module's two vetted `Instant::now()`
//! call sites — nothing device-facing can accidentally mix clocks.
//!
//! Admission control reads time through a [`Clock`], which a server's
//! configuration can swap for a stepped clock so tests do not depend on
//! how fast the host runs.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rhik_ftl::sync::Counter;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The time source of a server's token buckets.
#[derive(Clone, Debug, Default)]
pub enum Clock {
    /// The host's monotonic clock ([`now_ns`]).
    #[default]
    Host,
    /// Advances `step_ns` on every read and never otherwise, so refill
    /// depends on how often admission asks, not on host speed or load.
    Stepped { now: Arc<Counter>, step_ns: u64 },
}

impl Clock {
    /// A stepped clock starting at zero.
    pub fn stepped(step_ns: u64) -> Self {
        Clock::Stepped { now: Arc::new(Counter::new()), step_ns }
    }

    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Host => now_ns(),
            Clock::Stepped { now, step_ns } => {
                now.add(*step_ns);
                now.get()
            }
        }
    }
}

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_advancing() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(now_ns() > a);
    }

    #[test]
    fn stepped_clock_advances_per_read_only() {
        let clock = Clock::stepped(10);
        assert_eq!(clock.now_ns(), 10);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(clock.now_ns(), 20, "host time does not move a stepped clock");
        let shared = clock.clone();
        assert_eq!(shared.now_ns(), 30, "clones share one time line");
    }
}
