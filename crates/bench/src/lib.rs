//! Benchmark and reproduction harness for the Kung 1988 deadlock-avoidance
//! paper: one experiment per figure (`F1`–`F10`), the Theorem 1 campaign
//! (`T1`) and the extension experiments (`E1`–`E6`).
//!
//! The [`experiments`] module holds the runnable experiments; the `repro`
//! binary prints them; the Criterion benches in `benches/` measure the
//! performance-sensitive pieces (analysis passes and the simulator).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::time::Duration;

pub mod experiments;

pub use experiments::{Experiment, EXPERIMENTS};

/// Times two arms of a ratio bench in alternating rounds and returns each
/// arm's fastest round: `(min of a, min of b)`.
///
/// Each arm times itself and returns its elapsed time, so setup it does
/// outside its own timer is not counted. Round `i` runs `a` first when
/// `i` is even and `b` first when it is odd, so a slow spell of the
/// machine lands on both arms instead of on whichever ran during it.
///
/// # Panics
///
/// Panics if `rounds` is 0.
pub fn alternating_minima(
    rounds: usize,
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> (Duration, Duration) {
    assert!(rounds >= 1, "a ratio needs at least one round per arm");
    let (mut min_a, mut min_b) = (Duration::MAX, Duration::MAX);
    for round in 0..rounds {
        if round % 2 == 0 {
            min_a = min_a.min(a());
            min_b = min_b.min(b());
        } else {
            min_b = min_b.min(b());
            min_a = min_a.min(a());
        }
    }
    (min_a, min_b)
}
