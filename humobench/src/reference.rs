//! A fixed reference task, timed around every iteration, that states the
//! iteration's timings at a reference host speed.
//!
//! A shared host runs the same code at speeds that differ by half or more
//! from one minute to the next, and a run can sit in a slow spell from start
//! to end. The reference task (sorting a few megabytes of pseudo-random
//! integers) slows down with the host in the same proportion as the
//! workloads, so an iteration's wall times are scaled by the reference task's
//! nominal time over its mean time measured before, during (between turns)
//! and after the iteration. A scaled time reads as the wall time on a host
//! where the reference task takes [`NOMINAL_S`].

use std::cell::RefCell;
use std::time::Instant;

/// The reference task's time on the reference host.
pub const NOMINAL_S: f64 = 0.010;
/// Integers the reference task sorts.
const LEN: usize = 400_000;
/// Times the task runs per measurement; the shortest time counts, so that a
/// single interruption is left out.
const REPEATS: usize = 3;

thread_local! {
    /// The integers the task sorts, allocated once, so that the task adds the
    /// same amount to the process's peak memory wherever in a run it runs.
    static VALUES: RefCell<Vec<u64>> = RefCell::new(Vec::with_capacity(LEN));
}

/// The reference task's shortest time over [`REPEATS`] runs, in seconds.
pub fn measure() -> f64 {
    (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(task());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Sorts xorshift-generated integers and returns the middle one.
fn task() -> u64 {
    VALUES.with(|values| {
        let mut values = values.borrow_mut();
        values.clear();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        values.extend((0..LEN).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        values.sort_unstable();
        values[LEN / 2]
    })
}

/// The factor that scales wall times measured alongside the reference task's
/// times `reference_s` to the reference host.
pub fn scale(reference_s: &[f64]) -> f64 {
    NOMINAL_S * reference_s.len() as f64 / reference_s.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_task_is_deterministic() {
        assert_eq!(task(), task());
    }

    #[test]
    fn scale_is_one_at_nominal_speed_and_halves_times_on_a_host_twice_as_slow() {
        assert_eq!(scale(&[NOMINAL_S, NOMINAL_S]), 1.0);
        assert!((scale(&[2.0 * NOMINAL_S; 3]) - 0.5).abs() < 1e-12);
        assert!((scale(&[NOMINAL_S, 3.0 * NOMINAL_S]) - 0.5).abs() < 1e-12);
    }
}
