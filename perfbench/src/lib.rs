//! The dradio benchmark: four paper workloads driven through
//! `CampaignRunner` into a file-backed store, timed end to end with tracing
//! off, and traced layer by layer in a separate run that rebuilds every cell
//! from public calls.
//!
//! * [`workloads`] defines the four campaigns and the seed derivation.
//! * [`timed`] runs the untraced campaign passes and the set-up phase.
//! * [`trace`] runs the traced passes and records their spans.
//! * [`report`] turns passes into metrics and carries the result line,
//!   provenance and the pinned digests and work counters.
//! * [`run`] puts them together into the runs the command line offers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod run;
pub mod timed;
pub mod trace;
pub mod workloads;

/// The median of `values` (the mean of the middle two for an even count;
/// NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile of ascending `sorted` (0 when empty).
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50);
        assert_eq!(nearest_rank(&sorted, 0.99), 99);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }
}
