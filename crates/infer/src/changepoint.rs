//! Changepoint detection over a measurement sweep grid.
//!
//! A Happy Eyeballs client with Connection Attempt Delay `c` wins over
//! IPv6 while the configured IPv6 delay stays ≤ `c` and switches to IPv4
//! above it. A sweep therefore produces a (noisy) step function
//! `delay → family`, and recovering the client's CAD is a single
//! changepoint problem: find the threshold `t` that minimises the number
//! of observations the step model `v6 for delay ≤ t, v4 for delay > t`
//! misclassifies. This replaces the hand-coded "largest v6 delay /
//! smallest v4 delay" bracket: on clean data the two agree exactly, and
//! on noisy data (loss, jitter conditions) the changepoint fit is robust
//! to individual flipped runs.

use lazyeye_net::Family;

/// The fitted switchover of one sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Changepoint {
    /// The fitted threshold `t` of the step model (`None` encodes `-∞`,
    /// i.e. the model says IPv4 from the start).
    pub threshold_ms: Option<u64>,
    /// Largest configured delay the fitted model still assigns to IPv6 and
    /// at which IPv6 was actually observed. `None` when the model says the
    /// client uses IPv4 from the start (or no IPv6 win exists).
    pub last_v6_delay_ms: Option<u64>,
    /// Smallest configured delay above the fitted threshold at which IPv4
    /// was actually observed. `None` when the client never fell back.
    pub first_v4_delay_ms: Option<u64>,
    /// Observations the best-fit step model misclassifies (0 on clean
    /// sweeps; > 0 signals noise or non-step behaviour).
    pub misfits: u64,
    /// Observations considered (runs with an established family).
    pub total: u64,
}

impl Changepoint {
    /// The open switchover bracket `(last_v6, first_v4)` when the fit
    /// found a genuine switchover.
    pub fn bracket(&self) -> Option<(u64, u64)> {
        match (self.last_v6_delay_ms, self.first_v4_delay_ms) {
            (Some(lo), Some(hi)) if lo < hi => Some((lo, hi)),
            _ => None,
        }
    }

    /// The observations (from the same `points` the fit ran on) that the
    /// fitted model misclassifies, in input order. Empty on clean
    /// sweeps; forensics uses the first entry as the representative
    /// misfit run.
    pub fn misfit_points(&self, points: &[(u64, Family)]) -> Vec<(u64, Family)> {
        points
            .iter()
            .copied()
            .filter(|(d, f)| match self.threshold_ms {
                Some(t) => (*f == Family::V4 && *d <= t) || (*f == Family::V6 && *d > t),
                None => *f == Family::V6,
            })
            .collect()
    }
}

/// Fits the single-changepoint step model to `(configured_delay_ms,
/// established_family)` points and returns the switchover.
///
/// Deterministic: ties between equally good thresholds resolve to the
/// smallest threshold. The input order does not matter.
pub fn detect_switchover(points: &[(u64, Family)]) -> Changepoint {
    let total = points.len() as u64;
    if points.is_empty() {
        return Changepoint {
            threshold_ms: None,
            last_v6_delay_ms: None,
            first_v4_delay_ms: None,
            misfits: 0,
            total,
        };
    }
    let mut sorted: Vec<(u64, Family)> = points.to_vec();
    sorted.sort_by_key(|(d, f)| (*d, *f == Family::V4));

    // Candidate thresholds: "before everything" plus every distinct delay.
    // errors(t) = #v4 at delay ≤ t  +  #v6 at delay > t.
    let v6_total = sorted.iter().filter(|(_, f)| *f == Family::V6).count() as u64;
    let mut best_errors = v6_total; // t = -∞: every v6 win is a misfit.
    let mut best_t: Option<u64> = None; // None encodes -∞.
    let mut candidates = 1u64; // the -∞ threshold
    let mut v4_below = 0u64;
    let mut v6_below = 0u64;
    let mut i = 0;
    while i < sorted.len() {
        candidates += 1;
        let t = sorted[i].0;
        // Fold the whole group of equal delays into the prefix counters.
        while i < sorted.len() && sorted[i].0 == t {
            match sorted[i].1 {
                Family::V4 => v4_below += 1,
                Family::V6 => v6_below += 1,
            }
            i += 1;
        }
        let errors = v4_below + (v6_total - v6_below);
        if errors < best_errors {
            best_errors = errors;
            best_t = Some(t);
        }
    }

    let last_v6_delay_ms = best_t.and_then(|t| {
        sorted
            .iter()
            .filter(|(d, f)| *f == Family::V6 && *d <= t)
            .map(|(d, _)| *d)
            .max()
    });
    let first_v4_delay_ms = sorted
        .iter()
        .filter(|(d, f)| *f == Family::V4 && best_t.is_none_or(|t| *d > t))
        .map(|(d, _)| *d)
        .min();
    crate::metrics::changepoint_candidates().add(candidates);
    crate::metrics::misfit_runs().add(best_errors);
    Changepoint {
        threshold_ms: best_t,
        last_v6_delay_ms,
        first_v4_delay_ms,
        misfits: best_errors,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(step: &[(u64, char)]) -> Vec<(u64, Family)> {
        use lazyeye_net::strip::Cell;
        step.iter()
            .map(|(d, c)| (*d, Family::from_char(*c).unwrap()))
            .collect()
    }

    #[test]
    fn clean_step_recovers_the_bracket() {
        let pts = grid(&[(0, '6'), (100, '6'), (200, '6'), (300, '4'), (400, '4')]);
        let cp = detect_switchover(&pts);
        assert_eq!(cp.last_v6_delay_ms, Some(200));
        assert_eq!(cp.first_v4_delay_ms, Some(300));
        assert_eq!(cp.bracket(), Some((200, 300)));
        assert_eq!(cp.misfits, 0);
        assert_eq!(cp.total, 5);
    }

    #[test]
    fn all_v6_means_no_fallback() {
        let cp = detect_switchover(&grid(&[(0, '6'), (200, '6'), (400, '6')]));
        assert_eq!(cp.last_v6_delay_ms, Some(400));
        assert_eq!(cp.first_v4_delay_ms, None);
        assert_eq!(cp.misfits, 0);
    }

    #[test]
    fn all_v4_means_immediate_fallback() {
        let cp = detect_switchover(&grid(&[(0, '4'), (200, '4')]));
        assert_eq!(cp.last_v6_delay_ms, None);
        assert_eq!(cp.first_v4_delay_ms, Some(0));
        assert_eq!(cp.misfits, 0);
    }

    #[test]
    fn single_flipped_run_does_not_move_the_changepoint() {
        // A lossy run flipped one 100 ms repetition to v4; the hand-coded
        // bracket rule would report first_v4 = 100 and an inverted
        // bracket. The changepoint fit shrugs it off as one misfit.
        let pts = grid(&[
            (0, '6'),
            (100, '6'),
            (100, '4'),
            (200, '6'),
            (300, '4'),
            (400, '4'),
        ]);
        let cp = detect_switchover(&pts);
        assert_eq!(cp.last_v6_delay_ms, Some(200));
        assert_eq!(cp.first_v4_delay_ms, Some(300));
        assert_eq!(cp.misfits, 1);
    }

    #[test]
    fn empty_input_is_unmeasurable() {
        let cp = detect_switchover(&[]);
        assert_eq!(cp.last_v6_delay_ms, None);
        assert_eq!(cp.first_v4_delay_ms, None);
        assert_eq!(cp.total, 0);
    }

    #[test]
    fn order_independent() {
        let mut pts = grid(&[(300, '4'), (0, '6'), (400, '4'), (100, '6'), (200, '6')]);
        let a = detect_switchover(&pts);
        pts.reverse();
        assert_eq!(detect_switchover(&pts), a);
    }
}
