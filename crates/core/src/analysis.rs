//! The closed-form bounds of Section 4, as executable formulas.
//!
//! These let the experiments print predicted-vs-measured columns and let the
//! tests check that measured I/O stays within the analytical envelopes:
//!
//! * Lemma 4.2 -- the number of possible sorting outcomes of an adversarial
//!   document: `(k!)^((N-1)/k) * ((N-1) mod k)!`;
//! * Theorem 4.4 -- the lower bound
//!   `Omega(max{n, n * log_{m}(k/B)})`;
//! * Theorem 4.5 -- NEXSORT's upper bound
//!   `O(n + n * log_{m}(min{kt, N}/B))`;
//! * the flat-file sorting bound `Theta(n * log_{m}(n))` the baseline obeys.

use nexsort_extmem::MergePlan;

/// Natural log of `x!`, exact summation below 256, Stirling above.
pub fn ln_factorial(x: u64) -> f64 {
    if x < 2 {
        return 0.0;
    }
    if x < 256 {
        return (2..=x).map(|i| (i as f64).ln()).sum();
    }
    let xf = x as f64;
    // Stirling with the 1/(12x) correction: plenty for bound comparisons.
    xf * xf.ln() - xf + 0.5 * (2.0 * std::f64::consts::PI * xf).ln() + 1.0 / (12.0 * xf)
}

/// Lemma 4.2: log (natural) of the number of possible sorting outcomes for
/// an adversarial XML document with `n_elems` elements and max fan-out `k`.
pub fn ln_possible_outcomes(n_elems: u64, k: u64) -> f64 {
    if n_elems <= 1 || k == 0 {
        return 0.0;
    }
    let full = (n_elems - 1) / k;
    let rem = (n_elems - 1) % k;
    full as f64 * ln_factorial(k) + ln_factorial(rem)
}

/// Log (natural) of the number of orderings of a flat file of `n_elems`
/// records: `ln(N!)`. The gap to [`ln_possible_outcomes`] is the paper's
/// "sorting XML is fundamentally easier" claim, quantified.
pub fn ln_flat_outcomes(n_elems: u64) -> f64 {
    ln_factorial(n_elems)
}

fn log_base(base: f64, x: f64) -> f64 {
    if base <= 1.0 || x <= 1.0 {
        return 0.0;
    }
    x.ln() / base.ln()
}

/// Theorem 4.4: the XML-sorting I/O lower bound
/// `max{n, n * log_m(k/B)}` (in block transfers, constants dropped).
///
/// * `n` -- input size in blocks,
/// * `m` -- internal memory in blocks,
/// * `k` -- maximum fan-out,
/// * `b` -- elements per block.
pub fn lower_bound_ios(n: u64, m: u64, k: u64, b: u64) -> f64 {
    let nf = n as f64;
    let log_term = nf * log_base(m as f64, k as f64 / b as f64);
    nf.max(log_term)
}

/// Theorem 4.5: NEXSORT's upper bound
/// `n + n * log_m(min{k*t, N} / B)` where `t` is the sort threshold in
/// elements and `N` the total element count.
pub fn nexsort_bound_ios(n: u64, m: u64, k: u64, t_elems: u64, n_elems: u64, b: u64) -> f64 {
    let nf = n as f64;
    let arg = (k.saturating_mul(t_elems)).min(n_elems) as f64 / b as f64;
    nf + nf * log_base(m as f64, arg)
}

/// The flat-file external sorting bound the key-path baseline obeys:
/// `n * log_m(n)` block transfers (constants dropped), never below `n`.
pub fn mergesort_bound_ios(n: u64, m: u64) -> f64 {
    let nf = n as f64;
    nf.max(nf * log_base(m as f64, nf))
}

/// Number of passes external merge sort makes over the data: one formation
/// pass plus the merge levels of the [`MergePlan`] over that many equal
/// runs, which is `ceil(log_fanin(runs))` (at least one, the final merge).
pub fn predicted_merge_passes(initial_runs: u64, fan_in: u64) -> u32 {
    1 + MergePlan::simulate(fan_in as usize, &vec![1; initial_runs as usize]).depth()
}

/// The constant-factor-match condition of Section 4.2: the NEXSORT bound and
/// the lower bound differ only by a constant when `k >= B^alpha` or
/// `M >= B^alpha` for some `alpha > 1`.
pub fn bounds_match_within_constant(k: u64, m_elems: u64, b: u64, alpha: f64) -> bool {
    let b_alpha = (b as f64).powf(alpha);
    (k as f64) >= b_alpha || (m_elems as f64) >= b_alpha
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_matches_exact_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - (120f64).ln()).abs() < 1e-9);
        // Stirling branch vs exact summation at the boundary.
        let exact: f64 = (2..=300u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(300) - exact).abs() / exact < 1e-6);
    }

    #[test]
    fn xml_outcomes_are_far_fewer_than_flat_outcomes() {
        let n = 1_000_000;
        let k = 85;
        let xml = ln_possible_outcomes(n, k);
        let flat = ln_flat_outcomes(n);
        assert!(xml < flat * 0.45, "xml={xml:.0} flat={flat:.0}");
        // Equal when the tree is flat (root with N-1 children).
        let almost_flat = ln_possible_outcomes(n, n - 1);
        assert!((almost_flat - ln_factorial(n - 1)).abs() < 1e-6);
    }

    #[test]
    fn lemma_4_2_counts_small_cases_exactly() {
        // N=7, k=3: two full fan-outs of 3, remainder 0 -> (3!)^2 = 36.
        let got = ln_possible_outcomes(7, 3).exp().round();
        assert_eq!(got, 36.0);
        // N=6, k=3: (3!)^1 * 2! = 12.
        let got = ln_possible_outcomes(6, 3).exp().round();
        assert_eq!(got, 12.0);
    }

    #[test]
    fn lower_bound_reduces_to_scan_for_small_k() {
        // k <= B: the log term vanishes and the bound is the scan bound n.
        assert_eq!(lower_bound_ios(1000, 64, 16, 32), 1000.0);
        // Large k: the log term dominates.
        let lb = lower_bound_ios(1000, 4, 1 << 20, 32);
        assert!(lb > 1000.0);
    }

    #[test]
    fn nexsort_bound_is_independent_of_total_size_when_kt_small() {
        // With k*t fixed and N growing, the multiplier stays the same: the
        // linearity the paper demonstrates in Figure 6.
        let a = nexsort_bound_ios(1_000, 8, 85, 50, 1_000_000, 25);
        let b = nexsort_bound_ios(10_000, 8, 85, 50, 10_000_000, 25);
        assert!((b / a - 10.0).abs() < 1e-9, "bound scales linearly in n");
    }

    #[test]
    fn mergesort_bound_grows_superlinearly_but_nexsort_does_not() {
        let m = 8;
        let ratio = |n: u64| mergesort_bound_ios(10 * n, m) / mergesort_bound_ios(n, m);
        assert!(ratio(10_000) > 10.0, "merge sort superlinear");
        let nx = |n: u64| nexsort_bound_ios(n, m, 85, 50, n * 25, 25);
        let r = nx(100_000) / nx(10_000);
        assert!((r - 10.0).abs() < 1e-9, "nexsort linear");
    }

    #[test]
    fn nexsort_bound_within_constant_of_lower_bound_when_condition_holds() {
        // k >= B^alpha with alpha = 1.5: B=16, k=64=16^1.5.
        assert!(bounds_match_within_constant(64, 0, 16, 1.5));
        assert!(!bounds_match_within_constant(63, 1, 16, 1.5));
        let (n, m, k, b) = (10_000u64, 64u64, 64u64, 16u64);
        let lb = lower_bound_ios(n, m, k, b);
        let ub = nexsort_bound_ios(n, m, k, b, n * b, b);
        assert!(ub <= 8.0 * lb.max(n as f64), "constant factor gap: ub={ub} lb={lb}");
    }

    #[test]
    fn predicted_passes_match_hand_counts() {
        assert_eq!(predicted_merge_passes(1, 8), 2);
        assert_eq!(predicted_merge_passes(8, 8), 2);
        assert_eq!(predicted_merge_passes(9, 8), 3);
        assert_eq!(predicted_merge_passes(64, 8), 3);
        assert_eq!(predicted_merge_passes(65, 8), 4);
    }
}

/// A concrete (constants-included) cost model for NEXSORT in the common
/// regime where all subtree sorts run in internal memory, under the
/// **published** data-stack policy (`data_stack_frames: 1`: one resident
/// frame, every subtree range streamed through the device). Derived from
/// the implementation's pass structure and validated against measurements
/// (see `tests/io_bounds.rs`):
///
/// * read the input: `n`;
/// * data stack: `~2n` (page-out on push, range read at sort) plus `~2`
///   I/Os per sort (flush of the resident frame, pointer push-back);
/// * run writes: `n` plus a partial block per sort;
/// * output phase: run reads `n` plus a block re-read per pointer followed,
///   and `n` output writes.
///
/// Total: about `6n + 5x` block transfers.
pub fn predict_nexsort_total(n_blocks: u64, subtree_sorts: u64) -> u64 {
    6 * n_blocks + 5 * subtree_sorts
}

/// The same regime under the sorter's default, the lending data stack,
/// while the open path fits the frames the budget lends: every subtree sort
/// takes its range off the resident window, so the data stack costs
/// nothing. What is left is the input read `n`, the run writes `n + x`, and
/// the unchanged output phase `2n + x`: about `4n + 2x` block transfers.
pub fn predict_nexsort_total_lent(n_blocks: u64, subtree_sorts: u64) -> u64 {
    4 * n_blocks + 2 * subtree_sorts
}

/// The matching concrete model for the key-path merge-sort baseline:
/// read `n`, then `passes - 1` full read+write passes over the *pathed*
/// bytes (`blowup` = pathed/plain size, >= 1), then the final output write
/// of `n` plain blocks.
pub fn predict_mergesort_total(n_blocks: u64, passes: u32, path_blowup: f64) -> u64 {
    let pathed = (n_blocks as f64 * path_blowup) as u64;
    let rw_passes = passes.max(1) as u64 - 1;
    n_blocks // input read
        + pathed // run formation writes
        + 2 * pathed * rw_passes.saturating_sub(1) // intermediate merges
        + pathed // final merge reads
        + n_blocks // output write
}

#[cfg(test)]
mod prediction_tests {
    use super::*;

    #[test]
    fn nexsort_prediction_scales_linearly() {
        assert_eq!(predict_nexsort_total(1000, 0), 6000);
        assert_eq!(predict_nexsort_total(2000, 100) - predict_nexsort_total(1000, 100), 6000);
    }

    #[test]
    fn the_lent_window_drops_the_data_stack_terms() {
        assert_eq!(predict_nexsort_total(1000, 100) - predict_nexsort_total_lent(1000, 100), 2300);
    }

    #[test]
    fn mergesort_prediction_grows_with_passes() {
        let two = predict_mergesort_total(1000, 2, 1.3);
        let three = predict_mergesort_total(1000, 3, 1.3);
        let four = predict_mergesort_total(1000, 4, 1.3);
        assert!(two < three && three < four);
        assert_eq!(three - two, 2 * 1300);
    }
}
