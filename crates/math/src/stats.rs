//! Small statistics helpers used for noise measurement (paper Table 3) and
//! FFT error reporting in decibels (paper Figure 8).

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns 0 for an empty slice.
fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stdev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Root mean square.
///
/// NaN entries *propagate* (the squared sum is poisoned): an RMS over
/// corrupt data must not masquerade as a valid magnitude.
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|&x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Largest absolute value.
///
/// NaN entries are *ignored* (`f64::max` propagates the non-NaN operand):
/// the result is the largest magnitude among the finite-or-infinite
/// entries, or 0 if there are none. Noise measurement uses this to report
/// the worst observed error even when a reference slot was unusable.
pub fn max_abs(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, &x| acc.max(x.abs()))
}

/// Ratio expressed in decibels: `20·log10(amplitude_ratio)`.
///
/// Returns `-inf` dB for a zero ratio, matching the convention in the
/// paper's Figure 8 where smaller (more negative) is better.
pub fn amplitude_db(ratio: f64) -> f64 {
    20.0 * ratio.log10()
}

/// Error level of `approx` relative to `reference`, in dB
/// (`20·log10(rms(err)/rms(ref))`).
///
/// Both RMS values are accumulated in one streaming pass with no
/// allocation — this sits inside noise-measurement loops that run once per
/// bootstrapped sample, where a per-call `Vec` of differences was pure
/// overhead. Exact matches (and empty or all-zero references) report
/// `-inf` dB, smaller-is-better as in the paper's Figure 8; NaN anywhere
/// propagates to a NaN result, consistent with [`rms`].
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn error_db(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(reference.len(), approx.len(), "slice length mismatch");
    let mut err_sq = 0.0;
    let mut ref_sq = 0.0;
    for (&r, &a) in reference.iter().zip(approx.iter()) {
        let e = r - a;
        err_sq += e * e;
        ref_sq += r * r;
    }
    if ref_sq == 0.0 {
        return f64::NEG_INFINITY;
    }
    // The shared 1/n factors cancel in the ratio; the sqrt of the quotient
    // equals the quotient of the sqrts exactly for the dB argument.
    amplitude_db((err_sq / ref_sq).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((stdev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn rms_of_constant() {
        assert!((rms(&[3.0, -3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn db_scale() {
        assert!((amplitude_db(0.1) + 20.0).abs() < 1e-9);
        assert!((amplitude_db(1.0)).abs() < 1e-9);
    }

    #[test]
    fn max_abs_ignores_nan() {
        // Documented semantics: f64::max drops the NaN operand, so the
        // largest non-NaN magnitude wins.
        assert_eq!(max_abs(&[1.0, f64::NAN, -3.0]), 3.0);
        assert_eq!(max_abs(&[f64::NAN]), 0.0);
        assert_eq!(max_abs(&[f64::NAN, f64::NAN]), 0.0);
    }

    #[test]
    fn rms_propagates_nan() {
        // Documented semantics: a poisoned square sum stays poisoned.
        assert!(rms(&[1.0, f64::NAN, 2.0]).is_nan());
        assert!(rms(&[f64::NAN]).is_nan());
    }

    #[test]
    fn error_db_propagates_nan() {
        assert!(error_db(&[1.0, 2.0], &[1.0, f64::NAN]).is_nan());
        assert!(error_db(&[f64::NAN, 2.0], &[1.0, 2.0]).is_nan());
    }

    #[test]
    fn error_db_zero_reference_is_neg_inf() {
        assert_eq!(error_db(&[0.0, 0.0], &[0.5, -0.5]), f64::NEG_INFINITY);
        assert_eq!(error_db(&[], &[]), f64::NEG_INFINITY);
    }

    #[test]
    fn error_db_exact_match_is_neg_inf() {
        let xs = [1.0, -2.0, 0.5];
        assert_eq!(error_db(&xs, &xs), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "slice length mismatch")]
    fn error_db_rejects_mismatched_lengths() {
        // A real assert: a release build must not compare a prefix.
        let _ = error_db(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn error_db_ten_percent() {
        let reference = [1.0, 1.0, 1.0, 1.0];
        let approx = [1.1, 1.1, 1.1, 1.1];
        assert!((error_db(&reference, &approx) + 20.0).abs() < 1e-9);
    }
}
