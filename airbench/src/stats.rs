//! Order statistics over timing samples.

/// The `q`-quantile (`0.0 ..= 1.0`) of `samples`, linearly interpolated
/// between the two nearest ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Operation `i`'s fastest time over repeated rounds of the same
/// operations: element `i` of the result is the minimum of
/// `rounds[..][i]`. On a shared machine other tenants slow whole stretches
/// of a run by a third or more; the fastest repetition of each operation is
/// the figure that repeats from run to run.
///
/// # Panics
///
/// Panics if the rounds differ in length.
pub fn per_op_fastest<'a>(rounds: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let rounds: Vec<&[f64]> = rounds.into_iter().collect();
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    assert!(
        rounds.iter().all(|r| r.len() == first.len()),
        "rounds repeat the same operations"
    );
    (0..first.len())
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn per_op_fastest_ignores_slow_rounds() {
        let a = [1.0, 10.0];
        let b = [1.2, 9.0];
        let slow = [5.0, 50.0];
        assert_eq!(per_op_fastest([&a[..], &b[..], &slow[..]]), vec![1.0, 9.0]);
    }
}
