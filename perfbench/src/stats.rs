//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least ten samples lie beyond it.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample counts behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pctl {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `v`, or `None`
/// when fewer than [`MIN_BEYOND`] samples rank above it (p99 needs 1000
/// samples, p90 needs 100).
pub fn tail(v: &[f64], p: f64) -> Option<Pctl> {
    if v.is_empty() {
        return None;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    let beyond = s.len() - rank.min(s.len());
    (beyond >= MIN_BEYOND).then(|| Pctl {
        value: s[rank - 1],
        samples: s.len(),
        beyond,
    })
}

/// The median (mean of the middle two for an even count); `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let s = sorted(v);
    let m = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    })
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_and_p90_a_hundred() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = tail(&v, 99.0).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (990.0, 1000, 10));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0), None);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = tail(&v, 90.0).unwrap();
        assert_eq!((p.value, p.beyond), (90.0, 10));
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
