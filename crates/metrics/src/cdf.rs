//! Weighted empirical CDFs, used by every CDF figure in the paper.

/// One CDF step: after sorting by value, `cum` is the cumulative weight at
/// `value` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// The sample value (e.g. a loss percentage).
    pub value: f64,
    /// Cumulative weight/probability up to and including `value`.
    pub cum: f64,
}

/// A weighted empirical CDF.
#[derive(Debug, Clone)]
pub struct Cdf {
    points: Vec<CdfPoint>,
}

impl Cdf {
    /// Build from unweighted samples (each weight 1, normalized).
    pub fn from_samples(samples: &[f64]) -> Self {
        Self::from_weighted(samples.iter().map(|&v| (v, 1.0)))
    }

    /// Build from `(value, weight)` pairs; weights are normalized to 1.
    pub fn from_weighted<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut items: Vec<(f64, f64)> = iter.into_iter().collect();
        items.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let total: f64 = items.iter().map(|(_, w)| w).sum();
        let norm = if total > 0.0 { total } else { 1.0 };
        let mut points = Vec::with_capacity(items.len());
        let mut acc = 0.0;
        for (v, w) in items {
            acc += w / norm;
            // Merge equal values into one step.
            match points.last_mut() {
                Some(CdfPoint { value, cum }) if *value == v => *cum = acc,
                _ => points.push(CdfPoint { value: v, cum: acc }),
            }
        }
        Cdf { points }
    }

    /// The CDF steps in ascending value order.
    pub fn points(&self) -> &[CdfPoint] {
        &self.points
    }

    /// Fraction of mass at or below `v`.
    pub fn at(&self, v: f64) -> f64 {
        let mut best = 0.0;
        for p in &self.points {
            if p.value <= v {
                best = p.cum;
            } else {
                break;
            }
        }
        best
    }

    /// The `q`-quantile (smallest value with cumulative mass ≥ q).
    pub fn quantile(&self, q: f64) -> f64 {
        for p in &self.points {
            if p.cum + 1e-12 >= q {
                return p.value;
            }
        }
        self.points.last().map_or(f64::NAN, |p| p.value)
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_cdf() {
        let c = Cdf::from_samples(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(1.0), 0.25);
        assert_eq!(c.at(2.0), 0.75);
        assert_eq!(c.at(10.0), 1.0);
        assert_eq!(c.median(), 2.0);
    }

    #[test]
    fn weighted_cdf_quantiles() {
        let c = Cdf::from_weighted(vec![(0.0, 0.9), (0.5, 0.09), (1.0, 0.01)]);
        assert_eq!(c.quantile(0.9), 0.0);
        assert_eq!(c.quantile(0.95), 0.5);
        assert_eq!(c.quantile(0.999), 1.0);
    }

    #[test]
    fn equal_values_merge() {
        let c = Cdf::from_samples(&[1.0, 1.0, 1.0]);
        assert_eq!(c.points().len(), 1);
        assert_eq!(c.points()[0].cum, 1.0);
    }

    #[test]
    fn empty_cdf_is_sane() {
        let c = Cdf::from_samples(&[]);
        assert!(c.quantile(0.5).is_nan());
        assert_eq!(c.at(1.0), 0.0);
    }
}
