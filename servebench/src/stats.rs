//! Order statistics over samples.

/// The `q`-quantile of `xs` by exact rank (nearest rank, `0 < q <= 1`);
/// sorts `xs` in place. `0.0` for no samples.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The median of `xs` (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
