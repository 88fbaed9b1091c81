//! Order statistics and the result record every pass fills in.

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, by
/// nearest rank: p90 once there are 100 samples, a lower order
/// statistic below that. Returns `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len == 0 {
        return (0.0, 0.0);
    }
    let idx = if len >= 100 {
        (len * 9).div_ceil(10) - 1
    } else {
        len.saturating_sub(11)
    };
    (v[idx], 100.0 * (idx + 1) as f64 / len as f64)
}

/// Laps per chunk of [`chunked`], so each chunk's p90 has ten laps
/// beyond it.
const CHUNK_LAPS: usize = 100;

/// Most chunks [`chunked`] cuts a run into.
const MAX_CHUNKS: usize = 20;

/// A run's laps (in time order) cut into up to [`MAX_CHUNKS`]
/// consecutive, near-equal chunks of at least [`CHUNK_LAPS`] (one chunk
/// when there are fewer laps).
pub fn chunks(laps: &[f64]) -> Vec<&[f64]> {
    let count = (laps.len() / CHUNK_LAPS).clamp(1, MAX_CHUNKS);
    (0..count)
        .map(|i| &laps[i * laps.len() / count..(i + 1) * laps.len() / count])
        .collect()
}

/// Median and tail of a run's laps, robust to the CPU time a shared
/// host steals in bursts: the median over the run's [`chunks`] of each
/// chunk's median and of each chunk's [`tail`]. Returns `(p50, p90)`.
pub fn chunked(laps: &[f64]) -> (f64, f64) {
    let (p50s, p90s): (Vec<f64>, Vec<f64>) = chunks(laps)
        .into_iter()
        .map(|c| (median(c), tail(c).0))
        .unzip();
    (median(&p50s), median(&p90s))
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Collectives attempted and failed: a failure is an error or an
/// output that differs from the oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// Extra correctness conditions beyond the oracle (for example the
    /// traced layer sum); a violated one makes the result incorrect.
    pub violations: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(key, JSON value)` describing how the numbers were produced.
    pub provenance: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn stamp(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.provenance.push((key, value.to_string()));
    }

    pub fn stamp_str(&mut self, key: &'static str, value: &str) {
        self.provenance.push((key, json_string(value)));
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.violations.is_empty() && self.tally.attempted > 0
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number; non-finite values (never expected) become 0.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 40.0);
    }

    #[test]
    fn chunks_keep_a_hundred_laps_each() {
        let xs: Vec<f64> = (0..1999).map(f64::from).collect();
        let c = chunks(&xs);
        assert_eq!(c.len(), 19);
        assert!(c.iter().all(|c| c.len() >= 100));
        assert_eq!(c.iter().map(|c| c.len()).sum::<usize>(), 1999);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
