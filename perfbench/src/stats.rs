//! Small statistics and hashing helpers: medians, the tail-percentile
//! rule, a seeded generator for cell order and kernel inputs, and the
//! FNV-1a digest the record checks use.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0 < pct <= 100) of sorted `values`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles the tail rule chooses from, lowest first.
const TAIL_CANDIDATES: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A tail summary: the highest candidate percentile that still has at
/// least [`Tail::MIN_BEYOND`] samples above its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// How many samples lie beyond its rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

impl Tail {
    /// Samples that must lie beyond a percentile for it to be reported.
    pub const MIN_BEYOND: usize = 10;
}

/// Applies the tail rule to `values`. With fewer than
/// `2 * MIN_BEYOND` samples no percentile qualifies, and the median is
/// reported with its (short) count beyond, so the caller can print it.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = |pct: f64| n - ((pct * n as f64 / 100.0).ceil() as usize).min(n);
    let pct = TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(p) >= Tail::MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: if n == 0 { 0.0 } else { percentile(&v, pct) },
        beyond: beyond(pct),
        samples: n,
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the seeded generator behind cell order and kernel inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn next_signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=1113).map(f64::from).collect();
        let t = tail(&samples);
        // p99 leaves 1113 - ceil(1101.87) = 11 samples beyond; p99.9
        // would leave only 1.
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.beyond, 11);
        assert_eq!(t.value, 1102.0);
        assert_eq!(t.samples, 1113);

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred);
        assert_eq!((t.pct, t.beyond, t.value), (90.0, 10, 90.0));
    }

    #[test]
    fn tail_falls_back_to_the_median_on_few_samples() {
        let t = tail(&[5.0, 1.0, 3.0, 2.0]);
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 2.0, 2, 4));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c = (0..50).collect::<Vec<u32>>();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }
}
