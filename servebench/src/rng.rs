//! SplitMix64: the benchmark's own seeded generator. Inputs are derived
//! from it alone, so they never depend on a generator inside the program
//! under test.

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, a, b)`: request `b` of client
    /// `a`, say, reproducible without generating its predecessors.
    pub fn keyed(seed: u64, a: u64, b: u64) -> Rng {
        let mut r = Rng(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407));
        r.0 ^= r.next_u64() ^ b.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁵⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo + 1) as usize) as u32
    }

    /// `k` distinct indices from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k.min(n));
        all
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        self.distinct(n, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_keys_are_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let x = Rng::keyed(7, 0, 1).next_u64();
        assert_eq!(x, Rng::keyed(7, 0, 1).next_u64());
        assert_ne!(x, Rng::keyed(7, 1, 0).next_u64());
        assert_ne!(x, Rng::keyed(8, 0, 1).next_u64());
        let d = Rng::new(3).distinct(5, 9);
        let mut s = d.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 5);
    }
}
