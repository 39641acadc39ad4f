/// The reproduction's one deterministic generator: SplitMix64, so a
/// chaos scenario or a load mix is a pure function of its `u64` seed
/// with no dependency on any external RNG crate's stream stability.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the stream. Equal seeds yield equal streams, forever.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform value in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let x = r.range(5, 9);
            assert!((5..9).contains(&x));
        }
    }

    /// The chaos harness samples every scenario from this stream, so a
    /// seed keeps its meaning only while these values stay put.
    #[test]
    fn stream_is_pinned_for_two_seeds() {
        let golden: [(u64, [u64; 4], [u64; 6]); 2] = [
            (
                0,
                [
                    0xe220_a839_7b1d_cdaf,
                    0x6e78_9e6a_a1b9_65f4,
                    0x06c4_5d18_8009_454f,
                    0xf88b_b8a8_724c_81ec,
                ],
                [5, 0, 9, 4, 7, 0],
            ),
            (
                42,
                [
                    0xbdd7_3226_2feb_6e95,
                    0x28ef_e333_b266_f103,
                    0x4752_6757_130f_9f52,
                    0x581c_e1ff_0e4a_e394,
                ],
                [3, 1, 8, 4, 0, 2],
            ),
        ];
        for (seed, raw, below_ten) in golden {
            let mut r = SplitMix64::new(seed);
            assert_eq!(raw.map(|_| r.next_u64()), raw, "seed {seed}");
            let mut r = SplitMix64::new(seed);
            assert_eq!(below_ten.map(|_| r.below(10)), below_ten, "seed {seed}");
        }
    }
}
