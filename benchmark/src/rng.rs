//! Seeded input generation: splitmix64, so the same `--seed` gives the
//! same inputs on any machine and no dependency is needed.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label so each
    /// consumer (geometry jitter, client order, ...) draws independently.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A factor uniform in [1 − amp, 1 + amp).
    pub fn jitter(&mut self, amp: f64) -> f64 {
        1.0 + amp * (2.0 * self.unit() - 1.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_differs_by_seed_and_label() {
        let draw = |seed, label| {
            let mut r = Rng::new(seed, label);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "geo"), draw(7, "geo"));
        assert_ne!(draw(7, "geo"), draw(8, "geo"));
        assert_ne!(draw(7, "geo"), draw(7, "order"));
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = Rng::new(1, "j");
        for _ in 0..1000 {
            let f = r.jitter(0.03);
            assert!((0.97..1.03).contains(&f));
        }
    }
}
