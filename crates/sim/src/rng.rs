//! Deterministic, splittable random-number generation.
//!
//! Every stochastic choice in the simulator (workload address streams,
//! injection victims, failure times) is drawn from a [`DetRng`] seeded from
//! the run configuration, so a run is a pure function of its configuration.
//! Per-node generators are derived with [`DetRng::split`] so adding a node
//! does not perturb the streams of the others.

/// SplitMix64's state increment γ (the golden-ratio "Weyl" constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: the draw made from state `z`.
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 step, used to derive independent seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

/// Derives an independent seed for stream `stream` of a root seed — the
/// seed-space analogue of [`DetRng::split`].
///
/// Deterministic and order-free: the derived seed depends only on
/// `(root, stream)`, never on how many other streams were derived or in
/// what order. Campaign runners use this to give every grid cell its own
/// reproducible RNG stream regardless of worker scheduling.
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut s = root ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut s)
}

/// A deterministic random-number generator with cheap snapshot/restore.
///
/// Snapshotting matters: backward error recovery must replay a node's
/// reference stream from the last recovery point, which we implement by
/// saving the generator state at each checkpoint commit and restoring it at
/// rollback (see `ftcoma-workloads`).
///
/// # Example
///
/// ```
/// use ftcoma_sim::DetRng;
///
/// let mut a = DetRng::seeded(7);
/// let snap = a.snapshot();
/// let x: u64 = a.next_u64();
/// let mut b = DetRng::restore(&snap);
/// assert_eq!(b.next_u64(), x);
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

/// Opaque saved state of a [`DetRng`]; see [`DetRng::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RngSnapshot(u64);

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        // Avoid the all-zero degenerate state.
        Self {
            state: seed ^ 0xD1B5_4A32_D192_ED03,
        }
    }

    /// Derives an independent generator for stream `stream`.
    ///
    /// Deterministic: the same `(self state, stream)` always yields the same
    /// child. The parent is not advanced.
    pub fn split(&self, stream: u64) -> DetRng {
        DetRng::seeded(derive_seed(self.state, stream))
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiplicative range reduction (Lemire); bias is negligible for
        // simulation purposes and the method is branch-free and fast.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Precomputed-threshold form of [`chance`](Self::chance) for hot
    /// loops: `chance_with(threshold(p))` consumes the same single draw
    /// and returns the *bit-identical* decision as `chance(p)`, but
    /// compares integers instead of converting to `f64` every call.
    ///
    /// Exactness: `unit()` is exactly `k * 2^-53` with `k = x >> 11`, and
    /// `p * 2^53` is an exact exponent shift for any finite `p`, so
    /// `unit() < p  ⟺  k < ceil(p * 2^53)`.
    pub fn threshold(p: f64) -> u64 {
        (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
    }

    /// See [`threshold`](Self::threshold).
    pub fn chance_with(&mut self, threshold: u64) -> bool {
        (self.next_u64() >> 11) < threshold
    }

    /// Precomputed-threshold form of [`geometric`](Self::geometric):
    /// consumes the same draws and returns the same value as
    /// `geometric(p, cap)` when `threshold == Self::threshold(p)`.
    ///
    /// Batched: SplitMix64's state after `k` draws is `s + k·γ`, so the
    /// next four draws are independent `mix(s + k·γ)` evaluations rather
    /// than a dependent chain. The first success in a batch is the lowest
    /// set bit of a 4-bit mask, and the state then advances by exactly the
    /// draws the one-at-a-time loop would consume: up to and including the
    /// first success, or the `cap - n` failures left under the cap.
    pub fn geometric_with(&mut self, threshold: u64, cap: u64) -> u64 {
        let mut n = 0;
        while n < cap {
            let s = self.state;
            let hit =
                |k: u64| u32::from(mix(s.wrapping_add(k.wrapping_mul(GAMMA))) >> 11 < threshold);
            let mask = hit(1) | hit(2) << 1 | hit(3) << 2 | hit(4) << 3;
            // Failures before the first success (32 when there is none).
            let first = u64::from(mask.trailing_zeros());
            let batch = (cap - n).min(4);
            if first < batch {
                self.state = s.wrapping_add((first + 1).wrapping_mul(GAMMA));
                return n + first;
            }
            self.state = s.wrapping_add(batch.wrapping_mul(GAMMA));
            n += batch;
        }
        n
    }

    /// Saves the complete generator state.
    pub fn snapshot(&self) -> RngSnapshot {
        RngSnapshot(self.state)
    }

    /// Reconstructs a generator from a snapshot.
    pub fn restore(snap: &RngSnapshot) -> Self {
        Self { state: snap.0 }
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Samples a point uniformly from the union of half-open windows
    /// `[lo, hi)`, each weighted by its width — the chaos fuzzer's
    /// injection-time sampler (bias failure times into checkpoint or
    /// recovery windows by listing only those). Empty or inverted windows
    /// contribute nothing; returns `None` when the union is empty.
    pub fn in_windows(&mut self, windows: &[(u64, u64)]) -> Option<u64> {
        let total: u64 = windows.iter().map(|&(lo, hi)| hi.saturating_sub(lo)).sum();
        if total == 0 {
            return None;
        }
        let mut k = self.below(total);
        for &(lo, hi) in windows {
            let w = hi.saturating_sub(lo);
            if k < w {
                return Some(lo + k);
            }
            k -= w;
        }
        unreachable!("k < total width")
    }

    /// Samples from a geometric-like distribution: number of failures before
    /// a success with probability `p`, capped at `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `p <= 0` or `p > 1`.
    pub fn geometric(&mut self, p: f64, cap: u64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        let mut n = 0;
        while n < cap && !self.chance(p) {
            n += 1;
        }
        n
    }

    /// Samples an exponentially distributed interval with integer `mean`
    /// (in whatever unit the caller uses — the failure processes use
    /// cycles), by inverse CDF: `⌊-mean · ln U⌋` with `U` uniform in
    /// `(0, 1]`.
    ///
    /// Integer-safe like [`chance_with`](Self::chance_with): `U` is the
    /// exact dyadic `(k+1) · 2⁻⁵³` from a single draw, and `ln` is
    /// evaluated by [`ln_unit`], an in-crate routine built only from
    /// exactly-rounded IEEE primitives (`+ - * /`) — never `f64::ln`,
    /// whose libm implementation varies across platforms — so a sampled
    /// failure/repair schedule is bit-identical everywhere. Always
    /// consumes exactly one draw; `mean == 0` returns 0 (still one draw,
    /// so disabling a process never shifts sibling streams).
    ///
    /// The result is bounded: at the smallest `U`, `-ln U < 37`, so the
    /// sample never exceeds `37 · mean` (no unbounded tail blow-up in an
    /// event calendar).
    pub fn exp_with(&mut self, mean: u64) -> u64 {
        let draw = self.next_u64() >> 11; // 53 uniform bits
        if mean == 0 {
            return 0;
        }
        let u = (draw + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        (-ln_unit(u) * mean as f64) as u64
    }
}

/// Deterministic `ln x` for `x ∈ (0, 1]`, from exactly-rounded IEEE
/// primitives only (see [`DetRng::exp_with`]).
///
/// Decomposes `x = m · 2ᵉ` with `m ∈ [1, 2)` from the bit pattern, then
/// evaluates `ln m = 2·atanh t` with `t = (m-1)/(m+1) ≤ 1/3` by its odd
/// power series — 14 terms reach full `f64` precision at `t = 1/3`.
fn ln_unit(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x <= 1.0, "ln_unit domain: {x}");
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut term = t;
    let mut sum = 0.0;
    let mut k = 1.0;
    for _ in 0..14 {
        sum += term / k;
        term *= t2;
        k += 2.0;
    }
    e as f64 * core::f64::consts::LN_2 + 2.0 * sum
}

impl DetRng {
    /// Returns the next 32 random bits (the high half of a 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible() {
        let mut a = DetRng::seeded(1);
        let mut b = DetRng::seeded(1);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_independent_of_sibling_draws() {
        let root = DetRng::seeded(99);
        let mut c0 = root.split(0);
        let c0_first = c0.next_u64();
        // Splitting more children does not perturb child 0's stream.
        let root2 = DetRng::seeded(99);
        let _c1 = root2.split(1);
        let mut c0_again = root2.split(0);
        assert_eq!(c0_again.next_u64(), c0_first);
    }

    #[test]
    fn derive_seed_is_stable_and_stream_sensitive() {
        // Pure function of (root, stream).
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        // Distinct streams and distinct roots give distinct seeds.
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
        // `split` is the generator-space view of the same derivation.
        let root = DetRng::seeded(9);
        let mut via_split = root.split(3);
        let mut via_seed = DetRng::seeded(derive_seed(root.snapshot().0, 3));
        assert_eq!(via_split.next_u64(), via_seed.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::seeded(3);
        for bound in [1u64, 2, 7, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn unit_in_range_and_roughly_uniform() {
        let mut r = DetRng::seeded(5);
        let mut sum = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut r = DetRng::seeded(11);
        for _ in 0..10 {
            r.next_u64();
        }
        let snap = r.snapshot();
        let tail: Vec<u64> = (0..20).map(|_| r.next_u64()).collect();
        let mut r2 = DetRng::restore(&snap);
        let tail2: Vec<u64> = (0..20).map(|_| r2.next_u64()).collect();
        assert_eq!(tail, tail2);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seeded(13);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0 + 1e-9));
        }
    }

    #[test]
    fn threshold_forms_are_bit_identical_to_float_forms() {
        // The workload generators rely on chance_with/geometric_with
        // consuming the same draws and producing the same decisions as
        // chance/geometric — any divergence silently changes every
        // reference stream. Sweep awkward probabilities, including exact
        // dyadics, near-0/1 values, and 10k random ones.
        let mut ps: Vec<f64> = vec![
            0.0,
            1.0,
            0.5,
            0.25,
            1.0 / 3.0,
            0.3,
            0.55,
            1e-12,
            1.0 - 1e-12,
        ];
        let mut pr = DetRng::seeded(99);
        ps.extend((0..10_000).map(|_| pr.unit()));
        for p in ps {
            let t = DetRng::threshold(p);
            let mut a = DetRng::seeded(41);
            let mut b = a.clone();
            for _ in 0..50 {
                assert_eq!(a.chance(p), b.chance_with(t), "p = {p}");
            }
            if p > 0.0 {
                let mut a = DetRng::seeded(43);
                let mut b = a.clone();
                for _ in 0..20 {
                    assert_eq!(
                        a.geometric(p, 10_000),
                        b.geometric_with(t, 10_000),
                        "p = {p}"
                    );
                    assert_eq!(
                        a.snapshot(),
                        b.snapshot(),
                        "draw counts diverged at p = {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_geometric_matches_scalar_at_every_cap_and_batch_edge() {
        // geometric_with evaluates draws four at a time; a cap that falls
        // inside a batch, or a success on the batch's last draw, must
        // still consume exactly the scalar loop's draws. Caps 0..=9 cover
        // every position of the cap within the first three batches.
        let mut ps = vec![1e-12, 0.306, 0.99, 1.0];
        ps.extend((1..=12).map(|k| 0.5f64.powi(k)));
        let caps: Vec<u64> = (0..=9).chain([10_000]).collect();
        for p in ps {
            let t = DetRng::threshold(p);
            for seed in 0..64 {
                let mut a = DetRng::seeded(seed);
                let mut b = a.clone();
                for round in 0..8 {
                    for &cap in &caps {
                        // Long runs at tiny p cost 10k draws per call.
                        if p < 1e-3 && cap > 9 && round > 0 {
                            continue;
                        }
                        assert_eq!(
                            a.geometric(p, cap),
                            b.geometric_with(t, cap),
                            "p = {p}, cap = {cap}, seed = {seed}"
                        );
                        assert_eq!(
                            a.snapshot(),
                            b.snapshot(),
                            "draw counts diverged at p = {p}, cap = {cap}, seed = {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ln_unit_matches_libm_to_full_precision() {
        // The in-crate ln must agree with the platform libm to ~1 ulp on
        // the whole (0, 1] domain exp_with draws from — the point of
        // rolling our own is cross-platform bit-stability, not a
        // different function.
        let mut r = DetRng::seeded(71);
        let mut xs: Vec<f64> = vec![1.0, 0.5, 0.25, 1.0 / (1u64 << 53) as f64];
        xs.extend(
            (0..10_000)
                .map(|_| (r.next_u64() >> 11).wrapping_add(1) as f64 * (1.0 / (1u64 << 53) as f64)),
        );
        for x in xs {
            let got = ln_unit(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= 1e-14 * want.abs().max(1.0),
                "ln({x}) = {got}, libm {want}"
            );
        }
    }

    #[test]
    fn exp_with_is_deterministic_and_has_the_right_mean() {
        // One draw per sample, identical across generators with the same
        // seed — the continuous failure processes schedule from this.
        let mut a = DetRng::seeded(31);
        let mut b = DetRng::seeded(31);
        for _ in 0..1000 {
            assert_eq!(a.exp_with(50_000), b.exp_with(50_000));
            assert_eq!(a.snapshot(), b.snapshot());
        }
        // mean == 0 is a disabled process: returns 0 but still consumes
        // exactly one draw, so sibling streams never shift.
        let mut c = DetRng::seeded(31);
        let mut d = DetRng::seeded(31);
        assert_eq!(c.exp_with(0), 0);
        d.next_u64();
        assert_eq!(c.snapshot(), d.snapshot());
        // Sample mean within 5% of the requested mean, and bounded tail.
        let mut r = DetRng::seeded(37);
        let mean = 100_000u64;
        let n = 20_000u64;
        let mut sum = 0u64;
        for _ in 0..n {
            let x = r.exp_with(mean);
            assert!(x <= 37 * mean, "tail blow-up: {x}");
            sum += x;
        }
        let got = sum as f64 / n as f64;
        assert!(
            (got - mean as f64).abs() < 0.05 * mean as f64,
            "sample mean {got}"
        );
    }

    #[test]
    fn in_windows_respects_bounds_and_weights() {
        let mut r = DetRng::seeded(23);
        let windows = [(10, 20), (50, 50), (100, 1100)];
        let mut low = 0u64;
        for _ in 0..2000 {
            let x = r.in_windows(&windows).unwrap();
            assert!((10..20).contains(&x) || (100..1100).contains(&x), "{x}");
            if x < 20 {
                low += 1;
            }
        }
        // The 10-wide window gets ~1% of the 1010 total width.
        assert!(low < 100, "low window over-sampled: {low}");
        assert_eq!(r.in_windows(&[]), None);
        assert_eq!(r.in_windows(&[(7, 7), (9, 3)]), None);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seeded(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
