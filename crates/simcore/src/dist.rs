//! Probability distributions over the deterministic [`crate::rng::Rng`].
//!
//! Every sampler is a small value type with an explicit, validated parameter
//! set and a `sample(&mut Rng)` method. The samplers used on hot paths
//! (exponential, Weibull, normal) use inverse-CDF or Box–Muller forms whose
//! output is a pure function of the consumed uniforms, keeping runs exactly
//! reproducible.
//!
//! The set covers what the higher layers need:
//!
//! * lifetimes and hazards — [`Exponential`], [`Weibull`], [`LogNormal`]
//! * measurement noise and service times — [`Normal`], [`Uniform`]
//! * event counts — [`Poisson`], [`Geometric`], [`Bernoulli`]
//! * heavy-tailed populations (AS sizes) — [`Zipf`]

use crate::rng::Rng;

/// Error returned when distribution parameters are invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamError {
    what: &'static str,
}

impl ParamError {
    fn new(what: &'static str) -> Self {
        ParamError { what }
    }
}

impl core::fmt::Display for ParamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for ParamError {}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// Returns an error unless `lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, ParamError> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(ParamError::new("Uniform requires finite lo < hi"));
        }
        Ok(Uniform { lo, hi })
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }

    /// The distribution mean, `(lo + hi) / 2`.
    pub fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// Bernoulli distribution: `true` with probability `p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution with success probability `p ∈ [0,1]`.
    pub fn new(p: f64) -> Result<Self, ParamError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ParamError::new("Bernoulli requires p in [0,1]"));
        }
        Ok(Bernoulli { p })
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut Rng) -> bool {
        rng.chance(self.p)
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(ParamError::new("Exponential requires lambda > 0"));
        }
        Ok(Exponential { lambda })
    }

    /// Creates an exponential distribution with the given mean (`1/lambda`).
    pub fn with_mean(mean: f64) -> Result<Self, ParamError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(ParamError::new("Exponential requires mean > 0"));
        }
        Self::new(1.0 / mean)
    }

    /// Draws a sample by CDF inversion.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        -rng.next_f64_open().ln() / self.lambda
    }

    /// The distribution mean, `1/lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// The rate parameter `lambda`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

/// Weibull distribution with shape `k` and scale `lambda`.
///
/// `k < 1` models infant mortality (decreasing hazard), `k = 1` is
/// exponential, `k > 1` models wear-out (increasing hazard) — the workhorse
/// of the `reliability` crate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with `shape > 0` and `scale > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, ParamError> {
        if !(shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0) {
            return Err(ParamError::new("Weibull requires shape > 0 and scale > 0"));
        }
        Ok(Weibull { shape, scale })
    }

    /// Draws a sample by CDF inversion: `scale * (-ln U)^(1/shape)`.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.scale * (-rng.next_f64_open().ln()).powf(1.0 / self.shape)
    }

    /// The distribution mean, `scale * Γ(1 + 1/shape)`.
    pub fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `λ` (the 63.2 % life).
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// Normal (Gaussian) distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and std-dev `sigma >= 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        if !(mu.is_finite() && sigma.is_finite() && sigma >= 0.0) {
            return Err(ParamError::new("Normal requires finite mu, sigma >= 0"));
        }
        Ok(Normal { mu, sigma })
    }

    /// Draws a sample (Box–Muller, using both uniforms for one output so the
    /// sampler is stateless and draw-count deterministic).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.mu + self.sigma * standard_normal(rng)
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// The standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

/// Draws a standard normal variate via Box–Muller (two uniforms per output).
pub fn standard_normal(rng: &mut Rng) -> f64 {
    NormalDraw::take(rng).z()
}

/// The uniforms of one [`standard_normal`] draw, for a caller that only
/// needs the variate scaled, rounded and clamped to a count.
///
/// [`rounded`](Self::rounded) returns exactly the libm expression
/// `(mean + sd·z).round().clamp(0, hi)`, but evaluates `z` with a table
/// kernel of `+ − × sqrt` and truncating casts. Wherever the kernel's
/// error could move the integer — `mean + sd·z` within
/// `δ = 1e-6·(1 + sd)` of a half-integer — or an input lies outside the
/// validated domain, it answers from the libm expression instead, so the
/// result is the libm one for every input (DESIGN.md §13, "The filtered
/// Box–Muller kernel").
#[derive(Clone, Copy, Debug)]
pub struct NormalDraw {
    u1: f64,
    u2: f64,
}

impl NormalDraw {
    /// Takes the draw's two uniforms from `rng`, consuming exactly what
    /// [`standard_normal`] consumes.
    #[inline]
    pub fn take(rng: &mut Rng) -> Self {
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        NormalDraw { u1, u2 }
    }

    /// A draw from given uniforms: `u1` in `(0, 1)` feeds the radius,
    /// `u2` in `[0, 1)` the angle.
    #[cfg(test)]
    fn from_uniforms(u1: f64, u2: f64) -> Self {
        NormalDraw { u1, u2 }
    }

    /// The standard normal variate, `sqrt(−2 ln u1)·cos(2π u2)` through
    /// libm: the one copy of the Box–Muller expression.
    #[inline]
    fn z(self) -> f64 {
        (-2.0 * self.u1.ln()).sqrt() * (core::f64::consts::TAU * self.u2).cos()
    }

    /// `mean + sd·z` rounded half away from zero and clamped to
    /// `[0, hi]`, through the libm expression.
    fn exact_rounded(self, mean: f64, sd: f64, hi: u64) -> u64 {
        (mean + sd * self.z()).round().clamp(0.0, hi as f64) as u64
    }

    /// `mean + sd·z` rounded half away from zero and clamped to
    /// `[0, hi]`: the libm expression's value, from the table kernel
    /// where it is provably the same and from the libm expression
    /// elsewhere.
    #[inline]
    pub fn rounded(self, mean: f64, sd: f64, hi: u64) -> u64 {
        match self.fast_rounded(mean, sd, hi) {
            Some(n) => n,
            None => self.exact_rounded(mean, sd, hi),
        }
    }

    /// The table kernel alone: `Some` of `exact_rounded`'s value, or
    /// `None` where the kernel cannot vouch for it — an input outside
    /// the validated domain (`u1` a normal number below 1, `u2` in
    /// `[0, 1)`, `mean` and `sd` in `[0, 2^20]`, `hi ≤ 2^20`), a NaN, or
    /// `mean + sd·z` within `1e-6·(1 + sd)` of a half-integer.
    #[inline]
    fn fast_rounded(self, mean: f64, sd: f64, hi: u64) -> Option<u64> {
        // Non-negative floats order as their bit patterns; negative ones
        // and NaNs carry bits above every bound here, so each range check
        // is one integer comparison.
        const LIMIT: u64 = 1 << 20;
        let limit_bits = (LIMIT as f64).to_bits();
        let one_bits = 1.0f64.to_bits();
        let min_bits = f64::MIN_POSITIVE.to_bits();
        let in_domain = (mean.to_bits() <= limit_bits)
            & (sd.to_bits() <= limit_bits)
            & (hi <= LIMIT)
            & (self.u1.to_bits().wrapping_sub(min_bits) < one_bits - min_bits)
            & (self.u2.to_bits() < one_bits);
        if !in_domain {
            return None;
        }
        let x = mean + sd * kernel_z(self.u1, self.u2);
        let delta = ROUNDING_GUARD * (1.0 + sd);
        // `hi ≤ 2^20`: the signed conversion is exact and, unlike the
        // unsigned one, a single instruction on x86-64.
        let top = hi as i64 as f64;
        if x < 0.5 - delta {
            Some(0)
        } else if x > top - 0.5 + delta {
            Some(hi)
        } else {
            // Here `x + 0.5` lies in [1 − δ, hi + δ]: its truncation is
            // its floor, and `round(x)` is that floor unless `x` sits near
            // a half-integer. A NaN fails every comparison and lands here
            // too, where `frac` is NaN and the answer `None`.
            let y = x + 0.5;
            let n = y as i64;
            let frac = y - n as f64;
            (frac >= delta && frac <= 1.0 - delta).then_some(n as u64)
        }
    }
}

/// The half-width `δ` per unit of `1 + sd` around each half-integer in
/// which `NormalDraw::fast_rounded` defers to libm: a million times the
/// kernel's tested error bound `KERNEL_Z_BOUND`.
const ROUNDING_GUARD: f64 = 1e-6;

/// The bound on `|kernel_z(u1, u2) − NormalDraw::z()|` the kernel is
/// tested against (2^-40).
#[cfg(test)]
const KERNEL_Z_BOUND: f64 = 1.0 / (1u64 << 40) as f64;

/// Table resolution of the `ln` kernel: 2^7 mantissa intervals.
const LN_BITS: u32 = 7;
/// Table resolution of the angle kernel: 2^8 sectors of the circle.
const TRIG_BITS: u32 = 8;

/// The kernel's tables, built once from libm.
struct BoxMullerTables {
    /// Per mantissa interval `j` of `[1, 2)`: the reference point `c`
    /// (the interval's centre; 2 for the last interval, so `ln u1` keeps
    /// full relative accuracy as `u1 → 1`), `1/c`, and `ln c`, less
    /// `ln 2` for the upper half (`c ≥ 1.5`), whose exponent takes one
    /// more. The shift keeps the terms small where `ln u1` is.
    ln: [[f64; 3]; 1 << LN_BITS],
    /// `(cos, sin)` of each angle sector's centre, `2π(k + ½)/256`.
    trig: [[f64; 2]; 1 << TRIG_BITS],
}

#[inline]
fn tables() -> &'static BoxMullerTables {
    static TABLES: std::sync::OnceLock<BoxMullerTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut ln = [[0.0; 3]; 1 << LN_BITS];
        let last = ln.len() - 1;
        for (j, e) in ln.iter_mut().enumerate() {
            let c = if j == last { 2.0 } else { 1.0 + (j as f64 + 0.5) / (1 << LN_BITS) as f64 };
            let l = if c >= 1.5 { (c / 2.0).ln() } else { c.ln() };
            *e = [c, 1.0 / c, l];
        }
        let mut trig = [[0.0; 2]; 1 << TRIG_BITS];
        for (k, e) in trig.iter_mut().enumerate() {
            let a = core::f64::consts::TAU * (k as f64 + 0.5) / (1 << TRIG_BITS) as f64;
            *e = [a.cos(), a.sin()];
        }
        BoxMullerTables { ln, trig }
    })
}

/// `sqrt(−2 ln u1)·cos(2π u2)` from the tables, for `u1` a normal
/// number in `(0, 1)` and `u2` in `[0, 1)`.
///
/// `u1 = 2^e·m` with `m` in `[1, 2)`; the top `LN_BITS` of `m` pick a
/// reference `c`, and `ln u1 = e·ln 2 + ln c + ln(1 + r)` with
/// `r = (m − c)/c`, `|r| ≤ 2^-8`, where five Taylor terms leave an error
/// under `|r|^6/6 ≈ 6e-16`. `u2·256` splits into a sector `k` and an
/// offset `h` of at most `π/256` from its centre, and
/// `cos(φ_k + h) = cos φ_k·cos h − sin φ_k·sin h` with `cos h` to `h^4`
/// (error under `5e-15`) and `sin h` to `h^5` (under `1e-17`).
#[inline]
fn kernel_z(u1: f64, u2: f64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    const ONE_BITS: u64 = 0x3ff << 52;
    let t = tables();
    let bits = u1.to_bits();
    let j = ((bits >> (52 - LN_BITS)) & ((1 << LN_BITS) - 1)) as usize;
    let upper = i64::from(j >= 1 << (LN_BITS - 1));
    let e = ((bits >> 52) as i64 + upper - 1023) as f64;
    let m = f64::from_bits((bits & MANTISSA) | ONE_BITS);
    let [c, inv_c, ln_c] = t.ln[j];
    let r = (m - c) * inv_c;
    let ln_1r = r + r * r * (-0.5 + r * (1.0 / 3.0 + r * (-0.25 + r * 0.2)));
    let ln_u1 = e * core::f64::consts::LN_2 + ln_c + ln_1r;
    let radius = (-2.0 * ln_u1).sqrt();

    let scaled = u2 * (1 << TRIG_BITS) as f64;
    let k = scaled as i64;
    let h = (scaled - k as f64 - 0.5) * (core::f64::consts::TAU / (1 << TRIG_BITS) as f64);
    let h2 = h * h;
    let cos_h = 1.0 + h2 * (-0.5 + h2 * (1.0 / 24.0));
    let sin_h = h * (1.0 + h2 * (-1.0 / 6.0 + h2 * (1.0 / 120.0)));
    let [cos_k, sin_k] = t.trig[(k as usize) & ((1 << TRIG_BITS) - 1)];
    radius * (cos_k * cos_h - sin_k * sin_h)
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// Parameterized by the *underlying* normal, as is conventional. Use
/// [`LogNormal::from_mean_cv`] to specify the arithmetic mean and coefficient
/// of variation of the log-normal itself, which is usually what field data
/// (e.g. service times) report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal parameters.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        Ok(LogNormal { norm: Normal::new(mu, sigma)? })
    }

    /// Creates a log-normal with the given arithmetic `mean > 0` and
    /// coefficient of variation `cv >= 0`.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Result<Self, ParamError> {
        if !(mean.is_finite() && mean > 0.0 && cv.is_finite() && cv >= 0.0) {
            return Err(ParamError::new("LogNormal requires mean > 0 and cv >= 0"));
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Self::new(mu, sigma2.sqrt())
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.norm.sample(rng).exp()
    }

    /// The arithmetic mean `exp(mu + sigma^2/2)`.
    pub fn mean(&self) -> f64 {
        (self.norm.mu + 0.5 * self.norm.sigma * self.norm.sigma).exp()
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Sampling uses Knuth's product method for `lambda < 30` and a normal
/// approximation with continuity correction above (adequate for the event
/// counts this toolkit draws, and draw-count bounded).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(ParamError::new("Poisson requires lambda > 0"));
        }
        Ok(Poisson { lambda })
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.lambda < 30.0 {
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.lambda + self.lambda.sqrt() * standard_normal(rng);
            x.round().max(0.0) as u64
        }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.lambda
    }
}

/// Geometric distribution: number of Bernoulli(`p`) failures before the
/// first success (support `0, 1, 2, …`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates a geometric distribution with success probability `0 < p <= 1`.
    pub fn new(p: f64) -> Result<Self, ParamError> {
        if !(p > 0.0 && p <= 1.0) {
            return Err(ParamError::new("Geometric requires 0 < p <= 1"));
        }
        Ok(Geometric { p })
    }

    /// Draws a sample by inversion.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        let u = rng.next_f64_open();
        (u.ln() / (1.0 - self.p).ln()).floor() as u64
    }

    /// The distribution mean `(1-p)/p`.
    pub fn mean(&self) -> f64 {
        (1.0 - self.p) / self.p
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// P(rank = k) ∝ 1/k^s. Sampling precomputes the CDF (O(n) memory) and draws
/// by binary search; populations here are at most a few hundred thousand.
#[derive(Clone, Debug, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n >= 1` ranks with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::new("Zipf requires n >= 1"));
        }
        if !(s.is_finite() && s >= 0.0) {
            return Err(ParamError::new("Zipf requires finite s >= 0"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Zipf { cdf })
    }

    /// Draws a 1-based rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        // Smallest rank whose cumulative probability exceeds `u`; an exact
        // boundary hit (measure zero) maps to that boundary's rank.
        let idx = self
            .cdf
            .binary_search_by(|c| c.total_cmp(&u))
            .unwrap_or_else(|i| i);
        (idx + 1).min(self.cdf.len())
    }

    /// Number of ranks `n`.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }
}

/// Empirical distribution: resamples from observed data with optional
/// linear interpolation between order statistics (a smoothed bootstrap).
#[derive(Clone, Debug)]
pub struct Empirical {
    sorted: Vec<f64>,
    interpolate: bool,
}

impl Empirical {
    /// Builds from observed samples (non-finite values rejected).
    pub fn new(samples: &[f64], interpolate: bool) -> Result<Self, ParamError> {
        if samples.is_empty() {
            return Err(ParamError::new("Empirical requires at least one sample"));
        }
        if samples.iter().any(|x| !x.is_finite()) {
            return Err(ParamError::new("Empirical samples must be finite"));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Ok(Empirical { sorted, interpolate })
    }

    /// Draws a sample: a uniformly random observation, or (interpolating)
    /// the inverse empirical CDF at a uniform point.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        if !self.interpolate || self.sorted.len() == 1 {
            return self.sorted[rng.next_below(self.sorted.len() as u64) as usize];
        }
        let u = rng.next_f64() * (self.sorted.len() - 1) as f64;
        let i = u.floor() as usize;
        let frac = u - i as f64;
        self.sorted[i] * (1.0 - frac) + self.sorted[i + 1] * frac
    }

    /// Number of underlying observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The observed mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// Binomial distribution: successes among `n` Bernoulli(`p`) trials.
///
/// This is the cohort-sampling primitive for population-level aggregate
/// simulation: instead of one draw per device per week, one binomial draw
/// yields a whole cohort's delivered-packet total. Sampling is exact
/// (per-trial) up to [`Binomial::EXACT_TRIALS`] trials and switches to a
/// clamped, rounded normal approximation above — the same approximation
/// the per-device weekly path has always used for its 168-report weeks,
/// so the aggregate path's totals match the legacy path's in
/// distribution. The output is a pure function of the consumed uniforms;
/// the moment properties are pinned by `tests/properties.rs`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Trial-count ceiling for the exact per-trial sampler; above it the
    /// normal approximation is used (`n·p·(1-p)` is then large enough for
    /// the CLT error to be far below the simulation's weekly granularity).
    pub const EXACT_TRIALS: u64 = 1024;

    /// Creates a binomial over `n` trials with success probability
    /// `p ∈ [0,1]`.
    pub fn new(n: u64, p: f64) -> Result<Self, ParamError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ParamError::new("Binomial requires p in [0,1]"));
        }
        Ok(Binomial { n, p })
    }

    /// Draws a sample in `[0, n]`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.n == 0 || self.p <= 0.0 {
            return 0;
        }
        if self.p >= 1.0 {
            return self.n;
        }
        if self.n <= Self::EXACT_TRIALS {
            let mut hits = 0;
            for _ in 0..self.n {
                if rng.chance(self.p) {
                    hits += 1;
                }
            }
            return hits;
        }
        let mean = self.n as f64 * self.p;
        let sd = (self.n as f64 * self.p * (1.0 - self.p)).sqrt();
        let z = standard_normal(rng);
        let x = (mean + sd * z).round();
        if x <= 0.0 {
            0
        } else if x >= self.n as f64 {
            self.n
        } else {
            x as u64
        }
    }

    /// The distribution mean, `n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// The distribution variance, `n·p·(1-p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }
}

/// Draws `n` uniforms on `(0, 1)` **already sorted ascending**, in O(n),
/// via the exponential-spacings construction: if `E₁..E_{n+1}` are iid
/// Exp(1), then the normalized partial sums `(E₁+…+E_i)/(E₁+…+E_{n+1})`
/// are distributed exactly as the order statistics `U₍₁₎ ≤ … ≤ U₍ₙ₎` of
/// `n` independent uniforms. This is how aggregate mode pre-samples a
/// whole cohort's death times in one pass with no sort: map each sorted
/// uniform through an inverse lifetime CDF ([`InverseCdf`]) and the i-th
/// device receives the i-th order statistic.
pub fn sorted_uniforms(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut acc = 0.0_f64;
    for _ in 0..n {
        acc += -rng.next_f64_open().ln();
        out.push(acc);
    }
    let total = acc + -rng.next_f64_open().ln();
    for u in &mut out {
        *u /= total;
    }
    out
}

/// A tabulated numeric inverse of a monotone CDF, for distributions with
/// no closed-form quantile (e.g. the bathtub lifetime, a product of three
/// component survivals).
///
/// Built once from the CDF evaluated on a uniform grid over
/// `[0, t_max]`; inversion is a search over the stored CDF values plus
/// linear interpolation between knots, with no further CDF evaluations,
/// which is what makes million-device cohort initialization cheap. A
/// guide table over `[0, 1)` narrows each search to the knots of the
/// uniform's bucket. The tabulation is an explicit approximation of
/// the source distribution (error vanishes as `knots` grows); every
/// sampling mode that uses a given table draws *identical* values from
/// identical uniforms, which is the equivalence the aggregate/reference
/// differential harness pins.
#[derive(Clone, Debug)]
pub struct InverseCdf {
    /// Knot abscissae `t_i` (uniform over `[0, t_max]`).
    ts: Vec<f64>,
    /// CDF values at the knots; non-decreasing, `cdf[0] = F(0)`.
    cdf: Vec<f64>,
    /// `guide[k]`, for `k ∈ 0..=GUIDE`, is the first knot with
    /// `cdf ≥ k / GUIDE`.
    guide: Vec<usize>,
}

/// Buckets of [`InverseCdf`]'s guide table: a power of two, so a
/// uniform's bucket `floor(u · GUIDE)` is computed exactly.
const GUIDE: usize = 4096;

impl InverseCdf {
    /// Tabulates `cdf` (a non-decreasing function with `F(0) ≥ 0`) on
    /// `knots + 1` uniform points over `[0, t_max]`.
    ///
    /// Returns an error for a degenerate range, fewer than 2 knots, or a
    /// tabulation that comes out non-finite or decreasing (a malformed
    /// CDF is a caller bug surfaced as a typed error, not garbage draws).
    pub fn tabulate(
        cdf: impl Fn(f64) -> f64,
        t_max: f64,
        knots: usize,
    ) -> Result<Self, ParamError> {
        if !(t_max.is_finite() && t_max > 0.0) {
            return Err(ParamError::new("InverseCdf requires finite t_max > 0"));
        }
        if knots < 2 {
            return Err(ParamError::new("InverseCdf requires at least 2 knots"));
        }
        let mut ts = Vec::with_capacity(knots + 1);
        let mut vals = Vec::with_capacity(knots + 1);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=knots {
            let t = t_max * (i as f64 / knots as f64);
            let f = cdf(t);
            if !f.is_finite() || f < last {
                return Err(ParamError::new("InverseCdf requires a finite non-decreasing CDF"));
            }
            last = f;
            ts.push(t);
            vals.push(f);
        }
        let mut knot = 0;
        let guide = (0..=GUIDE)
            .map(|k| {
                let bound = k as f64 / GUIDE as f64;
                while knot < vals.len() && vals[knot] < bound {
                    knot += 1;
                }
                knot
            })
            .collect();
        Ok(InverseCdf { ts, cdf: vals, guide })
    }

    /// The tabulation: the knot abscissae and the CDF value at each.
    pub fn knots(&self) -> (&[f64], &[f64]) {
        (&self.ts, &self.cdf)
    }

    /// Maps a uniform `u ∈ [0, 1)` to the tabulated quantile `F⁻¹(u)`
    /// with a binary search over the knots of `u`'s guide bucket. The
    /// scalar form, and the oracle for
    /// [`invert_ascending`](Self::invert_ascending).
    ///
    /// `u` below the first knot's CDF value returns 0; `u` beyond the
    /// tabulated mass clamps to `t_max` (callers pick `t_max` past the
    /// horizon so the clamp only affects outcomes the simulation never
    /// observes).
    pub fn invert(&self, u: f64) -> f64 {
        let last = self.cdf.len() - 1;
        if u <= self.cdf[0] {
            return self.ts[0];
        }
        if u >= self.cdf[last] {
            return self.ts[last];
        }
        // First knot with cdf >= u; the predecessor exists by the guards.
        self.interpolate(self.first_knot_at_least(u), u)
    }

    /// The first knot with `cdf ≥ u`: the knot a binary search over every
    /// knot finds. For `u` in bucket `k` (`k ≤ u · GUIDE < k + 1`) it lies
    /// in `guide[k]..=guide[k + 1]`, so only those knots are searched.
    fn first_knot_at_least(&self, u: f64) -> usize {
        let (lo, hi) = if (0.0..1.0).contains(&u) {
            let k = (u * GUIDE as f64) as usize;
            (self.guide[k], self.guide[k + 1])
        } else {
            (0, self.cdf.len())
        };
        lo + self.cdf[lo..hi].partition_point(|&f| f < u)
    }

    /// [`invert`](Self::invert) over a whole slice of uniforms, sorted
    /// ascending (as [`sorted_uniforms`] yields them): the knot cursor only
    /// walks forward, so a cohort of `n` draws costs O(n + knots) instead
    /// of O(n log knots). Every value is bit-identical to `invert`'s. An
    /// out-of-order input is still inverted correctly; it just restarts
    /// the walk.
    pub fn invert_ascending<'a>(&'a self, us: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        let last = self.cdf.len() - 1;
        // Invariant between calls: `hi ≥ 1`.
        let mut hi = 1;
        us.iter().map(move |&u| {
            if u <= self.cdf[0] {
                return self.ts[0];
            }
            if u >= self.cdf[last] {
                return self.ts[last];
            }
            if self.cdf[hi - 1] >= u {
                hi = 1;
            }
            // Stops at the first knot with cdf >= u: cdf[last] > u.
            while self.cdf[hi] < u {
                hi += 1;
            }
            self.interpolate(hi, u)
        })
    }

    /// Linear interpolation of `u` between knots `hi − 1` and `hi`, where
    /// `hi` is the first knot with `cdf ≥ u` and `cdf[hi − 1] < u`.
    fn interpolate(&self, hi: usize, u: f64) -> f64 {
        let lo = hi - 1;
        let (f0, f1) = (self.cdf[lo], self.cdf[hi]);
        let span = f1 - f0;
        // Flat segments (span == 0) interpolate to the left knot.
        let frac = if span > 0.0 { (u - f0) / span } else { 0.0 };
        self.ts[lo] + frac * (self.ts[hi] - self.ts[lo])
    }

    /// The upper end of the tabulated support.
    pub fn t_max(&self) -> f64 {
        self.ts[self.ts.len() - 1]
    }
}

/// Lanczos approximation of the gamma function Γ(x) for `x > 0`.
///
/// Accurate to ~1e-13 over the range used here (Weibull means with shapes
/// between 0.3 and 10).
pub fn gamma(x: f64) -> f64 {
    // Lanczos g = 7, n = 9 coefficients.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        core::f64::consts::PI / ((core::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * core::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from(1234)
    }

    impl Zipf {
        /// The probability mass of the 1-based `rank` (0 outside
        /// `1..=n`): the oracle the Zipf tests check the CDF against.
        fn pmf(&self, rank: usize) -> f64 {
            if rank == 0 || rank > self.cdf.len() {
                return 0.0;
            }
            let hi = self.cdf[rank - 1];
            let lo = if rank >= 2 { self.cdf[rank - 2] } else { 0.0 };
            hi - lo
        }
    }

    fn sample_mean(mut f: impl FnMut(&mut Rng) -> f64, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| f(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 5.0).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((2.0..5.0).contains(&x));
        }
        let m = sample_mean(|r| d.sample(r), 50_000);
        assert!((m - 3.5).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn uniform_rejects_bad_params() {
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(7.0).unwrap();
        let m = sample_mean(|r| d.sample(r), 100_000);
        assert!((m - 7.0).abs() < 0.1, "mean {m}");
        assert!((d.mean() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_memoryless_shape() {
        // P(X > 2m) should be about P(X > m)^2.
        let d = Exponential::with_mean(1.0).unwrap();
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let p1 = xs.iter().filter(|&&x| x > 1.0).count() as f64 / n as f64;
        let p2 = xs.iter().filter(|&&x| x > 2.0).count() as f64 / n as f64;
        assert!((p2 - p1 * p1).abs() < 0.01, "p1 {p1} p2 {p2}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(1.0, 3.0).unwrap();
        assert!((w.mean() - 3.0).abs() < 1e-9);
        let m = sample_mean(|r| w.sample(r), 100_000);
        assert!((m - 3.0).abs() < 0.06, "mean {m}");
    }

    #[test]
    fn weibull_mean_gamma_form() {
        // shape 2 => mean = scale * Γ(1.5) = scale * sqrt(pi)/2.
        let w = Weibull::new(2.0, 10.0).unwrap();
        let expect = 10.0 * (core::f64::consts::PI).sqrt() / 2.0;
        assert!((w.mean() - expect).abs() < 1e-9);
        let m = sample_mean(|r| w.sample(r), 100_000);
        assert!((m - expect).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(-2.0, 3.0).unwrap();
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean + 2.0).abs() < 0.03, "mean {mean}");
        assert!((var - 9.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lognormal_from_mean_cv() {
        let d = LogNormal::from_mean_cv(20.0, 0.5).unwrap();
        assert!((d.mean() - 20.0).abs() < 1e-9);
        let m = sample_mean(|r| d.sample(r), 200_000);
        assert!((m - 20.0).abs() < 0.3, "mean {m}");
    }

    #[test]
    fn poisson_small_lambda() {
        let d = Poisson::new(3.0).unwrap();
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| d.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_normal_regime() {
        let d = Poisson::new(400.0).unwrap();
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 400.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn geometric_mean() {
        let d = Geometric::new(0.25).unwrap();
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| d.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.06, "mean {mean}");
        assert_eq!(Geometric::new(1.0).unwrap().sample(&mut r), 0);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(100, 1.0).unwrap();
        let mut r = rng();
        let n = 100_000;
        let mut counts = vec![0usize; 101];
        for _ in 0..n {
            let k = z.sample(&mut r);
            assert!((1..=100).contains(&k));
            counts[k] += 1;
        }
        assert!(counts[1] > counts[2] && counts[2] > counts[4]);
        // Empirical share of rank 1 close to pmf(1).
        let share = counts[1] as f64 / n as f64;
        assert!((share - z.pmf(1)).abs() < 0.01, "share {share} pmf {}", z.pmf(1));
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 1.3).unwrap();
        let total: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(z.pmf(0), 0.0);
        assert_eq!(z.pmf(51), 0.0);
    }

    #[test]
    fn empirical_resampling_preserves_support() {
        let data = [1.0, 5.0, 9.0];
        let d = Empirical::new(&data, false).unwrap();
        let mut r = rng();
        for _ in 0..1_000 {
            let x = d.sample(&mut r);
            assert!(data.contains(&x));
        }
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert!((d.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_interpolation_fills_gaps() {
        let d = Empirical::new(&[0.0, 10.0], true).unwrap();
        let mut r = rng();
        let mut saw_interior = false;
        for _ in 0..1_000 {
            let x = d.sample(&mut r);
            assert!((0.0..=10.0).contains(&x));
            if x > 1.0 && x < 9.0 {
                saw_interior = true;
            }
        }
        assert!(saw_interior, "interpolation should produce interior values");
    }

    #[test]
    fn empirical_mean_matches_under_resampling() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = Empirical::new(&data, true).unwrap();
        let m = sample_mean(|r| d.sample(r), 100_000);
        assert!((m - 49.5).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn empirical_rejects_bad_input() {
        assert!(Empirical::new(&[], false).is_err());
        assert!(Empirical::new(&[1.0, f64::NAN], false).is_err());
    }

    #[test]
    fn binomial_exact_regime_moments() {
        let d = Binomial::new(168, 0.95).unwrap();
        let mut r = rng();
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - d.mean()).abs() < 0.05, "mean {mean} vs {}", d.mean());
        assert!((var - d.variance()).abs() < 0.3, "var {var} vs {}", d.variance());
    }

    #[test]
    fn binomial_normal_regime_moments() {
        let d = Binomial::new(100_000, 0.9).unwrap();
        let mut r = rng();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - d.mean()).abs() < 2.0, "mean {mean} vs {}", d.mean());
        for x in xs {
            assert!((0.0..=100_000.0).contains(&x));
        }
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng();
        assert_eq!(Binomial::new(0, 0.5).unwrap().sample(&mut r), 0);
        assert_eq!(Binomial::new(10, 0.0).unwrap().sample(&mut r), 0);
        assert_eq!(Binomial::new(10, 1.0).unwrap().sample(&mut r), 10);
        assert!(Binomial::new(10, -0.1).is_err());
        assert!(Binomial::new(10, 1.1).is_err());
        assert!(Binomial::new(10, f64::NAN).is_err());
    }

    #[test]
    fn binomial_deterministic_per_seed() {
        let d = Binomial::new(5000, 0.3).unwrap();
        let a: Vec<u64> = {
            let mut r = rng();
            (0..32).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng();
            (0..32).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn sorted_uniforms_sorted_and_in_range() {
        let mut r = rng();
        let us = sorted_uniforms(1000, &mut r);
        assert_eq!(us.len(), 1000);
        for w in us.windows(2) {
            assert!(w[0] <= w[1], "not sorted: {} > {}", w[0], w[1]);
        }
        for &u in &us {
            assert!((0.0..1.0).contains(&u), "out of range: {u}");
        }
        assert!(sorted_uniforms(0, &mut r).is_empty());
    }

    #[test]
    fn sorted_uniforms_uniform_marginal() {
        // Mean of all order statistics pooled = 1/2; spacing between the
        // k-th order statistic mean and k/(n+1) is exact in expectation.
        let mut r = rng();
        let n = 2000;
        let reps = 200;
        let mut acc = vec![0.0; n];
        for _ in 0..reps {
            let us = sorted_uniforms(n, &mut r);
            for (a, u) in acc.iter_mut().zip(&us) {
                *a += u;
            }
        }
        let mid = acc[n / 2] / reps as f64;
        assert!((mid - 0.5).abs() < 0.02, "median order stat mean {mid}");
        let q1 = acc[n / 4] / reps as f64;
        assert!((q1 - 0.25).abs() < 0.02, "q1 order stat mean {q1}");
    }

    #[test]
    fn inverse_cdf_roundtrips_exponential() {
        // F(t) = 1 - exp(-t/10): invert tabulation vs the closed form.
        let table = InverseCdf::tabulate(|t| 1.0 - (-t / 10.0).exp(), 200.0, 4096).unwrap();
        for u in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let t = table.invert(u);
            let exact = -10.0 * (1.0 - u).ln();
            assert!((t - exact).abs() < 0.05, "u={u}: {t} vs {exact}");
        }
        assert_eq!(table.invert(0.0), 0.0);
        assert!((table.t_max() - 200.0).abs() < 1e-12);
        // Mass beyond the table clamps to t_max.
        assert!((table.invert(0.9999999999) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_cdf_cursor_matches_scalar_invert_bit_for_bit() {
        // F(0) = 0.1 (an atom at zero), a plateau at 0.5 over t ∈ [2, 4],
        // and mass short of 1 at t_max, so both guards and a flat segment
        // are reachable.
        let f = |t: f64| {
            let ramp = if t < 2.0 {
                0.1 + 0.2 * t
            } else if t < 4.0 {
                0.5
            } else {
                0.5 + 0.04 * (t - 4.0)
            };
            ramp.min(0.95)
        };
        let table = InverseCdf::tabulate(f, 16.0, 64).unwrap();
        let mut us = vec![0.0, 0.05, 0.1, 0.1, 0.1000001, 0.3, 0.5, 0.5, 0.5, 0.5000001, 0.7];
        us.extend([0.9, 0.95, 0.95, 0.97, 0.999]);
        let mut r = rng();
        us.extend(sorted_uniforms(500, &mut r));
        us.sort_by(f64::total_cmp);
        let check = |us: &[f64]| {
            let got: Vec<f64> = table.invert_ascending(us).collect();
            assert_eq!(got.len(), us.len());
            for (&u, t) in us.iter().zip(got) {
                assert_eq!(t.to_bits(), table.invert(u).to_bits(), "u = {u}");
            }
        };
        check(&us);
        check(&[]);
        // Out-of-order input restarts the walk and stays exact.
        check(&[0.6, 0.2, 0.5, 0.12, 0.96, 0.3]);
    }

    #[test]
    fn inverse_cdf_guide_finds_the_binary_search_knot() {
        // Atoms, plateaus, a jump across many guide buckets, mass short
        // of 1, and a CDF that leaves [0, 1] (searched without the guide).
        let shapes: [(&dyn Fn(f64) -> f64, f64); 3] = [
            (&|t: f64| if t < 5.0 { 0.25 } else { 0.25 + (t - 5.0) / 20.0 }, 20.0),
            (&|t: f64| ((t * 3.0).floor() / 40.0).min(0.9), 16.0),
            (&|t: f64| t / 4.0 - 0.5, 10.0),
        ];
        let mut r = rng();
        for (i, (cdf, t_max)) in shapes.into_iter().enumerate() {
            let table = InverseCdf::tabulate(cdf, t_max, 1000).unwrap();
            let (ts, vals) = table.knots();
            let mut us: Vec<f64> = (0..20_000).map(|_| r.next_f64() * 3.0 - 1.0).collect();
            for &f in vals {
                us.extend([f, f64::from_bits(f.to_bits() ^ 1), f + 1e-12, f - 1e-12]);
            }
            for u in us {
                let oracle = if u <= vals[0] {
                    ts[0]
                } else if u >= vals[vals.len() - 1] {
                    ts[ts.len() - 1]
                } else {
                    table.interpolate(vals.partition_point(|&f| f < u), u)
                };
                assert_eq!(table.invert(u).to_bits(), oracle.to_bits(), "shape {i}, u = {u:e}");
            }
        }
    }

    #[test]
    fn inverse_cdf_rejects_malformed() {
        assert!(InverseCdf::tabulate(|t| t, 0.0, 10).is_err());
        assert!(InverseCdf::tabulate(|t| t, 10.0, 1).is_err());
        assert!(InverseCdf::tabulate(|t| -t, 10.0, 10).is_err());
        assert!(InverseCdf::tabulate(|_| f64::NAN, 10.0, 10).is_err());
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - core::f64::consts::PI.sqrt()).abs() < 1e-10);
        assert!((gamma(1.5) - core::f64::consts::PI.sqrt() / 2.0).abs() < 1e-10);
    }

    #[test]
    fn param_error_displays() {
        let e = Uniform::new(1.0, 0.0).unwrap_err();
        assert!(e.to_string().contains("Uniform"));
    }

    /// `(mean, sd, hi)` of the weekly delivered count at per-packet
    /// probability `p` over `reports` reports, as the Legacy weekly pass
    /// forms them.
    fn weekly_moments(p: f64, reports: u64) -> (f64, f64, u64) {
        let n = reports as f64;
        (n * p, (n * p * (1.0 - p)).sqrt(), reports)
    }

    /// The per-packet probabilities the sweeps cover: the paper arms'
    /// (owned: 0.95 per packet; Helium: 0.90 per hotspot, one to six
    /// hotspots; both × 0.999 energy availability), the extremes, and a
    /// `p > 1` whose `sd` is NaN.
    fn sweep_probabilities() -> Vec<f64> {
        let mut ps = vec![0.95 * 0.999];
        ps.extend((1..=6).map(|n| (1.0 - (1.0 - 0.9f64).powi(n)) * 0.999));
        ps.extend([1e-9, 0.5, 1.0 - 1e-9, 1.0, 1.25]);
        ps
    }

    /// Draws `pairs` uniform pairs from `seed`, cycling through every
    /// probability × `reports ∈ {168, 1}`, and checks the kernel's `z`
    /// against libm's within [`KERNEL_Z_BOUND`] and `rounded` against
    /// `exact_rounded`. Returns how many draws with a finite `sd` fell
    /// back to libm (a NaN `sd` always does).
    fn sweep(pairs: u64, seed: u64) -> u64 {
        let mut cases = Vec::new();
        for p in sweep_probabilities() {
            cases.push(weekly_moments(p, 168));
            cases.push(weekly_moments(p, 1));
        }
        let mut r = Rng::seed_from(seed);
        let mut fallbacks = 0;
        for i in 0..pairs {
            let d = NormalDraw::take(&mut r);
            let z = d.z();
            let err = (kernel_z(d.u1, d.u2) - z).abs();
            assert!(err <= KERNEL_Z_BOUND, "|Δz| = {err:e} at {d:?}");
            let (mean, sd, hi) = cases[(i % cases.len() as u64) as usize];
            let fast = d.fast_rounded(mean, sd, hi);
            let exact = d.exact_rounded(mean, sd, hi);
            assert_eq!(d.rounded(mean, sd, hi), exact, "{d:?} mean {mean} sd {sd}");
            match fast {
                Some(n) => assert_eq!(n, exact, "{d:?} mean {mean} sd {sd}"),
                None if sd.is_nan() => {}
                None => fallbacks += 1,
            }
        }
        fallbacks
    }

    #[test]
    fn standard_normal_is_the_draws_libm_variate() {
        let (mut a, mut b) = (rng(), rng());
        for _ in 0..1000 {
            let z = standard_normal(&mut a);
            assert_eq!(z.to_bits(), NormalDraw::take(&mut b).z().to_bits());
        }
        assert_eq!(a.next_u64(), b.next_u64(), "both consume two uniforms per draw");
    }

    #[test]
    fn rounded_matches_libm_over_ten_million_pairs() {
        // The guard band catches a few draws per million: live, and rare.
        let fallbacks = sweep(10_000_000, 29);
        assert!((1..1_000).contains(&fallbacks), "{fallbacks} fallbacks");
    }

    #[test]
    #[ignore = "10^8 draws in a release build; scripts/verify.sh runs it"]
    fn rounded_matches_libm_over_a_hundred_million_pairs() {
        sweep(100_000_000, 30);
    }

    #[test]
    fn rounded_matches_libm_at_the_extreme_uniforms() {
        let top = 1.0 - f64::EPSILON / 2.0;
        let mut u2s = vec![0.0, top];
        u2s.extend((0..4).map(|k| k as f64 / 4.0));
        u2s.extend((0..256).map(|k| k as f64 / 256.0));
        // 1 − 2^-8 is the far edge of the last `ln` interval, where the
        // polynomial's truncation is largest relative to `ln u1`.
        for u1 in [f64::EPSILON / 2.0, 1.0 - 1.0 / 256.0, top] {
            for &u2 in &u2s {
                let d = NormalDraw::from_uniforms(u1, u2);
                let err = (kernel_z(u1, u2) - d.z()).abs();
                assert!(err <= KERNEL_Z_BOUND, "|Δz| = {err:e} at {d:?}");
                for p in sweep_probabilities() {
                    for reports in [168, 1] {
                        let (mean, sd, hi) = weekly_moments(p, reports);
                        let exact = d.exact_rounded(mean, sd, hi);
                        assert_eq!(d.rounded(mean, sd, hi), exact, "{d:?} p {p}");
                        if let Some(n) = d.fast_rounded(mean, sd, hi) {
                            assert_eq!(n, exact, "{d:?} p {p}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn near_half_integer_values_reach_the_fallback() {
        let mut r = rng();
        for i in 0..2_000 {
            let d = NormalDraw::take(&mut r);
            let sd = [0.0, 0.3, 2.1, 6.4][i % 4];
            let guard = ROUNDING_GUARD * (1.0 + sd);
            for k in [0.5, 1.5, 83.5, 167.5] {
                // Within the guard band of the half-integer k: the
                // kernel must not answer.
                for off in [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 0.5 * guard, -0.5 * guard] {
                    let mean = k + off - sd * d.z();
                    if !(0.0..=168.0).contains(&mean) {
                        continue;
                    }
                    assert_eq!(d.fast_rounded(mean, sd, 168), None, "{d:?} mean {mean} sd {sd}");
                    assert_eq!(d.rounded(mean, sd, 168), d.exact_rounded(mean, sd, 168));
                }
                // Clear of the band, it answers, and answers right.
                for off in [2.0 * guard, -2.0 * guard] {
                    let mean = k + off - sd * d.z();
                    if !(0.0..=168.0).contains(&mean) {
                        continue;
                    }
                    let fast = d.fast_rounded(mean, sd, 168);
                    assert_eq!(fast, Some(d.exact_rounded(mean, sd, 168)), "{d:?} mean {mean}");
                }
            }
        }
        // Angles a quarter turn apart: libm's cos(2π·¼) is 6e-17, not 0,
        // so `0.5 + sd·z` is a tie only up to that residue.
        for u2 in [0.25, 0.75] {
            let d = NormalDraw::from_uniforms(0.3, u2);
            assert_eq!(d.fast_rounded(0.5, 1.0, 1), None);
            assert_eq!(d.rounded(0.5, 1.0, 1), d.exact_rounded(0.5, 1.0, 1));
        }
    }

    #[test]
    fn inputs_outside_the_domain_reach_the_fallback() {
        let d = NormalDraw::from_uniforms(0.3, 0.1);
        let (mean, sd, hi) = weekly_moments(1.25, 168);
        assert!(sd.is_nan());
        assert_eq!(d.fast_rounded(mean, sd, hi), None);
        assert_eq!(d.rounded(mean, sd, hi), 0, "NaN rounds, clamps and casts to 0");
        for (mean, sd) in [(f64::NAN, 1.0), (-1.0, 1.0), (1.0, -1.0), (1e7, 1.0), (1.0, 1e7)] {
            assert_eq!(d.fast_rounded(mean, sd, 168), None, "mean {mean} sd {sd}");
            assert_eq!(d.rounded(mean, sd, 168), d.exact_rounded(mean, sd, 168));
        }
        assert_eq!(d.fast_rounded(1.0, 1.0, 1 << 21), None);
        let tiny = f64::MIN_POSITIVE / 2.0;
        for (u1, u2) in [(0.0, 0.1), (1.0, 0.1), (tiny, 0.1), (0.3, 1.0), (0.3, -0.1)] {
            let d = NormalDraw::from_uniforms(u1, u2);
            assert_eq!(d.fast_rounded(84.0, 6.0, 168), None, "u1 {u1} u2 {u2}");
            assert_eq!(d.rounded(84.0, 6.0, 168), d.exact_rounded(84.0, 6.0, 168));
        }
    }
}
