//! Random variate generation built from scratch on top of a uniform source.
//!
//! The ABae evaluation needs Normal, Beta (built on Gamma), Bernoulli,
//! Poisson, and categorical variates to emulate the paper's datasets (car
//! counts, ratings, link counts, proxy scores drawn from Beta
//! distributions, ...). The `rand` crate only ships uniform sampling, so
//! every sampler here is implemented directly:
//!
//! * Normal — Marsaglia polar method.
//! * Gamma — Marsaglia–Tsang squeeze (with the `U^{1/α}` boost for `α < 1`).
//! * Beta — ratio of Gammas.
//! * Poisson — Knuth multiplication for `λ < 30`, Gaussian approximation
//!   otherwise.
//! * Categorical — Walker/Vose alias method (O(1) per draw).
//!
//! All samplers implement [`rand::distributions::Distribution`] so they
//! compose with `Rng::sample` and iterator adapters.

use rand::distributions::Distribution;
use rand::Rng;

/// Error constructing a distribution from invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError {
    what: &'static str,
}

impl ParamError {
    fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for ParamError {}

/// Normal (Gaussian) distribution sampled with the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation. `std_dev` must be finite and non-negative.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, ParamError> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err(ParamError::new("Normal requires finite mean and std_dev >= 0"));
        }
        Ok(Self { mean, std_dev })
    }
}

/// Draws one standard-normal variate via the Marsaglia polar method.
///
/// The second variate of the pair is intentionally discarded so the sampler
/// stays stateless; the extra uniform draws are negligible for our workloads.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Gamma distribution with shape `alpha` and scale `theta`.
///
/// Sampling uses the Marsaglia–Tsang (2000) squeeze method for `alpha >= 1`
/// and the boosting identity `Gamma(alpha) = Gamma(alpha + 1) * U^(1/alpha)`
/// for `alpha < 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    alpha: f64,
    theta: f64,
}

impl Gamma {
    /// Creates a gamma distribution with shape `alpha > 0`, scale `theta > 0`.
    pub fn new(alpha: f64, theta: f64) -> Result<Self, ParamError> {
        if alpha.is_nan()
            || theta.is_nan()
            || alpha <= 0.0
            || theta <= 0.0
            || !alpha.is_finite()
            || !theta.is_finite()
        {
            return Err(ParamError::new("Gamma requires alpha > 0 and theta > 0"));
        }
        Ok(Self { alpha, theta })
    }

    fn sample_shape_ge_one<R: Rng + ?Sized>(alpha: f64, rng: &mut R) -> f64 {
        debug_assert!(alpha >= 1.0);
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen::<f64>();
            // Squeeze step (cheap acceptance), then full log test.
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Distribution<f64> for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = if self.alpha >= 1.0 {
            Self::sample_shape_ge_one(self.alpha, rng)
        } else {
            // Boost: if Y ~ Gamma(alpha + 1) and U ~ Uniform(0,1), then
            // Y * U^(1/alpha) ~ Gamma(alpha).
            let y = Self::sample_shape_ge_one(self.alpha + 1.0, rng);
            let u: f64 = 1.0 - rng.gen::<f64>();
            y * u.powf(1.0 / self.alpha)
        };
        z * self.theta
    }
}

/// Beta distribution on `[0, 1]`, sampled as a ratio of Gamma variates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    a: Gamma,
    b: Gamma,
    alpha: f64,
    beta: f64,
}

impl Beta {
    /// Creates a Beta distribution with shape parameters `alpha, beta > 0`.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, ParamError> {
        Ok(Self {
            a: Gamma::new(alpha, 1.0)?,
            b: Gamma::new(beta, 1.0)?,
            alpha,
            beta,
        })
    }

    /// Mean of the distribution, `alpha / (alpha + beta)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }
}

impl Distribution<f64> for Beta {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = self.a.sample(rng);
        let y = self.b.sample(rng);
        if x + y == 0.0 {
            // Both gammas underflowed (possible for tiny shapes); fall back
            // to the mean rather than producing NaN.
            return self.mean();
        }
        x / (x + y)
    }
}

/// Bernoulli distribution returning `true` with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution; `p` must lie in `[0, 1]`.
    pub fn new(p: f64) -> Result<Self, ParamError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ParamError::new("Bernoulli requires p in [0, 1]"));
        }
        Ok(Self { p })
    }
}

impl Distribution<bool> for Bernoulli {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.p
    }
}

/// Poisson distribution with mean `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with mean `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if lambda <= 0.0 || lambda.is_nan() || !lambda.is_finite() {
            return Err(ParamError::new("Poisson requires lambda > 0"));
        }
        Ok(Self { lambda })
    }
}

impl Distribution<u64> for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            // Knuth's multiplication method (exact).
            let l = (-self.lambda).exp();
            let mut k: u64 = 0;
            let mut p = 1.0;
            loop {
                p *= rng.gen::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        }
        // Gaussian approximation with continuity correction for large lambda.
        let z = standard_normal(rng);
        let x = (self.lambda + self.lambda.sqrt() * z + 0.5).floor();
        x.max(0.0) as u64
    }
}

/// Categorical distribution over `0..k` sampled with the Walker/Vose alias
/// method: O(k) setup, O(1) per draw.
///
/// Used for discrete statistic distributions in the dataset emulators (e.g.
/// 1–5 star ratings).
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl Categorical {
    /// Builds the alias table from non-negative weights (not necessarily
    /// normalized). At least one weight must be positive.
    pub fn new(weights: &[f64]) -> Result<Self, ParamError> {
        if weights.is_empty() {
            return Err(ParamError::new("Categorical requires at least one weight"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ParamError::new("Categorical weights must be finite and >= 0"));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ParamError::new("Categorical requires a positive total weight"));
        }
        let k = weights.len();
        // Scaled probabilities; alias construction per Vose (1991).
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * k as f64 / total).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut prob = vec![1.0; k];
        let mut alias = vec![0usize; k];
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Remaining entries (numerical leftovers) get probability 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(Self { prob, alias })
    }
}

impl Distribution<usize> for Categorical {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let k = self.prob.len();
        let i = rng.gen_range(0..k);
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xAB_AE)
    }

    fn sample_mean_var<D: Distribution<f64>>(d: &D, n: usize) -> (f64, f64) {
        let mut r = rng();
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for i in 0..n {
            let x = d.sample(&mut r);
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        (mean, m2 / (n - 1) as f64)
    }

    #[test]
    fn normal_moments_match() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let (m, v) = sample_mean_var(&d, 200_000);
        assert!((m - 3.0).abs() < 0.03, "mean {m}");
        assert!((v - 4.0).abs() < 0.1, "var {v}");
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn normal_zero_std_dev_is_constant() {
        let d = Normal::new(5.0, 0.0).unwrap();
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 5.0);
        }
    }

    #[test]
    fn gamma_moments_large_shape() {
        let d = Gamma::new(4.0, 0.5).unwrap();
        let (m, v) = sample_mean_var(&d, 200_000);
        assert!((m - 2.0).abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.05, "var {v}");
    }

    #[test]
    fn gamma_moments_small_shape() {
        let d = Gamma::new(0.5, 2.0).unwrap();
        let (m, v) = sample_mean_var(&d, 300_000);
        assert!((m - 1.0).abs() < 0.03, "mean {m}");
        assert!((v - 2.0).abs() < 0.15, "var {v}");
    }

    #[test]
    fn beta_moments() {
        let d = Beta::new(2.0, 6.0).unwrap();
        let (m, v) = sample_mean_var(&d, 200_000);
        let expect_m = 0.25;
        let expect_v = 2.0 * 6.0 / (8.0f64.powi(2) * 9.0);
        assert!((m - expect_m).abs() < 0.005, "mean {m}");
        assert!((v - expect_v).abs() < 0.005, "var {v}");
    }

    #[test]
    fn beta_stays_in_unit_interval() {
        let d = Beta::new(0.3, 0.3).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((0.0..=1.0).contains(&x), "sample {x} out of range");
        }
    }

    #[test]
    fn bernoulli_rate() {
        let d = Bernoulli::new(0.3).unwrap();
        let mut r = rng();
        let hits = (0..100_000).filter(|_| d.sample(&mut r)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        assert!(!Bernoulli::new(0.0).unwrap().sample(&mut r));
        assert!(Bernoulli::new(1.0).unwrap().sample(&mut r));
        assert!(Bernoulli::new(1.5).is_err());
        assert!(Bernoulli::new(-0.1).is_err());
    }

    #[test]
    fn poisson_small_lambda() {
        let d = Poisson::new(3.5).unwrap();
        let (m, v) = {
            let mut r = rng();
            let n = 200_000;
            let mut mean = 0.0;
            let mut m2 = 0.0;
            for i in 0..n {
                let x = d.sample(&mut r) as f64;
                let delta = x - mean;
                mean += delta / (i + 1) as f64;
                m2 += delta * (x - mean);
            }
            (mean, m2 / (n - 1) as f64)
        };
        assert!((m - 3.5).abs() < 0.03, "mean {m}");
        assert!((v - 3.5).abs() < 0.1, "var {v}");
    }

    #[test]
    fn poisson_large_lambda_approx() {
        let d = Poisson::new(400.0).unwrap();
        let mut r = rng();
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += d.sample(&mut r) as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 400.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let d = Categorical::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut r = rng();
        let n = 400_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[d.sample(&mut r)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = (i + 1) as f64 / 10.0;
            let got = c as f64 / n as f64;
            assert!((got - expect).abs() < 0.005, "category {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn categorical_zero_weight_never_sampled() {
        let d = Categorical::new(&[0.0, 1.0, 0.0]).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            assert_eq!(d.sample(&mut r), 1);
        }
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[-1.0, 2.0]).is_err());
        assert!(Categorical::new(&[f64::NAN]).is_err());
    }
}
