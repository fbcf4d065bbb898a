//! Emulators for the paper's six real-world datasets (Table 2).
//!
//! The real datasets (night-street and taipei video, celeba images, Amazon
//! movie posters, the trec05p spam corpus, Amazon office-supplies reviews)
//! and their DNN oracles are unavailable offline, so each emulator
//! reconstructs the *joint distribution* of (proxy score, oracle label,
//! statistic) at the paper's scale — the only interface through which ABae
//! observes a dataset. The substitution table in `DESIGN.md` documents, per
//! dataset, what the paper used, what we generate, and why the relevant
//! behaviour is preserved. Parameters stated by the paper (sizes, spam rate
//! of the SPAM25 subset, the 0.17 positive rate of the multi-predicate
//! night-street query) are used verbatim; the rest are documented plausible
//! choices.
//!
//! All emulators are deterministic in `EmulatorOptions::seed`, and accept a
//! `scale` so tests can run on a thousandth of the paper's record counts
//! without changing the distributions.

mod amazon_movies;
mod amazon_office;
mod celeba;
mod night_street;
mod taipei;
mod trec05p;

pub use amazon_movies::amazon_movies;
pub use amazon_office::amazon_office;
pub use celeba::{celeba, celeba_groupby};
pub use night_street::night_street;
pub use taipei::taipei;
pub use trec05p::trec05p;

/// Options shared by every emulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulatorOptions {
    /// Fraction of the paper's full record count to generate (1.0 = paper
    /// scale). The generated count never drops below 30,000 records (or
    /// the paper's full size, if smaller) so the paper's 10,000-call
    /// budgets remain a strict subset of the dataset.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmulatorOptions {
    fn default() -> Self {
        Self { scale: 1.0, seed: 0xABAE }
    }
}

impl EmulatorOptions {
    pub(crate) fn scaled(&self, full: usize) -> usize {
        let floor = 30_000.min(full);
        ((full as f64 * self.scale) as usize).clamp(floor, full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use abae_ml::metrics::auc;

    fn proxy_auc(t: &Table, pred: &str) -> f64 {
        let p = t.predicate(pred).unwrap();
        auc(p.proxy(), &p.labels_vec()).unwrap()
    }

    #[test]
    fn all_emulators_generate_and_are_deterministic() {
        let opts = EmulatorOptions { scale: 0.01, seed: 7 };
        type Builder = fn(&EmulatorOptions) -> Table;
        let builders: Vec<(&str, Builder)> = vec![
            ("night-street", night_street),
            ("taipei", taipei),
            ("celeba", celeba),
            ("amazon-movies", amazon_movies),
            ("trec05p", trec05p),
            ("amazon-office", amazon_office),
        ];
        for (name, build) in builders {
            let a = build(&opts);
            let b = build(&opts);
            assert_eq!(a, b, "{name} not deterministic");
            assert!(a.len() >= 1000, "{name} too small: {}", a.len());
        }
    }

    #[test]
    fn scale_controls_size() {
        let small = night_street(&EmulatorOptions { scale: 0.05, seed: 1 });
        let large = night_street(&EmulatorOptions { scale: 0.25, seed: 1 });
        assert!(large.len() > 3 * small.len());
        // The floor keeps tiny scales usable with 10k-call budgets.
        assert_eq!(night_street(&EmulatorOptions { scale: 0.001, seed: 1 }).len(), 30_000);
        // Paper scale: 973,136 records.
        assert_eq!(night_street(&EmulatorOptions { scale: 1.0, seed: 1 }).len(), 973_136);
    }

    #[test]
    fn positive_rates_are_in_documented_bands() {
        let opts = EmulatorOptions { scale: 0.05, seed: 11 };
        let cases = [
            (night_street(&opts), "has_car", 0.25, 0.05),
            (taipei(&opts), "has_car", 0.48, 0.05),
            (celeba(&opts), "blonde_hair", 0.148, 0.04),
            (amazon_movies(&opts), "female_face", 0.35, 0.05),
            (trec05p(&opts), "is_spam", 0.25, 0.04),
            (amazon_office(&opts), "strongly_positive", 0.45, 0.05),
        ];
        for (t, pred, want, tol) in cases {
            let rate = t.positive_rate(pred).unwrap();
            assert!(
                (rate - want).abs() < tol,
                "{}: positive rate {rate}, want {want}±{tol}",
                t.name()
            );
        }
    }

    #[test]
    fn proxies_are_informative_but_imperfect() {
        let opts = EmulatorOptions { scale: 0.05, seed: 13 };
        let cases = [
            (night_street(&opts), "has_car", 0.80, 1.0),
            (taipei(&opts), "has_car", 0.78, 1.0),
            (celeba(&opts), "blonde_hair", 0.85, 1.0),
            (amazon_movies(&opts), "female_face", 0.75, 0.98),
            (trec05p(&opts), "is_spam", 0.68, 0.95),
            (amazon_office(&opts), "strongly_positive", 0.65, 0.95),
        ];
        for (t, pred, lo, hi) in cases {
            let a = proxy_auc(&t, pred);
            assert!((lo..=hi).contains(&a), "{}: AUC {a} outside [{lo}, {hi}]", t.name());
        }
    }

    #[test]
    fn night_street_multipred_positive_rate_matches_paper() {
        // §5.2: "The positive rate is 0.17" for cars ∧ red light.
        let opts = EmulatorOptions { scale: 0.05, seed: 17 };
        let t = night_street(&opts);
        let cars = t.predicate("has_car").unwrap().labels();
        let red = t.predicate("red_light").unwrap().labels();
        // Word-wise conjunction over the packed label bitmaps.
        let both = cars.bitmap().and(red.bitmap()).count_ones() as f64 / t.len() as f64;
        assert!((both - 0.17).abs() < 0.03, "conjunction rate {both}");
    }

    #[test]
    fn statistic_supports_match_their_domains() {
        let opts = EmulatorOptions { scale: 0.02, seed: 19 };
        // Car counts are ≥ 1 for matching frames.
        let ns = night_street(&opts);
        let cars = ns.predicate("has_car").unwrap().labels();
        for i in cars.iter_ones() {
            assert!(ns.statistic(i) >= 1.0);
        }
        // Ratings are 1..=5.
        let movies = amazon_movies(&opts);
        assert!(movies.statistics().iter().all(|&v| (1.0..=5.0).contains(&v)));
        // Smiling percentage is 0 or 100.
        let faces = celeba(&opts);
        assert!(faces.statistics().iter().all(|&v| v == 0.0 || v == 100.0));
        // Link counts are non-negative integers.
        let spam = trec05p(&opts);
        assert!(spam.statistics().iter().all(|&v| v >= 0.0 && v.fract() == 0.0));
    }

    #[test]
    fn trec05p_carries_real_text_and_multiple_proxies() {
        let opts = EmulatorOptions { scale: 0.02, seed: 23 };
        let t = trec05p(&opts);
        let texts = t.texts().expect("trec05p emulator generates token streams");
        assert_eq!(texts.len(), t.len());
        assert!(texts.iter().all(|s| !s.is_empty()));
        // Three keyword proxies of decreasing quality for Figure 12.
        let a1 = proxy_auc(&t, "is_spam");
        let a2 = proxy_auc(&t, "is_spam_kw2");
        let a3 = proxy_auc(&t, "is_spam_kw3");
        assert!(a1 > a2, "kw1 {a1} vs kw2 {a2}");
        assert!(a2 > a3, "kw2 {a2} vs kw3 {a3}");
        assert!(a3 < 0.62, "kw3 should be near-useless, got {a3}");
    }

    #[test]
    fn celeba_groupby_has_two_hair_color_groups() {
        let opts = EmulatorOptions { scale: 0.05, seed: 29 };
        let t = celeba_groupby(&opts);
        let gk = t.group_key().unwrap();
        assert_eq!(gk.names(), &["gray".to_string(), "blond".to_string()]);
        let gray_rate = t.exact_group_count(0).unwrap() / t.len() as f64;
        let blond_rate = t.exact_group_count(1).unwrap() / t.len() as f64;
        assert!((gray_rate - 0.042).abs() < 0.02, "gray {gray_rate}");
        assert!((blond_rate - 0.148).abs() < 0.03, "blond {blond_rate}");
        // Statistic is a smiling percentage.
        assert!(t.statistics().iter().all(|&v| v == 0.0 || v == 100.0));
    }
}
