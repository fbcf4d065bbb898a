//! Path classification: which rules apply where.
//!
//! Every scanned file gets a [`FileClass`] derived purely from its
//! workspace-relative path (forward slashes, no leading `./`). The rule
//! modules consult these flags instead of re-deriving path logic, so the
//! applicability matrix lives in exactly one place.

/// Crates whose source participates in producing query results. Rules
/// about result determinism (`hash_iter`, `float_order`) apply to their
/// `src/` trees.
pub const RESULT_PATH_CRATES: &[&str] =
    &["crates/core/src/", "crates/sampling/src/", "crates/query/src/", "crates/data/src/", "crates/ml/src/"];

/// Never-panic modules: decode paths fed by untrusted bytes must return
/// a typed error on hostile input, never panic (`no_panic_decode`) — the
/// `.abcol` file decoder and the Postgres-wire message codec, which any
/// TCP peer can feed arbitrary bytes.
pub const NEVER_PANIC_FILES: &[&str] =
    &["crates/data/src/columnar/file.rs", "crates/server/src/codec.rs"];

/// Blessed RNG modules: the only places allowed to seed a generator
/// directly, because every seed there demonstrably descends from the
/// engine seed (or *is* the user-provided dataset/bench seed).
pub const BLESSED_RNG_PATHS: &[&str] = &[
    "crates/query/src/engine.rs",
    "crates/query/src/session.rs",
    "crates/query/src/prepared.rs",
    "crates/data/src/synthetic.rs",
    "crates/data/src/emulators/",
    "crates/bench/src/",
];

/// Pinned floating-point kernels: summation order here is already fixed
/// by construction (sequential folds), so `float_order` does not
/// second-guess them.
pub const PINNED_FLOAT_PATHS: &[&str] = &["crates/stats/src/", "crates/data/src/columnar/"];

/// Directory names never scanned (vendored stand-ins, build output, VCS).
pub const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "scratch"];

/// Rule-applicability flags for one file, derived from its path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Inside a result-path crate's `src/` tree.
    pub result_path: bool,
    /// A designated never-panic module.
    pub never_panic: bool,
    /// Allowed to seed RNGs directly.
    pub blessed_rng: bool,
    /// A pinned floating-point kernel module.
    pub pinned_float: bool,
    /// Part of a measuring harness: the bench crate or the repo benchmark.
    pub bench: bool,
    /// A binary target (`src/bin/…` or a crate's `src/main.rs`).
    pub bin: bool,
    /// Under an `examples/` directory.
    pub example: bool,
    /// Under a `tests/` directory (integration tests).
    pub tests_dir: bool,
}

impl FileClass {
    /// True for contexts exempt from determinism-of-output rules because
    /// they are not part of the library result path: benches, binaries,
    /// examples, integration tests.
    pub fn harness(&self) -> bool {
        self.bench || self.bin || self.example || self.tests_dir
    }
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let starts = |prefixes: &[&str]| prefixes.iter().any(|p| rel.starts_with(p));
    FileClass {
        result_path: starts(RESULT_PATH_CRATES),
        never_panic: NEVER_PANIC_FILES.contains(&rel),
        blessed_rng: starts(BLESSED_RNG_PATHS),
        pinned_float: starts(PINNED_FLOAT_PATHS),
        bench: rel.starts_with("crates/bench/") || rel.starts_with("benchmark/"),
        bin: rel.contains("/bin/") || rel.ends_with("src/main.rs"),
        example: rel.starts_with("examples/") || rel.contains("/examples/"),
        tests_dir: rel.starts_with("tests/") || rel.contains("/tests/"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_result_path_and_harness() {
        let c = classify("crates/core/src/groupby.rs");
        assert!(c.result_path && !c.harness());
        let b = classify("crates/bench/src/bin/scan.rs");
        assert!(b.bench && b.bin && b.harness() && !b.result_path);
        // The repo benchmark is a measuring harness too: it times layers
        // and seeds its own statement streams.
        let r = classify("benchmark/src/refresh.rs");
        assert!(r.bench && r.harness() && !r.result_path);
        let t = classify("tests/invariants.rs");
        assert!(t.tests_dir && t.harness());
        let e = classify("examples/tv_news.rs");
        assert!(e.example && e.harness());
    }

    #[test]
    fn special_modules() {
        assert!(classify("crates/data/src/columnar/file.rs").never_panic);
        assert!(classify("crates/server/src/codec.rs").never_panic);
        assert!(!classify("crates/server/src/server.rs").never_panic);
        assert!(!classify("crates/data/src/columnar/column.rs").never_panic);
        assert!(classify("crates/query/src/session.rs").blessed_rng);
        assert!(classify("crates/data/src/emulators/jackson.rs").blessed_rng);
        assert!(classify("crates/stats/src/ci.rs").pinned_float);
        assert!(!classify("crates/core/src/pipeline.rs").pinned_float);
    }

    #[test]
    fn lint_crate_itself_is_not_result_path() {
        let c = classify("crates/lint/src/lib.rs");
        assert!(!c.result_path && !c.never_panic && !c.blessed_rng);
        assert!(classify("crates/lint/src/main.rs").bin);
    }
}
