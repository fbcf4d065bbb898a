//! Fixture tests: one positive and one negative case (at least) per rule,
//! plus the allowlist mechanics.
//!
//! Fixtures are inline strings handed to [`abae_lint::lint_source`] under
//! *virtual* paths, so the path-classification matrix is exercised without
//! planting violating `.rs` files in the tree (which the workspace
//! self-check would then flag). The violating tokens below only ever
//! appear inside string literals, which the linter's own masking hides
//! from the self-scan.

use abae_lint::{lint_source, Diagnostic};

/// Denied `(rule, line)` pairs for one fixture.
fn denied(path: &str, src: &str) -> Vec<(String, usize)> {
    lint_source(path, src)
        .into_iter()
        .filter(|d| d.allowed.is_none())
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

/// Allowed (suppressed) diagnostics for one fixture.
fn allowed(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_source(path, src).into_iter().filter(|d| d.allowed.is_some()).collect()
}

// ---------------------------------------------------------------- hash_iter

#[test]
fn hash_iter_positive_in_result_path_crate() {
    let src = "use std::collections::HashMap;\nstruct S { m: HashSet<u32> }\n";
    let d = denied("crates/core/src/x.rs", src);
    assert_eq!(
        d,
        vec![("hash_iter".to_string(), 1), ("hash_iter".to_string(), 2)],
        "both hash containers flagged"
    );
}

#[test]
fn hash_iter_negative_outside_result_path_and_in_tests() {
    let src = "use std::collections::HashMap;\n";
    assert!(denied("crates/bench/src/x.rs", src).is_empty(), "bench crate exempt");
    assert!(denied("crates/optim/src/x.rs", src).is_empty(), "non-result-path crate exempt");
    let in_test = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
    assert!(denied("crates/core/src/x.rs", in_test).is_empty(), "unit tests exempt");
    let btree = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u32>) {}\n";
    assert!(denied("crates/core/src/x.rs", btree).is_empty(), "ordered maps fine");
}

#[test]
fn hash_iter_ignores_strings_and_comments() {
    let src = "// a HashMap in prose\nlet s = \"HashMap\";\n";
    assert!(denied("crates/core/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------- no_panic_decode

const DECODE_PATH: &str = "crates/data/src/columnar/file.rs";

#[test]
fn no_panic_decode_positive_unwrap_macros_indexing() {
    let src = "fn d(b: &[u8]) -> u8 {\n    let x = b.first().unwrap();\n    assert!(b.len() > 2);\n    panic!(\"no\");\n    b[0]\n}\n";
    let rules: Vec<(String, usize)> = denied(DECODE_PATH, src);
    assert_eq!(
        rules,
        vec![
            ("no_panic_decode".to_string(), 2),
            ("no_panic_decode".to_string(), 3),
            ("no_panic_decode".to_string(), 4),
            ("no_panic_decode".to_string(), 5),
        ]
    );
}

#[test]
fn no_panic_decode_negative_other_files_and_safe_forms() {
    let src = "fn d(b: &[u8]) -> u8 { b.first().unwrap() }\n";
    assert!(denied("crates/data/src/columnar/column.rs", src).is_empty(), "only designated files");
    let safe = "fn d<'a>(b: &'a [u8]) -> Option<&'a [u8]> {\n    debug_assert_eq!(b.len() % 8, 0);\n    let v = vec![1u8];\n    #[allow(dead_code)]\n    fn g() {}\n    b.get(..4)\n}\n";
    assert!(denied(DECODE_PATH, safe).is_empty(), "get/debug_assert/vec!/attrs/slice types fine");
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let b = [1u8]; assert_eq!(b[0], 1); }\n}\n";
    assert!(denied(DECODE_PATH, in_test).is_empty(), "decode module's tests may assert");
}

#[test]
fn no_panic_decode_covers_the_pgwire_codec() {
    // The server's wire codec is the second designated never-panic file:
    // any TCP peer can hand it arbitrary bytes, so the same hostile-input
    // contract as the `.abcol` decoder applies.
    let wire = "crates/server/src/codec.rs";
    let src = "fn decode_startup(b: &[u8]) -> u32 {\n    let len = u32::from_be_bytes(b[..4].try_into().unwrap());\n    len\n}\n";
    let rules: Vec<String> = denied(wire, src).into_iter().map(|(r, _)| r).collect();
    assert_eq!(
        rules,
        vec!["no_panic_decode".to_string(), "no_panic_decode".to_string()],
        "indexing and unwrap both flagged in the wire codec"
    );
    let safe = "fn decode_startup(b: &[u8]) -> Option<u32> {\n    let p: [u8; 4] = b.get(..4)?.try_into().ok()?;\n    Some(u32::from_be_bytes(p))\n}\n";
    assert!(denied(wire, safe).is_empty(), "get-based prefix reads pass");
    assert!(
        denied("crates/server/src/server.rs", src).is_empty(),
        "only the codec module carries the contract, not the whole server crate"
    );
}

// ---------------------------------------------------------- rng_discipline

#[test]
fn rng_discipline_positive_entropy_everywhere() {
    let src = "let mut r = rand::thread_rng();\n";
    for path in ["crates/core/src/x.rs", "tests/t.rs", "crates/bench/src/bin/b.rs"] {
        let d = denied(path, src);
        assert_eq!(d, vec![("rng_discipline".to_string(), 1)], "entropy banned in {path}");
    }
    let os = "let r = StdRng::from_entropy();\nlet v: u8 = rand::random();\n";
    assert_eq!(denied("crates/data/src/x.rs", os).len(), 2);
}

#[test]
fn rng_discipline_positive_raw_seeding_outside_blessed_modules() {
    let src = "let mut r = StdRng::seed_from_u64(42);\n";
    assert_eq!(denied("crates/core/src/x.rs", src), vec![("rng_discipline".to_string(), 1)]);
}

#[test]
fn rng_discipline_negative_blessed_and_harness_seeding() {
    let src = "let mut r = StdRng::seed_from_u64(42);\n";
    for path in [
        "crates/query/src/session.rs",
        "crates/query/src/engine.rs",
        "crates/data/src/synthetic.rs",
        "crates/bench/src/bin/b.rs",
        "tests/t.rs",
        "examples/e.rs",
    ] {
        assert!(denied(path, src).is_empty(), "seeding allowed in {path}");
    }
    let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { let r = StdRng::seed_from_u64(1); }\n}\n";
    assert!(denied("crates/core/src/x.rs", in_test).is_empty(), "unit tests may seed");
}

// -------------------------------------------------------------- wall_clock

#[test]
fn wall_clock_positive_in_library_and_tests() {
    let src = "let t = std::time::Instant::now();\n";
    assert_eq!(denied("crates/core/src/x.rs", src), vec![("wall_clock".to_string(), 1)]);
    assert_eq!(denied("tests/t.rs", src), vec![("wall_clock".to_string(), 1)], "tests not exempt");
    let sys = "let t = SystemTime::now();\n";
    assert_eq!(denied("crates/data/src/x.rs", sys).len(), 1);
}

#[test]
fn wall_clock_negative_in_bench_bin_example() {
    let src = "let t = std::time::Instant::now();\n";
    for path in ["crates/bench/src/x.rs", "src/bin/abae-cli.rs", "examples/e.rs", "crates/lint/src/main.rs"] {
        assert!(denied(path, src).is_empty(), "clock allowed in {path}");
    }
}

// ------------------------------------------------------------- float_order

#[test]
fn float_order_positive_sum_in_parallel_module() {
    let src = "fn f(xs: &[f64]) -> f64 {\n    std::thread::scope(|s| { s.spawn(|| ()); });\n    xs.iter().sum()\n}\n";
    let d = denied("crates/core/src/x.rs", src);
    assert_eq!(d, vec![("float_order".to_string(), 3)]);
}

#[test]
fn float_order_negative_sequential_pinned_or_elsewhere() {
    let seq = "fn f(xs: &[f64]) -> f64 { xs.iter().sum() }\n";
    assert!(denied("crates/core/src/x.rs", seq).is_empty(), "no parallelism, no finding");
    let par = "fn f(xs: &[f64]) -> f64 {\n    std::thread::scope(|s| { s.spawn(|| ()); });\n    xs.iter().sum()\n}\n";
    assert!(denied("crates/stats/src/x.rs", par).is_empty(), "pinned kernel modules exempt");
    assert!(denied("crates/bench/src/x.rs", par).is_empty(), "outside result path");
}

// --------------------------------------------------- unsafe_safety_comment

#[test]
fn unsafe_safety_positive_without_comment() {
    let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
    let d = denied("crates/core/src/x.rs", src);
    assert_eq!(d, vec![("unsafe_safety_comment".to_string(), 1)]);
}

#[test]
fn unsafe_safety_negative_with_comment() {
    let above = "// SAFETY: the caller proved the invariant\nunsafe { go() }\n";
    assert!(denied("crates/core/src/x.rs", above).is_empty());
    let same_line = "unsafe { go() } // SAFETY: justified inline\n";
    assert!(denied("crates/core/src/x.rs", same_line).is_empty());
    let too_far = "// SAFETY: stale, five lines up\n\n\n\n\nunsafe { go() }\n";
    assert_eq!(denied("crates/core/src/x.rs", too_far).len(), 1, "comment must be within 3 lines");
}

// ---------------------------------------------------------------- allowlist

#[test]
fn allowlist_suppresses_with_reason_attached() {
    let src = "// abae-lint: allow(hash_iter) -- lookup-only cache, never iterated\nuse std::collections::HashMap;\n";
    assert!(denied("crates/core/src/x.rs", src).is_empty());
    let a = allowed("crates/core/src/x.rs", src);
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].allowed.as_deref(), Some("lookup-only cache, never iterated"));
}

#[test]
fn allowlist_without_reason_is_denied_and_suppresses_nothing() {
    let src = "// abae-lint: allow(hash_iter)\nuse std::collections::HashMap;\n";
    let d = denied("crates/core/src/x.rs", src);
    assert_eq!(
        d,
        vec![("bad_allowlist".to_string(), 1), ("hash_iter".to_string(), 2)],
        "the malformed entry is itself a finding and the violation stays denied"
    );
}

#[test]
fn allowlist_unknown_rule_is_denied() {
    let src = "// abae-lint: allow(hash_itre) -- typo\nuse std::collections::HashMap;\n";
    let rules: Vec<String> = denied("crates/core/src/x.rs", src).into_iter().map(|(r, _)| r).collect();
    assert_eq!(rules, vec!["bad_allowlist".to_string(), "hash_iter".to_string()]);
}

#[test]
fn allowlist_only_covers_named_rule_and_adjacent_line() {
    let wrong_rule = "// abae-lint: allow(wall_clock) -- unrelated\nuse std::collections::HashMap;\n";
    assert_eq!(denied("crates/core/src/x.rs", wrong_rule).len(), 1, "other rules unaffected");
    let too_far = "// abae-lint: allow(hash_iter) -- meant for something else\nlet a = 1;\nuse std::collections::HashMap;\n";
    assert_eq!(denied("crates/core/src/x.rs", too_far).len(), 1, "coverage is one code line");
}

#[test]
fn allowlist_reaches_past_intervening_comments_and_multiple_rules() {
    let src = "// abae-lint: allow(hash_iter, wall_clock) -- one entry, two rules\n// more prose about why\nfn f() { let t: (HashMap<u8, u8>, _) = todo(Instant::now()); }\n";
    assert!(denied("crates/core/src/x.rs", src).is_empty(), "comment lines are skipped; both rules suppressed");
    assert_eq!(allowed("crates/core/src/x.rs", src).len(), 2);
}
