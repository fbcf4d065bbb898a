//! Machine-readable benchmark artifacts.
//!
//! The serving and storage benches (`anytime`, `cache_hits`, `coverage`,
//! `governor`, `scan`) write their measurements to a `BENCH_<name>.json`
//! file at the repository root in addition to their human-readable stdout
//! report, so CI and plotting scripts can diff runs without scraping
//! tables. The artifact is one JSON object per bench (points as an array),
//! rebuilt in full on every run, and records the `nproc` it ran on. A run
//! at other than the bin's default scale writes under `target/` instead,
//! so a smoke never replaces a tracked artifact.

use std::path::{Path, PathBuf};

/// Absolute path of the `BENCH_<name>.json` artifact at the repository
/// root (two levels above this crate's manifest), or under its `target/`
/// for a run at other than the bin's default scale.
pub fn artifact_path(name: &str, default_scale: bool) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let dir = if default_scale { root } else { root.join("target") };
    dir.join(format!("BENCH_{name}.json"))
}

/// Writes `json` (plus a trailing newline) to [`artifact_path`], creating
/// its directory if needed, and returns the path written.
pub fn write_artifact(name: &str, json: &str, default_scale: bool) -> std::io::Result<PathBuf> {
    let path = artifact_path(name, default_scale);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, format!("{json}\n"))?;
    Ok(path)
}

/// Writes the artifact and reports the outcome on stderr; benches call
/// this last so a read-only filesystem degrades to a warning, not a crash.
/// `default_scale`: every knob that sizes the run took the bin's default.
pub fn emit_artifact(name: &str, json: &str, default_scale: bool) {
    match write_artifact(name, json, default_scale) {
        Ok(path) => eprintln!("# artifact: {}", path.display()),
        Err(e) => eprintln!("# artifact write failed ({name}): {e}"),
    }
}

/// Renders an `f64` as JSON: finite values print plainly, non-finite
/// values become `null` (JSON has no NaN/Infinity literals).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_path_lands_at_the_repo_root() {
        let p = artifact_path("anytime", true);
        assert!(p.ends_with("BENCH_anytime.json"), "{}", p.display());
        // Two levels above crates/bench is the workspace root, which holds
        // the top-level Cargo.toml.
        assert!(p.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn an_off_default_run_lands_under_target() {
        let p = artifact_path("scan", false);
        assert_eq!(p, artifact_path("scan", true).parent().unwrap().join("target/BENCH_scan.json"));
    }

    #[test]
    fn every_tracked_artifact_has_its_bin_and_records_nproc() {
        let root = artifact_path("x", true).parent().unwrap().to_path_buf();
        let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut tracked = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            let Some(name) = file.strip_prefix("BENCH_").and_then(|f| f.strip_suffix(".json"))
            else {
                continue;
            };
            tracked += 1;
            assert!(bins.join(format!("{name}.rs")).exists(), "{file} has no bin {name}.rs");
            let json = std::fs::read_to_string(root.join(&file)).unwrap();
            assert!(json.contains("\"nproc\":"), "{file} does not record nproc");
        }
        assert!(tracked > 0, "no BENCH_*.json at {}", root.display());
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
