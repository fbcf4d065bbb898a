//! Runs `abae-lint` over the workspace and records its coverage as a
//! `BENCH_lint.json` artifact (per-rule counts, files scanned, wall time),
//! so the invariant checker's reach is visible in the same perf/trajectory
//! tooling as the throughput benches.
//!
//! ```sh
//! cargo run --release -p abae_bench --bin lint
//! ```
//!
//! Exits non-zero when the tree has denied diagnostics — the artifact is
//! still written first, so a failing run leaves evidence behind.

use abae_bench::artifact::{emit_artifact, json_f64};
use abae_lint::{lint_root, workspace_root};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let root = workspace_root();
    let started = Instant::now();
    let report = match lint_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint bench: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let denied = report.denied().count();
    let allowed = report.allowed().count();
    println!("abae-lint coverage: {} files scanned in {wall_ms:.1} ms", report.files_scanned);
    println!("{:<24} {:>8} {:>8}", "rule", "denied", "allowed");
    let mut rules = String::new();
    for (rule, (den, alw)) in report.rule_counts() {
        println!("{rule:<24} {den:>8} {alw:>8}");
        if !rules.is_empty() {
            rules.push(',');
        }
        rules.push_str(&format!("\"{rule}\":{{\"denied\":{den},\"allowed\":{alw}}}"));
    }

    let json = format!(
        "{{\"bench\":\"lint\",\"files_scanned\":{},\"denied\":{denied},\"allowed\":{allowed},\
         \"wall_ms\":{},\"rule_counts\":{{{rules}}}}}",
        report.files_scanned,
        json_f64(wall_ms),
    );
    emit_artifact("lint", &json, true);

    if denied > 0 {
        eprintln!("lint bench: {denied} denied diagnostics — run `cargo run -p abae-lint -- --workspace --deny-all`");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
