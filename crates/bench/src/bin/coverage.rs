//! `coverage` — empirical coverage of `UNTIL CI WIDTH` answers, against a
//! fixed-budget control.
//!
//! The engine's promise is a CI that holds the exact answer at the stated
//! probability. An `UNTIL` statement stops on its own data, so its stopped
//! answers need not keep that promise. This bench runs each statement
//! shape over many sessions of one engine (each session id draws its own
//! records) and reports, per shape:
//!
//! * coverage of the exact answer with its Monte Carlo standard error,
//!   counted per CI (a `GROUP BY` answer holds one CI per group);
//! * mean oracle spend and the share of runs that stopped early;
//! * mean CI width, and wall time on stdout only, so that the artifact is
//!   a function of the code alone;
//! * for the stopped runs, the same counts beside a **fixed-budget
//!   control**: the blocking statement at `ORACLE LIMIT <its spend>` on the
//!   same session id. The control spends what the stopped run spent
//!   without looking at the data, so the gap between the two is the
//!   stopping rule's share of any coverage gap.
//!
//! A run stopped early when it spent less than the blocking statement at
//! its cap spends on the same session, which a second engine with no
//! bootstrap resamples measures for the cost of labeling alone.
//!
//! The shapes are the two families of the repository benchmark's
//! `anytime_until` workload, each at one width that usually stops and one
//! that usually spends the cap. Every stopped answer must be narrower than
//! its target and no run may spend past its cap; the bench asserts both,
//! and asserts no coverage floor.
//!
//! Output: a table on stdout and `BENCH_coverage.json` at the repository
//! root.
//!
//! ```sh
//! cargo run --release -p abae_bench --bin coverage
//! ABAE_SESSIONS=40 cargo run --release -p abae_bench --bin coverage
//! ```

use abae_bench::artifact::{emit_artifact, json_f64};
use abae_core::pipeline::ExecOptions;
use abae_data::emulators::{celeba_groupby, trec05p, EmulatorOptions};
use abae_query::{Engine, QueryResult};
use abae_stats::bootstrap::ConfidenceInterval;
use std::time::Instant;

/// The engine seed; each session id derives its own stream from it.
const ENGINE_SEED: u64 = 77;

/// One statement shape: its SQL, its width target and oracle cap.
struct Shape {
    name: &'static str,
    target: f64,
    cap: usize,
    grouped: bool,
}

impl Shape {
    fn sql(&self, until: bool, limit: usize) -> String {
        let until = if until {
            format!("UNTIL CI WIDTH < {} MAX ", self.target)
        } else {
            String::new()
        };
        if self.grouped {
            format!(
                "SELECT AVG(smile), hair FROM celeba-groupby \
                 WHERE hair(img) = 'gray' OR hair(img) = 'blond' GROUP BY hair(img) \
                 {until}ORACLE LIMIT {limit}"
            )
        } else {
            format!("SELECT AVG(links) FROM trec05p WHERE is_spam {until}ORACLE LIMIT {limit}")
        }
    }
}

const SHAPES: [Shape; 4] = [
    Shape { name: "scalar < 0.6, cap 5000", target: 0.6, cap: 5000, grouped: false },
    Shape { name: "scalar < 0.45, cap 8000", target: 0.45, cap: 8000, grouped: false },
    Shape { name: "group by < 12, cap 4000", target: 12.0, cap: 4000, grouped: true },
    Shape { name: "group by < 18, cap 1000", target: 18.0, cap: 1000, grouped: true },
];

/// Coverage and width over a set of CIs; every ratio of an empty tally is
/// NaN, which the artifact writes as `null`.
#[derive(Default)]
struct Tally {
    cis: usize,
    /// CIs the answer did not have; they count as not covering.
    missing: usize,
    covered: usize,
    width_sum: f64,
    spend_sum: f64,
    runs: usize,
}

impl Tally {
    /// Adds one answer: its CIs against the exact answers, and its spend.
    fn add(&mut self, cis: &[(Option<ConfidenceInterval>, f64)], spend: u64) {
        self.runs += 1;
        self.spend_sum += spend as f64;
        for &(ci, exact) in cis {
            self.cis += 1;
            match ci {
                Some(ci) => {
                    self.covered += usize::from(ci.contains(exact));
                    self.width_sum += ci.width();
                }
                None => self.missing += 1,
            }
        }
    }

    fn coverage(&self) -> f64 {
        self.covered as f64 / self.cis as f64
    }

    /// Monte Carlo standard error of [`Tally::coverage`].
    fn se(&self) -> f64 {
        let c = self.coverage();
        (c * (1.0 - c) / self.cis as f64).sqrt()
    }

    /// Mean width of the CIs the answers had.
    fn mean_width(&self) -> f64 {
        self.width_sum / (self.cis - self.missing) as f64
    }

    fn mean_spend(&self) -> f64 {
        self.spend_sum / self.runs as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"runs\":{},\"cis\":{},\"missing_cis\":{},\"coverage\":{},\"coverage_se\":{},\
             \"mean_width\":{},\"mean_spend\":{}}}",
            self.runs,
            self.cis,
            self.missing,
            json_f64(self.coverage()),
            json_f64(self.se()),
            json_f64(self.mean_width()),
            json_f64(self.mean_spend()),
        )
    }
}

fn build_engine(trials: usize) -> Engine {
    Engine::builder()
        .table(trec05p(&EmulatorOptions::default()))
        .table(celeba_groupby(&EmulatorOptions::default()))
        .bind_predicate("celeba-groupby", "hair=gray", "is_gray")
        .bind_predicate("celeba-groupby", "hair=blond", "is_blond")
        .strata(5)
        .stage1_fraction(0.5)
        .bootstrap_trials(trials)
        .exec(ExecOptions::new(1, 256))
        .label_cache(false)
        .seed(ENGINE_SEED)
        .build()
}

/// Every CI of an answer beside the exact answer it should hold.
fn answer_cis(engine: &Engine, result: &QueryResult) -> Vec<(Option<ConfidenceInterval>, f64)> {
    match &result.groups {
        Some(groups) => {
            let table = engine.catalog().table("celeba-groupby").expect("registered");
            let names = table.group_key().expect("grouped table").names();
            groups
                .iter()
                .map(|g| {
                    let id = names.iter().position(|n| *n == g.name).expect("a known group");
                    (g.ci, table.exact_group_avg(id as u16).expect("grouped table"))
                })
                .collect()
        }
        None => {
            let table = engine.catalog().table("trec05p").expect("registered");
            vec![(result.ci(), table.exact_avg("is_spam").expect("predicate exists"))]
        }
    }
}

fn main() {
    let sessions: u64 =
        std::env::var("ABAE_SESSIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(400);
    println!("coverage — UNTIL CI WIDTH answers vs fixed-budget controls");
    println!("sessions   : {sessions} per shape (override: ABAE_SESSIONS), engine seed {ENGINE_SEED}");
    let engine = build_engine(1000);
    // Same seed, no resamples: the blocking spend at the cap, labeling only.
    let spend_probe = build_engine(0);

    let mut rows = Vec::new();
    println!(
        "\n{:<26} {:>9} {:>7} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9}",
        "shape", "coverage", "se", "spend", "stopped", "width", "wall_s", "stop_cov", "ctrl_cov"
    );
    for shape in &SHAPES {
        let (mut all, mut stopped, mut control) = (Tally::default(), Tally::default(), Tally::default());
        let mut wall_s = 0.0;
        for id in 0..sessions {
            let start = Instant::now();
            let result =
                engine.session_with_id(id).execute(&shape.sql(true, shape.cap)).expect("runs");
            wall_s += start.elapsed().as_secs_f64();
            let spend = result.oracle_calls;
            assert!(spend <= shape.cap as u64, "{}: session {id} spent {spend}", shape.name);
            let cis = answer_cis(&engine, &result);
            all.add(&cis, spend);
            let full = spend_probe
                .session_with_id(id)
                .execute(&shape.sql(false, shape.cap))
                .expect("runs")
                .oracle_calls;
            if spend < full {
                for (ci, _) in &cis {
                    let width = ci.map_or(f64::INFINITY, |c| c.width());
                    assert!(width < shape.target, "{}: session {id} stopped at {width}", shape.name);
                }
                stopped.add(&cis, spend);
                let fixed = engine
                    .session_with_id(id)
                    .execute(&shape.sql(false, spend as usize))
                    .expect("runs");
                control.add(&answer_cis(&engine, &fixed), fixed.oracle_calls);
            }
        }
        let share = stopped.runs as f64 / all.runs.max(1) as f64;
        println!(
            "{:<26} {:>9.4} {:>7.4} {:>9.1} {:>9.3} {:>8.4} {:>8.2} {:>9.4} {:>9.4}",
            shape.name,
            all.coverage(),
            all.se(),
            all.mean_spend(),
            share,
            all.mean_width(),
            wall_s,
            stopped.coverage(),
            control.coverage(),
        );
        rows.push(format!(
            "{{\"shape\":\"{}\",\"sql\":\"{}\",\"target\":{},\"cap\":{},\"all\":{},\
             \"stopped_share\":{},\"stopped\":{},\"control\":{}}}",
            shape.name,
            shape.sql(true, shape.cap).replace('"', "\\\""),
            json_f64(shape.target),
            shape.cap,
            all.json(),
            json_f64(share),
            stopped.json(),
            control.json(),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let json = format!(
        "{{\"bench\":\"coverage\",\"sessions\":{sessions},\"engine_seed\":{ENGINE_SEED},\
         \"bootstrap_trials\":1000,\"confidence\":0.95,\"chunk\":256,\"nproc\":{nproc},\
         \"shapes\":[{}]}}",
        rows.join(",")
    );
    emit_artifact("coverage", &json, sessions == 400);
}
