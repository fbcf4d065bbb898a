//! What the three workloads share: pinned engine settings, statements with
//! their exact answers, answer checks, and the CI tally behind
//! `ci_width_rel` and `ci_coverage`.

use abae_core::multipred::PredExpr;
use abae_core::pipeline::ExecOptions;
use abae_data::columnar::Bitmap;
use abae_data::Table;
use abae_query::{AggFunc, Engine, EngineBuilder, QueryResult};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Oracle labeling settings, pinned so that `ABAE_THREADS`/`ABAE_BATCH`
/// cannot change a workload: labeling on the calling thread (the host
/// has 2 cores and `adhoc_wire` already runs 2 connections), in chunks of
/// 256 records, which is also the progressive executors' snapshot cadence.
pub const EXEC: ExecOptions = ExecOptions::new(1, 256);

/// An engine builder with every tuning knob set explicitly (the paper's
/// K = 5 strata, C = 0.5, 1000 bootstrap resamples) and [`EXEC`]. Each
/// workload adds its tables, label-store policy and batcher options.
pub fn engine_builder(seed: u64) -> EngineBuilder {
    Engine::builder()
        .strata(5)
        .stage1_fraction(0.5)
        .bootstrap_trials(1000)
        .exec(EXEC)
        .seed(seed)
}

/// Derives an independent 64-bit value from the run seed and a tag, so
/// engines and statement streams each get their own stream. Tables are
/// the emulators' fixed datasets (their default seed): a workload's seed
/// varies the SQL, the records each statement draws and the order, never
/// the data, so runs with different seeds measure the same database.
///
/// This is also the engine's stream-seed mixer (`abae_query::engine`),
/// which the traced replay mirrors to draw exactly the engine's records.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle on the benchmark's own stream.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// Statement shape: scalar (one row per aggregate) or `GROUP BY` (one row
/// per group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Scalar, possibly multi-aggregate.
    Scalar,
    /// Single-oracle `GROUP BY`.
    GroupBy,
}

/// One statement of a workload's seeded stream.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// The SQL the engine sees.
    pub sql: String,
    /// Statement shape.
    pub kind: Kind,
    /// The exact answer of every row (aggregate or group), from ground
    /// truth.
    pub exact: Vec<f64>,
    /// `UNTIL CI WIDTH < w MAX ORACLE LIMIT cap`, when present.
    pub until: Option<(f64, u64)>,
}

/// One answered row: estimate and CI bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Point estimate.
    pub estimate: f64,
    /// CI bounds, when the engine reported a CI.
    pub ci: Option<(f64, f64)>,
}

/// An answer in the shape every path produces (in-process result, wire
/// rows, traced replay), so the paths can be compared bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Rows in SELECT-list or group order.
    pub cells: Vec<Cell>,
    /// Oracle labels charged.
    pub oracle_calls: u64,
}

impl Answer {
    /// The answer of an in-process statement.
    pub fn from_result(r: &QueryResult) -> Self {
        let cells = match &r.groups {
            Some(groups) => groups
                .iter()
                .map(|g| Cell {
                    estimate: g.estimate,
                    ci: g.ci.map(|c| (c.lo, c.hi)),
                })
                .collect(),
            None => r
                .rows
                .iter()
                .map(|a| Cell {
                    estimate: a.estimate,
                    ci: a.ci.map(|c| (c.lo, c.hi)),
                })
                .collect(),
        };
        Answer {
            cells,
            oracle_calls: r.oracle_calls,
        }
    }

    /// Whether the rows are bit-identical (oracle spend not compared).
    pub fn same_rows(&self, other: &Answer) -> bool {
        self.cells.len() == other.cells.len()
            && self.cells.iter().zip(&other.cells).all(|(a, b)| {
                a.estimate.to_bits() == b.estimate.to_bits()
                    && a.ci.map(|(l, h)| (l.to_bits(), h.to_bits()))
                        == b.ci.map(|(l, h)| (l.to_bits(), h.to_bits()))
            })
    }
}

/// The checks every answer must pass: the expected number of rows, every
/// estimate finite with a finite CI around it, and for `UNTIL` statements
/// the stopping rule (below the width target, or the budget exhausted)
/// and the cap.
pub fn check(stmt: &Stmt, a: &Answer) -> Result<(), String> {
    if a.cells.len() != stmt.exact.len() {
        return Err(format!(
            "{} rows, expected {}",
            a.cells.len(),
            stmt.exact.len()
        ));
    }
    for c in &a.cells {
        let (lo, hi) = c.ci.ok_or("missing CI")?;
        if !(c.estimate.is_finite() && lo.is_finite() && hi.is_finite()) {
            return Err(format!("non-finite answer {c:?}"));
        }
        if !(lo <= c.estimate && c.estimate <= hi) {
            return Err(format!("estimate outside its CI: {c:?}"));
        }
    }
    if let Some((width, cap)) = stmt.until {
        if a.oracle_calls > cap {
            return Err(format!("spent {} of a {cap}-label cap", a.oracle_calls));
        }
        let width_met = match stmt.kind {
            Kind::Scalar => a
                .cells
                .first()
                .and_then(|c| c.ci)
                .is_some_and(|(l, h)| h - l < width),
            Kind::GroupBy => a
                .cells
                .iter()
                .all(|c| c.ci.is_some_and(|(l, h)| h - l < width)),
        };
        // Without an early stop the run spends its whole budget: exactly
        // the cap up to floor rounding (< 1 label per stratum and stage) for
        // scalar runs; group-by runs label a record drawn under both
        // groups' stratifications once, so they may spend less.
        let exhausted = match stmt.kind {
            Kind::Scalar => a.oracle_calls + 10 >= cap,
            Kind::GroupBy => 2 * a.oracle_calls >= cap,
        };
        if !(width_met || exhausted) {
            return Err(format!(
                "stopped at {} labels with the width target {width} unmet",
                a.oracle_calls
            ));
        }
    }
    Ok(())
}

/// Running totals behind `ci_width_rel` and `ci_coverage`: every row of
/// every answer counts once.
#[derive(Debug, Clone, Copy, Default)]
pub struct CiTally {
    width_rel_sum: f64,
    rows: u64,
    covered: u64,
}

impl CiTally {
    /// Adds one answer's rows against the statement's exact answers.
    pub fn add(&mut self, stmt: &Stmt, a: &Answer) {
        for (c, &truth) in a.cells.iter().zip(&stmt.exact) {
            if let Some((lo, hi)) = c.ci {
                self.width_rel_sum += (hi - lo) / truth.abs();
                self.rows += 1;
                self.covered += u64::from(lo <= truth && truth <= hi);
            }
        }
    }

    /// Mean CI width relative to the exact answer.
    pub fn width_rel(&self) -> f64 {
        self.width_rel_sum / self.rows.max(1) as f64
    }

    /// Share of CIs containing the exact answer.
    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.rows.max(1) as f64
    }

    /// Rows tallied.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

/// Exact `(AVG, SUM, COUNT)` of the table's statistic over the records an
/// expression over the table's predicate columns selects, from the
/// ground-truth labels (memoized per expression).
#[derive(Debug, Default)]
pub struct Truth {
    memo: BTreeMap<(String, String), (f64, f64, f64)>,
}

impl Truth {
    /// `(AVG, SUM, COUNT)` over the records where `expr` holds.
    pub fn of(&mut self, table: &Table, expr: &PredExpr) -> (f64, f64, f64) {
        let key = (table.name().to_string(), format!("{expr:?}"));
        *self.memo.entry(key).or_insert_with(|| {
            let labels: Vec<&Bitmap> = table
                .predicates()
                .iter()
                .map(|p| p.labels().bitmap())
                .collect();
            let truth = expr.eval_bitmap(&labels);
            let (mut sum, mut count) = (0.0, 0usize);
            for i in truth.iter_ones() {
                sum += table.statistic(i);
                count += 1;
            }
            (sum / count.max(1) as f64, sum, count as f64)
        })
    }

    /// The exact answer of aggregate `func` where `expr` holds.
    pub fn aggregate(&mut self, table: &Table, expr: &PredExpr, func: AggFunc) -> f64 {
        let (avg, sum, count) = self.of(table, expr);
        match func {
            AggFunc::Avg => avg,
            AggFunc::Sum => sum,
            AggFunc::Count => count,
            AggFunc::Percentage => 100.0 * avg,
        }
    }
}

/// Per-group exact averages of a grouped table, in group order.
pub fn group_truth(table: &Table) -> Vec<f64> {
    let groups = table.group_key().map_or(0, |g| g.num_groups());
    (0..groups as u16)
        .map(|g| table.exact_group_avg(g).expect("table has a group key"))
        .collect()
}

/// Everything one untraced timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-statement latency, ms, in the order sent.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the whole timed phase, s.
    pub wall_s: f64,
    /// Statements attempted.
    pub attempted: u64,
    /// Statements that failed or were refused.
    pub failed: u64,
    /// Oracle labels the timed statements charged.
    pub oracle_calls: u64,
    /// CI accounting over every answered row.
    pub tally: CiTally,
    /// First check failure, if any.
    pub error: Option<String>,
}

impl Phase {
    /// Records a failed check (the first message is kept).
    pub fn fail_check(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(msg);
        }
    }
}

/// Set-up timings of one set-up, s.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Whole set-up.
    pub total_s: f64,
    /// Table builds.
    pub table_s: f64,
    /// `CREATE PROXY` training.
    pub proxy_s: f64,
    /// Preparing and warm-up runs.
    pub warmup_s: f64,
    /// Oracle labels the set-up charged.
    pub oracle_calls: u64,
}
