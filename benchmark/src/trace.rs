//! Spans recorded by the benchmark around its calls into each layer, and
//! their attribution to layers.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! statement it belongs to. Spans stay in memory and are written out when
//! the run ends. A layer's self time is its span minus its children.
//! Oracle labeling is timed from inside the engine's executors by
//! benchmark-owned [`Timed`] wrappers around each oracle layer. Labeling
//! runs on the calling thread (`ExecOptions::threads == 1`), so a
//! per-thread stack of open spans gives every span its parent.

use abae_data::{GroupLabel, GroupOracle, Labeled, Oracle};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`strata`, `oracle`, …).
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Statement the span belongs to.
    pub stmt: u32,
    /// Records the call handled (oracle wrappers only).
    pub records: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u32,
    last_exit: u64,
}

/// In-memory span recorder for one client thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            state: Mutex::new(State::default()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("no panics while recording a span")
    }

    /// Tags every following span with statement `stmt`.
    pub fn begin_statement(&self, stmt: u32) {
        self.lock().stmt = stmt;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> usize {
        let mut s = self.lock();
        let start = self.now();
        let idx = s.spans.len();
        let parent = s.open.last().copied();
        let stmt = s.stmt;
        s.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            stmt,
            records: 0,
        });
        s.open.push(idx);
        idx
    }

    /// Closes span `idx`, noting how many records the call handled.
    pub fn exit(&self, idx: usize, records: u64) {
        let mut s = self.lock();
        let end = self.now();
        let top = s.open.pop();
        assert_eq!(top, Some(idx), "spans close in the order they opened");
        s.spans[idx].end = end;
        s.spans[idx].records = records;
        s.last_exit = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx, 0);
        out
    }

    /// Records a span that ends now and began when the previous span
    /// closed: used from progressive executors' snapshot callbacks, where
    /// the work between the last labeling call and the callback is the
    /// snapshot's bootstrap.
    pub fn mark_since_last_exit(&self, name: &'static str) {
        let mut s = self.lock();
        let end = self.now();
        let parent = s.open.last().copied();
        let floor = parent.map_or(0, |p| s.spans[p].start);
        let start = s.last_exit.max(floor);
        let stmt = s.stmt;
        s.spans.push(Span {
            name,
            start,
            end,
            parent,
            stmt,
            records: 0,
        });
        s.last_exit = end;
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.state
            .into_inner()
            .expect("no panics while recording a span")
            .spans
    }
}

/// A benchmark-owned oracle wrapper that records one span per labeling
/// call. Wrapping each layer of the engine's oracle stack (label store,
/// batcher admission, innermost oracle) separates their self times.
pub struct Timed<'r, O> {
    inner: O,
    rec: &'r Recorder,
    layer: &'static str,
}

impl<'r, O> Timed<'r, O> {
    /// Wraps `inner`, recording its calls as `layer` spans.
    pub fn new(inner: O, rec: &'r Recorder, layer: &'static str) -> Self {
        Self { inner, rec, layer }
    }
}

impl<O: Oracle> Oracle for Timed<'_, O> {
    fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
        let idx = self.rec.enter(self.layer);
        let out = self.inner.label_batch(indices);
        self.rec.exit(idx, indices.len() as u64);
        out
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn reset_calls(&self) {
        self.inner.reset_calls()
    }
}

impl<O: GroupOracle> GroupOracle for Timed<'_, O> {
    fn label_group_batch(&self, indices: &[usize]) -> Vec<GroupLabel> {
        let idx = self.rec.enter(self.layer);
        let out = self.inner.label_group_batch(indices);
        self.rec.exit(idx, indices.len() as u64);
        out
    }

    fn group_count(&self) -> usize {
        self.inner.group_count()
    }
}

/// Per-statement layer times (ms unless the name says otherwise) and
/// counts, attributed from the statement's spans.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// The statement's root span.
    pub root_ms: f64,
    /// `parse_statement`.
    pub parse_us: f64,
    /// The plan: atom resolution and the score source.
    pub plan_us: f64,
    /// `Stratification::by_proxy_quantile` (every stratification of the
    /// statement).
    pub strata_ms: f64,
    /// Drawing and bookkeeping inside the sampling executor.
    pub sample_ms: f64,
    /// Every bootstrap of the statement (blocking and per snapshot).
    pub bootstrap_ms: f64,
    /// The per-snapshot share of `bootstrap_ms`.
    pub snapshot_ms: f64,
    /// Snapshots emitted.
    pub snapshots: f64,
    /// Label-store self time (lookups and write-back).
    pub cache_ms: f64,
    /// Batcher admission self time (queueing plus the device cost).
    pub batcher_ms: f64,
    /// Innermost oracle time.
    pub oracle_ms: f64,
    /// Records drawn (labels consumed, store hits included).
    pub draws: f64,
    /// Records the label store answered.
    pub cache_hits: f64,
    /// Records the innermost oracle labeled (charged calls).
    pub oracle_calls: f64,
    /// Non-empty innermost labeling calls.
    pub oracle_batches: f64,
    /// Root time not covered by any layer span.
    pub unattributed_ms: f64,
    /// Records scored by the plan's score source.
    pub records_scored: f64,
    /// Records sorted by stratification.
    pub records_sorted: f64,
    /// Draws resampled by bootstraps (trials × draws, summed).
    pub resampled: f64,
}

const MS: f64 = 1e6;

/// Attributes `spans` to layers, one [`Layers`] per statement id.
///
/// Span names: `statement` (root), `query.parse`, `query.plan`, `strata`,
/// `two_stage` and `bootstrap` (blocking path); `progressive` (the
/// progressive executors, which bundle stratification, sampling and
/// snapshot bootstraps) with `snapshot` marks inside it and a separately
/// timed `strata.shadow` outside the root, whose time is subtracted from
/// the executor's self time; `cache`, `batcher` and `oracle` from the
/// [`Timed`] wrappers.
pub fn attribute(spans: &[Span]) -> BTreeMap<u32, Layers> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur();
        }
    }
    let mut out: BTreeMap<u32, Layers> = BTreeMap::new();
    let mut shadow: BTreeMap<u32, f64> = BTreeMap::new();
    let mut progressive_self: BTreeMap<u32, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let l = out.entry(s.stmt).or_default();
        let dur = s.dur() as f64 / MS;
        let self_ms = s.dur().saturating_sub(child_sum[i]) as f64 / MS;
        match s.name {
            "statement" => {
                l.root_ms = dur;
                l.unattributed_ms = self_ms;
            }
            "query.parse" => l.parse_us = dur * 1e3,
            "query.plan" => l.plan_us = dur * 1e3,
            "strata" => l.strata_ms += dur,
            "strata.shadow" => *shadow.entry(s.stmt).or_default() += dur,
            "two_stage" => l.sample_ms += self_ms,
            "progressive" => *progressive_self.entry(s.stmt).or_default() += self_ms,
            "bootstrap" => l.bootstrap_ms += dur,
            "snapshot" => {
                l.snapshot_ms += dur;
                l.bootstrap_ms += dur;
                l.snapshots += 1.0;
            }
            "cache" => {
                l.cache_ms += self_ms;
                l.draws += s.records as f64;
                l.cache_hits += s.records as f64;
            }
            "batcher" => {
                l.batcher_ms += self_ms;
                if spans[s.parent.expect("batcher spans nest in a layer")].name == "cache" {
                    l.cache_hits -= s.records as f64;
                } else {
                    l.draws += s.records as f64;
                }
            }
            "oracle" => {
                l.oracle_ms += dur;
                l.oracle_calls += s.records as f64;
                if s.records > 0 {
                    l.oracle_batches += 1.0;
                }
            }
            other => panic!("unknown span name `{other}`"),
        }
    }
    for (stmt, strata) in shadow {
        let l = out.entry(stmt).or_default();
        l.strata_ms += strata;
        l.sample_ms += progressive_self.get(&stmt).copied().unwrap_or(0.0) - strata;
    }
    out
}

/// Writes `spans` as JSON lines to `path` (created with its directory).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"stmt\": {}, \"records\": {}}}",
            s.name,
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.stmt,
            s.records
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_marks_start_at_last_exit() {
        let rec = Recorder::new(Instant::now());
        rec.begin_statement(7);
        let root = rec.enter("statement");
        let core = rec.enter("progressive");
        let o = rec.enter("batcher");
        let inner = rec.enter("oracle");
        rec.exit(inner, 4);
        rec.exit(o, 4);
        rec.mark_since_last_exit("snapshot");
        rec.exit(core, 0);
        rec.exit(root, 0);
        let spans = rec.into_spans();
        assert_eq!(
            spans[4].start, spans[2].end,
            "the mark starts where labeling ended"
        );
        let layers = attribute(&spans);
        let l = &layers[&7];
        assert_eq!(l.snapshots, 1.0);
        assert_eq!(l.draws, 4.0);
        assert_eq!(l.oracle_calls, 4.0);
        assert_eq!(l.oracle_batches, 1.0);
        assert!(l.root_ms >= l.unattributed_ms);
    }
}
