//! The one two-stage schedule of Algorithm 1 and §4.5's single-oracle
//! ABae-GroupBy (label a pilot, plan Stage 2 from it, label Stage 2): each
//! algorithm supplies a [`Sampler`], and this module owns the chunk loop
//! ([`run_stages`]) and the anytime runner ([`run`]), which DESIGN.md
//! describes under "Running tallies and anytime snapshots".

use crate::pipeline::ReplicateThreads;
use crate::two_stage::ProgressiveOptions;
use abae_sampling::budget::chunk_sizes;
use rand::Rng;

/// One algorithm's steps. Each stage's draws come from the caller's RNG
/// before it is labeled, so the draw order is the same for every chunk size.
pub(crate) trait Sampler {
    /// One draw: a record and where its label goes.
    type Draw;
    /// An answer's rows: one per aggregate or per group.
    type Rows: Clone;

    /// Draws Stage 1, the pilot.
    fn draw_pilot<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<Self::Draw>;
    /// Labels a chunk of draws, folding each label in in draw order, and
    /// returns the run's spend so far as its snapshots report it.
    fn label(&mut self, chunk: &[Self::Draw]) -> u64;
    /// Plans Stage 2 from the labeled pilot and draws it.
    fn plan<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<Self::Draw>;
    /// The closed-form answer from the draws labeled so far, and whether it
    /// meets the CI width `target`.
    fn look(&self, target: Option<f64>) -> (Self::Rows, bool);
    /// The answer of a run that labeled every draw: the algorithm's
    /// bootstrap on `rng`, its replicates run by `threads`.
    fn finish<R: Rng + ?Sized>(self, threads: ReplicateThreads, rng: &mut R) -> Self::Rows;
}

/// The chunk loop: labels Stage 1 in chunks of `chunk` draws, plans Stage
/// 2, and labels it the same way. `look(sampler, spent, pilot_complete)`
/// sees every chunk boundary but the run's last and stops the run by
/// returning `true`; the pilot's last boundary is a look only once Stage 2
/// turns out to have work. Returns the spend after the last label.
pub(crate) fn run_stages<S: Sampler, R: Rng + ?Sized>(
    sampler: &mut S,
    chunk: usize,
    rng: &mut R,
    mut look: impl FnMut(&S, u64, bool) -> bool,
) -> u64 {
    let mut spent = 0;
    let mut draws = sampler.draw_pilot(rng);
    for pilot_complete in [false, true] {
        if pilot_complete {
            draws = sampler.plan(rng);
            if !draws.is_empty() && look(sampler, spent, true) {
                return spent;
            }
        }
        let sizes = chunk_sizes(draws.len(), chunk);
        let mut start = 0;
        for (i, &size) in sizes.iter().enumerate() {
            spent = sampler.label(&draws[start..start + size]);
            start += size;
            if i + 1 < sizes.len() && look(sampler, spent, pilot_complete) {
                return spent;
            }
        }
    }
    spent
}

/// The anytime runner, the body of both executors. `None` labels each stage
/// in one chunk, emits nothing and bootstraps on the calling thread.
/// `Some(p)` labels in chunks of `p.chunk` (default `batch`) and emits
/// `(rows, budget_spent, done)` at every look. A run stops at the first
/// look where the pilot is complete and the sampler judges the target met,
/// and answers with it; otherwise the sampler's bootstrap runs on `rng`
/// (on free cores in anytime mode) and is emitted as the `done` snapshot.
pub(crate) fn run<S: Sampler, R: Rng + ?Sized>(
    mut sampler: S,
    anytime: Option<&ProgressiveOptions>,
    batch: usize,
    rng: &mut R,
    mut emit: impl FnMut(S::Rows, u64, bool),
) -> S::Rows {
    let (chunk, target, threads) = match anytime {
        None => (usize::MAX, None, ReplicateThreads::Calling),
        Some(p) => {
            let chunk = p.chunk.unwrap_or(batch).max(1);
            (chunk, p.target_ci_width, ReplicateThreads::FreeCores)
        }
    };
    let mut stopping = None;
    let spent = run_stages(&mut sampler, chunk, rng, |sampler, spent, pilot_complete| {
        if anytime.is_none() {
            return false;
        }
        let (rows, meets) = sampler.look(target);
        // Partial-pilot CIs can degenerate to zero width (an all-negative
        // first stratum, say) and would stop the run bogusly.
        let stop = pilot_complete && meets;
        if stop {
            stopping = Some(rows.clone());
        }
        emit(rows, spent, stop);
        stop
    });
    if let Some(rows) = stopping {
        return rows;
    }
    let rows = sampler.finish(threads, rng);
    if anytime.is_some() {
        emit(rows.clone(), spent, true);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A sampler of `pilot` then `stage2` unit draws whose answer is its
    /// spend (and, from the bootstrap, the threads it ran on), and which
    /// meets any target once `meets_from` labels are in.
    struct Counting {
        pilot: usize,
        stage2: usize,
        meets_from: u64,
        spent: u64,
    }

    impl Sampler for Counting {
        type Draw = ();
        type Rows = (u64, Option<ReplicateThreads>);

        fn draw_pilot<R: Rng + ?Sized>(&mut self, _: &mut R) -> Vec<()> {
            vec![(); self.pilot]
        }
        fn label(&mut self, chunk: &[()]) -> u64 {
            self.spent += chunk.len() as u64;
            self.spent
        }
        fn plan<R: Rng + ?Sized>(&mut self, _: &mut R) -> Vec<()> {
            vec![(); self.stage2]
        }
        fn look(&self, target: Option<f64>) -> (Self::Rows, bool) {
            ((self.spent, None), target.is_some() && self.spent >= self.meets_from)
        }
        fn finish<R: Rng + ?Sized>(self, threads: ReplicateThreads, _: &mut R) -> Self::Rows {
            (self.spent, Some(threads))
        }
    }

    fn counting(pilot: usize, stage2: usize, meets_from: u64) -> Counting {
        Counting { pilot, stage2, meets_from, spent: 0 }
    }

    /// Every look of the chunk loop as `(spent, pilot_complete)`, and the
    /// spend it returns.
    fn looks(mut sampler: Counting, chunk: usize) -> (Vec<(u64, bool)>, u64) {
        let mut seen = Vec::new();
        let rng = &mut StdRng::seed_from_u64(0);
        let spent = run_stages(&mut sampler, chunk, rng, |_, spent, pilot_complete| {
            seen.push((spent, pilot_complete));
            false
        });
        (seen, spent)
    }

    #[test]
    fn a_look_follows_every_chunk_but_the_last_and_the_boundary_waits_for_stage_2() {
        let both = vec![(2, false), (4, false), (5, true), (7, true)];
        assert_eq!(looks(counting(5, 3, 0), 2), (both, 8));
        // With no Stage-2 work the pilot's last boundary ends the run.
        assert_eq!(looks(counting(5, 0, 0), 2), (vec![(2, false), (4, false)], 5));
        // One chunk per stage: the stage boundary is the only look.
        assert_eq!(looks(counting(5, 3, 0), usize::MAX), (vec![(5, true)], 8));
        assert_eq!(looks(counting(0, 3, 0), 1), (vec![(0, true), (1, true), (2, true)], 3));
    }

    #[test]
    fn a_run_stops_at_its_first_met_look_once_the_pilot_is_complete() {
        let rng = &mut StdRng::seed_from_u64(0);
        let opts = ProgressiveOptions { chunk: Some(2), target_ci_width: Some(1.0) };
        let mut emitted = Vec::new();
        let answer = run(counting(5, 3, 0), Some(&opts), 64, rng, |rows, spent, done| {
            emitted.push((rows, spent, done));
        });
        // The target is met from the first look, but the pilot is not.
        let (partial, pilot) = ((2, None), (5, None));
        let want = vec![(partial, 2, false), ((4, None), 4, false), (pilot, 5, true)];
        assert_eq!(emitted, want);
        assert_eq!(answer, pilot);
    }

    #[test]
    fn an_unstopped_run_bootstraps_once_on_the_threads_its_mode_picks() {
        let rng = &mut StdRng::seed_from_u64(0);
        let mut emitted = Vec::new();
        let answer = run(counting(5, 3, 4), None, 2, rng, |rows, spent, done| {
            emitted.push((rows, spent, done));
        });
        assert_eq!((answer, emitted.len()), ((8, Some(ReplicateThreads::Calling)), 0));
        // Without a target no look is met; the chunk defaults to `batch`.
        let opts = ProgressiveOptions { chunk: None, target_ci_width: None };
        let answer = run(counting(5, 3, 4), Some(&opts), 4, rng, |rows, spent, done| {
            emitted.push((rows, spent, done));
        });
        let last = (8, Some(ReplicateThreads::FreeCores));
        assert_eq!(answer, last);
        let want = vec![((4, None), 4, false), ((5, None), 5, false), (last, 8, true)];
        assert_eq!(emitted, want);
    }
}
