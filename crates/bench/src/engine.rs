//! Deterministic parallel experiment engine (DESIGN.md §3).
//!
//! Every table/figure harness is a fan-out over independent cells —
//! typically one cell per workload, sometimes per (workload, setting)
//! pair — followed by a strictly ordered printing pass. The engine runs
//! the cells on a scoped thread pool ([`run_cells`]) and hands results
//! back in input order, so the printed output is byte-for-byte identical
//! at any job count: parallelism only reorders *when* cells compute,
//! never *what* they compute (each cell is a pure function of its input)
//! nor the order they are observed in.
//!
//! The [`Harness`] wrapper adds the bookkeeping shared by every binary:
//! it reads `UMI_JOBS`, times each cell, and on [`Harness::finish`]
//! records per-cell throughput into `results/BENCH_pipeline.json` (see
//! [`crate::report`]) without touching stdout.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use umi_workloads::Scale;

/// What a cell's work closure returns: the harness-specific measurement
/// plus the bookkeeping the throughput report needs.
pub struct Cell<T> {
    /// Human label, usually the workload name.
    pub label: String,
    /// Simulated instructions retired by all runs inside the cell.
    pub insns: u64,
    /// The harness-specific measurement.
    pub value: T,
}

/// One completed cell's contribution to the throughput report.
#[derive(Clone, Debug)]
pub struct CellStat {
    /// Label copied from the cell.
    pub label: String,
    /// Wall-clock seconds spent computing the cell.
    pub seconds: f64,
    /// Simulated instructions retired inside the cell.
    pub insns: u64,
}

/// Worker-thread count for [`run_cells`]: `UMI_JOBS` if set, otherwise
/// the host's available parallelism.
///
/// A set-but-invalid `UMI_JOBS` (zero, negative, non-numeric) aborts the
/// process with a one-line error. Earlier versions silently remapped such
/// values to one worker, which made typos look like perf regressions.
pub fn jobs_from_env() -> usize {
    match parse_jobs(std::env::var("UMI_JOBS").ok().as_deref()) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The `UMI_JOBS` parse rule, split out so it is testable without
/// mutating process environment: `None` means unset.
fn parse_jobs(var: Option<&str>) -> Result<usize, String> {
    match var {
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        Some(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("error: UMI_JOBS must be a positive integer, got {v:?}")),
    }
}

/// Runs `work` over `items` on up to `jobs` threads and returns the cell
/// values and their timing stats, both in input order.
///
/// Workers claim cell indices from a shared counter and deposit results
/// into per-index slots, so the output order is the input order
/// regardless of job count or scheduling. With `jobs <= 1` (or fewer
/// than two items) everything runs on the calling thread and no threads
/// are spawned.
///
/// A panic inside `work` propagates: the scope joins the worker, and the
/// panic is re-raised on the calling thread.
pub fn run_cells<I, T, F>(jobs: usize, items: &[I], work: F) -> (Vec<T>, Vec<CellStat>)
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> Cell<T> + Sync,
{
    /// A worker's deposit slot: the timed cell, present once claimed.
    type Slot<T> = Mutex<Option<(Cell<T>, f64)>>;

    let n = items.len();
    let mut cells: Vec<(Cell<T>, f64)> = Vec::with_capacity(n);
    if jobs <= 1 || n <= 1 {
        for item in items {
            let t0 = Instant::now();
            let cell = work(item);
            cells.push((cell, t0.elapsed().as_secs_f64()));
        }
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Slot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..jobs.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = Instant::now();
                    let cell = work(&items[i]);
                    let seconds = t0.elapsed().as_secs_f64();
                    *slots[i].lock().expect("cell slot poisoned") = Some((cell, seconds));
                });
            }
        });
        for slot in slots {
            let filled = slot
                .into_inner()
                .expect("cell slot poisoned")
                .expect("every cell index was claimed");
            cells.push(filled);
        }
    }
    let mut values = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(n);
    for (cell, seconds) in cells {
        stats.push(CellStat {
            label: cell.label,
            seconds,
            insns: cell.insns,
        });
        values.push(cell.value);
    }
    (values, stats)
}

/// Wall-clock floor for a microbenchmark cell: below it, the recorded
/// rate is mostly timer resolution and scheduling noise.
pub const MIN_CELL_TIME: Duration = Duration::from_millis(100);

/// Runs `once` at least once and until [`MIN_CELL_TIME`] has passed,
/// returning the first run's result and the number of runs. A
/// microbenchmark cell prints the first run's counts, so its output does
/// not depend on the repetition count, and reports `runs` times the
/// per-run work, so its recorded rate covers every run.
pub fn repeat_for_min_time<T>(mut once: impl FnMut() -> T) -> (T, u64) {
    let start = Instant::now();
    let first = once();
    let mut runs = 1;
    while start.elapsed() < MIN_CELL_TIME {
        std::hint::black_box(once());
        runs += 1;
    }
    (first, runs)
}

/// Shared per-binary scaffolding: job count, wall clock, and the cell
/// stats that become this harness's entry in `results/BENCH_pipeline.json`.
pub struct Harness {
    name: &'static str,
    scale: Scale,
    jobs: usize,
    started: Instant,
    stats: Vec<CellStat>,
}

impl Harness {
    /// Starts the harness clock; `jobs` comes from [`jobs_from_env`].
    pub fn new(name: &'static str, scale: Scale) -> Harness {
        Harness {
            name,
            scale,
            jobs: jobs_from_env(),
            started: Instant::now(),
            stats: Vec::new(),
        }
    }

    /// The worker-thread count this harness runs with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// [`run_cells`] with this harness's job count, accumulating the
    /// stats for the final report.
    pub fn run<I, T, F>(&mut self, items: &[I], work: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> Cell<T> + Sync,
    {
        let (values, stats) = run_cells(self.jobs, items, work);
        self.stats.extend(stats);
        values
    }

    /// Records an already-measured batch of cells (for harnesses that
    /// fan out through [`crate::study::prefetch_cells_for`]).
    pub fn absorb(&mut self, stats: Vec<CellStat>) {
        self.stats.extend(stats);
    }

    /// Writes this harness's entry into `results/BENCH_pipeline.json`.
    ///
    /// Only the report file is touched — stdout stays byte-identical to
    /// a run without the report. Failures (e.g. a read-only checkout)
    /// are reported on stderr and otherwise ignored.
    pub fn finish(self) {
        let wall = self.started.elapsed().as_secs_f64();
        crate::report::record(self.name, self.scale, self.jobs, wall, &self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_cells(jobs: usize, n: u64) -> (Vec<u64>, Vec<CellStat>) {
        let items: Vec<u64> = (0..n).collect();
        run_cells(jobs, &items, |&i| Cell {
            label: format!("cell{i}"),
            insns: i,
            value: i * i,
        })
    }

    #[test]
    fn results_arrive_in_input_order_at_any_job_count() {
        let (seq, seq_stats) = square_cells(1, 17);
        for jobs in [2, 4, 16, 64] {
            let (par, par_stats) = square_cells(jobs, 17);
            assert_eq!(par, seq, "values must not depend on jobs={jobs}");
            let labels: Vec<_> = par_stats.iter().map(|s| s.label.clone()).collect();
            let expected: Vec<_> = seq_stats.iter().map(|s| s.label.clone()).collect();
            assert_eq!(labels, expected, "stats must stay in input order");
        }
    }

    #[test]
    fn repeats_until_the_floor_and_returns_the_first_run() {
        let mut n = 0u64;
        let start = Instant::now();
        let (first, runs) = repeat_for_min_time(|| {
            n += 1;
            n
        });
        assert!(start.elapsed() >= MIN_CELL_TIME);
        assert_eq!((first, runs), (1, n));
    }

    #[test]
    fn empty_and_single_item_runs() {
        let (v, s) = square_cells(8, 0);
        assert!(v.is_empty() && s.is_empty());
        let (v, s) = square_cells(8, 1);
        assert_eq!(v, vec![0]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stats_carry_label_and_insns() {
        let (_, stats) = square_cells(3, 5);
        assert_eq!(stats[4].label, "cell4");
        assert_eq!(stats[4].insns, 4);
        assert!(stats.iter().all(|s| s.seconds >= 0.0));
    }

    #[test]
    fn jobs_env_parsing() {
        // Valid overrides (whitespace tolerated).
        assert_eq!(parse_jobs(Some("3")), Ok(3));
        assert_eq!(parse_jobs(Some(" 8 ")), Ok(8));
        // Unset falls back to host parallelism, never below one.
        assert!(parse_jobs(None).unwrap() >= 1);
        // Zero, negatives, and garbage are hard errors, not "1 worker".
        for bad in ["0", "-2", "not-a-number", "", "1.5"] {
            let err = parse_jobs(Some(bad)).unwrap_err();
            assert!(err.contains("UMI_JOBS"), "{err}");
            assert!(err.contains(bad), "error must echo the value: {err}");
        }
    }
}
