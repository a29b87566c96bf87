//! `umibench`: the UMI reproduction's end-to-end and per-layer benchmark.
//!
//! ```text
//! umibench --workload <loops|control|static|replay> --seed <n> --seconds <s> --trace <0|1>
//!          [--spans <file>]
//! ```
//!
//! Builds the workload's program pool from the seed (the set-up, timed
//! several times), then runs ops in a closed loop on this thread: one
//! client, each op starting when the previous one ends. The first
//! [`WARMUP`] ops are checked but not timed. The timed section ends at
//! the whole pass over the pool nearest `--seconds` that leaves at least
//! [`MIN_TIMED`] ops: every program then weighs the same in the
//! percentiles of every run. Every output is checked; a failed check
//! counts the op as failed with a one-line reason on stderr.
//!
//! Host times in the result line are scaled to a reference host speed,
//! measured by a kernel timed between ops (see `calib.rs`).
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a traced run, and the spans are written to `--spans` (default
//! `target/umibench/spans-<workload>-<seed>.jsonl`). See README.md.

mod calib;
mod gen;
mod ops;
mod probe;
mod stats;

use calib::Calibrator;
use gen::Workload;
use ops::{OpOut, Tally};
use probe::{Layer, Tracer, Untraced};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use umi_ir::Program;

/// Untimed ops at the start of a run.
const WARMUP: usize = 8;

/// Fewest timed ops a run ends with: p90 needs ten samples beyond it.
const MIN_TIMED: usize = 100;

/// Fewest times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// The set-up repeats until it has taken this many seconds in all, so a
/// set-up of a few milliseconds still yields its median from a hundred
/// samples or more.
const SETUP_BUDGET_S: f64 = 0.5;

/// The timed section stops at this multiple of `--seconds` even when it
/// holds too few ops, so a run always ends.
const HARD_STOP: f64 = 4.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("umibench: {msg}");
    eprintln!(
        "usage: umibench --workload <loops|control|static|replay> --seed <n> \
         --seconds <s> --trace <0|1> [--spans <file>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must lie in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
        spans,
    }
}

/// The verified pool.
struct Setup {
    pool: Vec<Program>,
    /// Verifier rejection per program (`None` = accepted).
    rejected: Vec<Option<String>>,
}

/// Build and verify times of each set-up repetition, scaled to the
/// reference host speed.
struct SetupTimes {
    builds: Vec<f64>,
    verifies: Vec<f64>,
}

impl SetupTimes {
    /// Median seconds of one whole set-up.
    fn median_s(&self) -> f64 {
        let totals: Vec<f64> = self
            .builds
            .iter()
            .zip(&self.verifies)
            .map(|(b, v)| b + v)
            .collect();
        stats::median(&totals)
    }
}

/// Builds and verifies the pool at least [`SETUP_REPS`] times and for at
/// least [`SETUP_BUDGET_S`], sampling the kernel between repetitions, and
/// keeps the last pool. Each repetition replaces the last, so only one
/// pool is resident.
fn set_up(workload: Workload, seed: u64, cal: &mut Calibrator) -> (Setup, SetupTimes) {
    let mut marks = Vec::new();
    let start = cal.now();
    let setup = loop {
        cal.sample_due();
        let t0 = cal.now();
        let pool = gen::pool(workload, seed);
        let t1 = cal.now();
        let rejected = pool
            .iter()
            .map(|p| {
                umi_analyze::verify(p)
                    .err()
                    .map(|errs| format!("verifier: {}", umi_analyze::render_errors(&errs)))
            })
            .collect();
        marks.push((t0, t1, cal.now()));
        let setup = Setup { pool, rejected };
        if marks.len() >= SETUP_REPS && cal.now() - start >= SETUP_BUDGET_S {
            break setup;
        }
    };
    // The last repetitions need a sample after them.
    cal.sample();
    // A repetition's build and verify share its scale.
    let scale = |&(t0, _, t2): &(f64, f64, f64)| cal.scale(t0, t2);
    let times = SetupTimes {
        builds: marks.iter().map(|m| (m.1 - m.0) * scale(m)).collect(),
        verifies: marks.iter().map(|m| (m.2 - m.1) * scale(m)).collect(),
    };
    (setup, times)
}

/// Runs one op under `catch_unwind`, rejecting unverified programs.
fn checked_op<P: probe::Probe>(
    probe: &P,
    workload: Workload,
    program: &Program,
    rejected: &Option<String>,
) -> Result<OpOut, String> {
    if let Some(why) = rejected {
        return Err(why.lines().next().unwrap_or(why).to_string());
    }
    match catch_unwind(AssertUnwindSafe(|| ops::run(probe, workload, program))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            Err(format!("panic: {}", msg.lines().next().unwrap_or("")))
        }
    }
}

/// Per-run bookkeeping shared by the traced and untraced loops.
struct Book {
    /// The first tally of each program; later ops must match it.
    first: Vec<Option<Tally>>,
    /// Start and end, on the calibrator's clock, of each program's timed
    /// ops that passed their checks.
    per_program: Vec<Vec<(f64, f64)>>,
    /// Instructions one op of each program simulates.
    insns: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Book {
    fn new(n: usize) -> Book {
        Book {
            first: vec![None; n],
            per_program: vec![Vec::new(); n],
            insns: vec![0; n],
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one op, with its start and end when it was timed; returns
    /// its output when it passed every check.
    fn record(
        &mut self,
        k: usize,
        name: &str,
        result: Result<OpOut, String>,
        timed: Option<(f64, f64)>,
    ) -> Option<OpOut> {
        self.attempted += 1;
        let result = result.and_then(|out| match &self.first[k] {
            Some(first) if *first != out.tally => {
                Err("the program's results differ from its previous op".to_string())
            }
            Some(_) => Ok(out),
            None => {
                self.first[k] = Some(out.tally.clone());
                self.insns[k] = out.insns;
                Ok(out)
            }
        });
        match result {
            Ok(out) => {
                if let Some(interval) = timed {
                    self.per_program[k].push(interval);
                }
                Some(out)
            }
            Err(msg) => {
                self.failed += 1;
                eprintln!("umibench: op failed on {name}: {msg}");
                None
            }
        }
    }

    /// Tallies of the pool, one per program that produced one.
    fn tallies(&self) -> impl Iterator<Item = &Tally> {
        self.first.iter().flatten()
    }

    /// Seconds of each program's timed ops, each multiplied by
    /// `scale(start, end)`.
    fn op_seconds(&self, scale: impl Fn(f64, f64) -> f64) -> Vec<Vec<f64>> {
        self.per_program
            .iter()
            .map(|ops| ops.iter().map(|&(a, b)| (b - a) * scale(a, b)).collect())
            .collect()
    }

    /// Instructions of one pass over the timed programs.
    fn pass_insns(&self) -> u64 {
        let timed = self.per_program.iter().map(|v| !v.is_empty());
        self.insns
            .iter()
            .zip(timed)
            .filter(|(_, t)| *t)
            .map(|(i, _)| i)
            .sum()
    }
}

/// One pass over the pool: the sum of every timed program's median op.
fn pass_s(per_program: &[Vec<f64>]) -> f64 {
    per_program
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::median(v))
        .sum()
}

/// Every timed op's seconds, ascending.
fn all_sorted(per_program: &[Vec<f64>]) -> Vec<f64> {
    let mut v: Vec<f64> = per_program.iter().flatten().copied().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Sum of `key` over the pool's tallies.
fn total(book: &Book, key: &str) -> f64 {
    // Folded from +0: an empty float sum is -0.
    book.tallies()
        .filter_map(|t| t.get(key))
        .fold(0.0, |a, b| a + b)
}

/// Mean of `key` per pool program.
fn per_program_mean(book: &Book, key: &str) -> f64 {
    let n = book.tallies().count();
    if n == 0 {
        0.0
    } else {
        total(book, key) / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Geomean over the pool of `num / den`, for programs that have `num`.
fn geomean_ratio(book: &Book, num: &str, den: &str) -> f64 {
    let values: Vec<f64> = book
        .tallies()
        .filter_map(|t| Some(t.get(num)? / t.get(den)?))
        .collect();
    stats::geomean(&values)
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A metric as printed: name, value, unit, and the samples behind it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_metric(m: &Metric) {
    println!(
        "{:<34} {:>16.6} {:<10} (n={})",
        m.name, m.value, m.unit, m.samples
    );
}

/// Prints every metric with its unit and sample count, then the result
/// line. Non-finite values make the run incorrect.
fn report(metrics: &[Metric], mut correct: bool, attempted: u64, failed: u64) {
    let mut body = Vec::new();
    for m in metrics {
        print_metric(m);
        let value = if m.value.is_finite() {
            m.value
        } else {
            eprintln!("umibench: {} is not finite", m.name);
            correct = false;
            0.0
        };
        body.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(&m.name),
            json_str(m.unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && failed == 0,
        body.join(", ")
    );
}

/// Where a timed section ends: at a whole pass over the pool, once it
/// holds `min_timed` ops, at the pass boundary nearest `seconds`; and at
/// [`HARD_STOP`] × `seconds` regardless.
struct Section {
    start: f64,
    pass_start: f64,
    seconds: f64,
    n: usize,
    min_timed: usize,
    ops: usize,
}

impl Section {
    /// A section over a pool of `n` that starts at `now` seconds.
    fn new(now: f64, seconds: f64, n: usize, min_timed: usize) -> Section {
        Section {
            start: now,
            pass_start: now,
            seconds,
            n,
            min_timed,
            ops: 0,
        }
    }

    /// Counts one more op, ending at `now`; returns whether the section
    /// is over.
    fn op_done(&mut self, now: f64) -> bool {
        self.ops += 1;
        let elapsed = now - self.start;
        if elapsed >= HARD_STOP * self.seconds {
            return true;
        }
        if !self.ops.is_multiple_of(self.n) {
            return false;
        }
        // One more pass would end about a pass later: stop here unless
        // that end lies nearer `seconds`.
        let pass = now - self.pass_start;
        self.pass_start = now;
        self.ops >= self.min_timed && elapsed + pass / 2.0 >= self.seconds
    }
}

/// The untraced run: end-to-end metrics.
fn run_untraced(args: &Args, s: &Setup, setup: &SetupTimes, cal: &mut Calibrator) {
    let n = s.pool.len();
    let mut book = Book::new(n);
    let (mut capture_s, mut replay_s, mut capture_insns) = (0.0, 0.0, 0.0);
    let mut section = None;
    for i in 0.. {
        cal.sample_due();
        if i == WARMUP {
            section = Some(Section::new(cal.now(), args.seconds, n, MIN_TIMED));
        }
        let k = i % n;
        let t0 = cal.now();
        let result = checked_op(&Untraced, args.workload, &s.pool[k], &s.rejected[k]);
        let t1 = cal.now();
        let timed = (i >= WARMUP).then_some((t0, t1));
        if let Some(out) = book.record(k, &s.pool[k].name, result, timed) {
            if timed.is_some() {
                capture_s += out.capture_s;
                replay_s += out.replay_s;
                capture_insns += out.tally.get("vm.insns").copied().unwrap_or(0.0);
            }
        }
        if section.as_mut().is_some_and(|sec| sec.op_done(t1)) {
            break;
        }
    }
    // The last ops need a sample after them.
    cal.sample();
    let section = section.expect("the loop ends inside the timed section");
    println!(
        "timed section: {:.2} s, {} ops over a pool of {n}, {} kernel samples in the run",
        section.pass_start - section.start,
        section.ops,
        cal.samples()
    );

    let scaled = book.op_seconds(|a, b| cal.scale(a, b));
    let raw = book.op_seconds(|_, _| 1.0);
    let (all, raw_all) = (all_sorted(&scaled), all_sorted(&raw));
    let timed = all.len();
    let mut correct = true;
    let mut pct = |sorted: &[f64], q: f64, label: &str| {
        stats::band_percentile(sorted, q).unwrap_or_else(|| {
            eprintln!("umibench: too few timed ops ({timed}) to report {label}");
            correct = false;
            sorted.last().copied().unwrap_or(0.0)
        })
    };
    let insns = book.pass_insns() as f64;
    let (pass, raw_pass) = (pass_s(&scaled), pass_s(&raw));
    // Unscaled, for the reader and for A/B pairs, which cancel the host's
    // slow periods by interleaving; a lone run cannot, so these stay out
    // of the result line.
    let as_measured = [
        metric("raw.pass_s", raw_pass, "s", timed),
        metric(
            "raw.sim_minsns_per_s",
            ratio(insns, raw_pass) / 1e6,
            "Minsn/s",
            timed,
        ),
        metric(
            "raw.op_p50_ms",
            1e3 * pct(&raw_all, 0.5, "raw.op_p50_ms"),
            "ms",
            timed,
        ),
        metric(
            "raw.op_p90_ms",
            1e3 * pct(&raw_all, 0.9, "raw.op_p90_ms"),
            "ms",
            timed,
        ),
        metric("host.slowdown_x", cal.slowdown(), "x", cal.samples()),
    ];
    let metrics = vec![
        metric("setup_s", setup.median_s(), "s", setup.builds.len()),
        metric("pass_s", pass, "s", timed),
        metric(
            "sim_minsns_per_s",
            ratio(insns, pass) / 1e6,
            "Minsn/s",
            timed,
        ),
        metric("op_p50_ms", 1e3 * pct(&all, 0.5, "op_p50_ms"), "ms", timed),
        metric("op_p90_ms", 1e3 * pct(&all, 0.9, "op_p90_ms"), "ms", timed),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB", 1),
    ];
    println!("as measured, unscaled (not in the result line):");
    as_measured.iter().for_each(print_metric);
    print_simulated(args.workload, &book);
    if args.workload == Workload::Replay {
        println!(
            "host: capture {:.2} Minsn/s, UMI over replay {:.2} Minsn/s",
            ratio(capture_insns, capture_s) / 1e6,
            ratio(capture_insns, replay_s) / 1e6
        );
    }
    println!("in the result line (host times scaled to the reference host speed):");
    report(&metrics, correct, book.attempted, book.failed);
}

/// The workload's simulated outcomes, one line, for the reader.
fn print_simulated(workload: Workload, book: &Book) {
    let n = book.tallies().count();
    match workload {
        Workload::Loops => println!(
            "simulated over {n} programs: UMI overhead {:.3}x, UMI+SW prefetch {:.3}x native \
             ({} planned)",
            geomean_ratio(book, "loops.umi_cycles", "loops.native_cycles"),
            geomean_ratio(book, "loops.sw_cycles", "loops.native_cycles"),
            book.tallies()
                .filter(|t| t.contains_key("loops.sw_cycles"))
                .count()
        ),
        Workload::Control => println!(
            "simulated over {n} programs: recall {:.1}%, false positives {:.1}%",
            100.0 * ratio(total(book, "control.hits"), total(book, "control.truth")),
            100.0
                * ratio(
                    total(book, "core.predicted_loads") - total(book, "control.hits"),
                    total(book, "core.predicted_loads")
                )
        ),
        Workload::Static => println!(
            "simulated over {n} programs: {} loads planned statically, {} check errors",
            total(book, "prefetch.planned_loads"),
            total(book, "prefetch.check_errors")
        ),
        Workload::Replay => println!(
            "simulated over {n} programs: {:.2} trace bits/access, UMI overhead {:.3}x",
            ratio(
                8.0 * total(book, "trace.bytes"),
                total(book, "trace.accesses")
            ),
            geomean_ratio(book, "replay.umi_cycles", "replay.native_cycles")
        ),
    }
}

/// The traced run: every op runs twice, untraced and traced, alternating
/// which goes first; per-layer metrics come from the traced twin. Its
/// host times are unscaled: shares and ratios cancel the host's speed.
fn run_traced(args: &Args, s: &Setup, setup: &SetupTimes, cal: &Calibrator) {
    let n = s.pool.len();
    let tracer = Tracer::new(args.seed);
    let mut book = Book::new(n);
    let mut plain = Book::new(n);
    let mut passes: Vec<Option<Tally>> = vec![None; n];
    let (mut capture_s, mut replay_s, mut capture_insns) = (0.0, 0.0, 0.0);
    // Layer event counts over every traced op, warm-up included like the
    // tracer's self times, for per-event costs.
    let mut events: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut traced_ops = 0;
    // Traced over untraced seconds of each timed pair of twins.
    let mut twin_ratios = Vec::new();
    // No tail percentile comes from the traced run, so it needs no
    // minimum op count.
    let mut section = None;
    for i in 0.. {
        if i == WARMUP {
            section = Some(Section::new(cal.now(), args.seconds, n, 0));
        }
        let k = i % n;
        let (program, timed) = (&s.pool[k], i >= WARMUP);
        let untraced = || {
            let t0 = Instant::now();
            let r = checked_op(&Untraced, args.workload, program, &s.rejected[k]);
            (r, t0.elapsed().as_secs_f64())
        };
        let traced = || {
            tracer.op(i as u64, || {
                checked_op(&&tracer, args.workload, program, &s.rejected[k])
            })
        };
        let (u, t) = if i % 2 == 0 {
            let u = untraced();
            (u, traced())
        } else {
            let t = traced();
            (untraced(), t)
        };
        let (u_secs, t_secs) = (u.1, t.1);
        let u_out = plain.record(k, &program.name, u.0, None);
        let t_out = book.record(k, &program.name, t.0, None);
        if let (Some(u_out), Some(t_out)) = (u_out, t_out) {
            traced_ops += 1;
            for (key, v) in &t_out.tally {
                *events.entry(key).or_default() += v;
            }
            if timed {
                twin_ratios.push(t_secs / u_secs);
                capture_s += u_out.capture_s;
                replay_s += u_out.replay_s;
                capture_insns += u_out.tally.get("vm.insns").copied().unwrap_or(0.0);
            }
            if passes[k].is_none() {
                passes[k] = Some(ops::standalone_passes(&tracer, program));
            }
        }
        if section.as_mut().is_some_and(|sec| sec.op_done(cal.now())) {
            break;
        }
    }

    let mut m = vec![
        metric(
            "workloads.build_s",
            stats::median(&setup.builds),
            "s",
            setup.builds.len(),
        ),
        metric(
            "analyze.verify_s",
            stats::median(&setup.verifies),
            "s",
            setup.verifies.len(),
        ),
    ];
    for (name, share) in tracer.self_shares() {
        m.push(metric(name, share, "%", traced_ops));
    }
    let per_event = |layer: Layer, key: &str| {
        1e9 * ratio(
            tracer.self_seconds(layer),
            events.get(key).copied().unwrap_or(0.0),
        )
    };
    m.push(metric(
        "vm.ns_per_insn",
        per_event(Layer::Vm, "vm.insns"),
        "ns/insn",
        traced_ops,
    ));
    m.push(metric(
        "cache.ns_per_access",
        per_event(Layer::Cache, "cache.accesses"),
        "ns/access",
        traced_ops,
    ));
    m.push(metric(
        "hw.ns_per_access",
        per_event(Layer::Hw, "hw.accesses"),
        "ns/access",
        traced_ops,
    ));
    let programs = book.tallies().count();
    for key in [
        "vm.insns",
        "vm.blocks",
        "dbi.traces_built",
        "dbi.blocks_translated",
        "dbi.indirect_branches",
        "dbi.context_switches",
        "core.profiles_collected",
        "core.analyzer_invocations",
        "core.cache_flushes",
        "core.instrumented_traces",
        "core.profiled_ops",
        "core.samples_taken",
        "core.predicted_loads",
        "cache.accesses",
        "cache.l1_misses",
        "cache.l2_misses",
        "hw.accesses",
        "hw.l2_misses",
        "hw.hw_prefetch_fills",
        "hw.sw_prefetch_fills",
        "prefetch.planned_loads",
        "prefetch.check_errors",
    ] {
        m.push(metric(
            key,
            per_program_mean(&book, key),
            "count/op",
            programs,
        ));
    }
    m.push(metric(
        "trace.bytes",
        per_program_mean(&book, "trace.bytes"),
        "bytes/op",
        programs,
    ));
    let residency = 100.0
        * ratio(
            total(&book, "dbi.trace_blocks"),
            total(&book, "dbi.dispatched_blocks"),
        );
    m.push(metric("dbi.trace_residency_pct", residency, "%", programs));
    let overhead = match args.workload {
        Workload::Replay => geomean_ratio(&book, "replay.umi_cycles", "replay.native_cycles"),
        _ => geomean_ratio(&book, "loops.umi_cycles", "loops.native_cycles"),
    };
    m.push(metric("core.umi_overhead_x", overhead, "x", programs));
    let (hits, truth) = (total(&book, "control.hits"), total(&book, "control.truth"));
    let predicted = total(&book, "core.predicted_loads");
    m.push(metric(
        "core.recall_pct",
        100.0 * ratio(hits, truth),
        "%",
        programs,
    ));
    // Only `control` scores its predictions against a ground truth.
    let false_pos = if truth > 0.0 {
        100.0 * ratio(predicted - hits, predicted)
    } else {
        0.0
    };
    m.push(metric("core.false_pos_pct", false_pos, "%", programs));
    let planned: Vec<&Tally> = book
        .tallies()
        .filter(|t| t.contains_key("loops.sw_cycles"))
        .collect();
    let useful = planned
        .iter()
        .filter(|t| t["loops.sw_cycles"] < t["loops.umi_cycles"])
        .count();
    m.push(metric(
        "prefetch.useful_plan_ratio",
        ratio(useful as f64, planned.len() as f64),
        "ratio",
        planned.len(),
    ));
    m.push(metric(
        "prefetch.sw_prefetch_norm",
        geomean_ratio(&book, "loops.sw_cycles", "loops.native_cycles"),
        "x",
        planned.len(),
    ));
    m.push(metric(
        "trace.bits_per_access",
        ratio(
            8.0 * total(&book, "trace.bytes"),
            total(&book, "trace.accesses"),
        ),
        "bits",
        programs,
    ));
    m.push(metric(
        "trace.capture_minsns_per_s",
        ratio(capture_insns, capture_s) / 1e6,
        "Minsn/s",
        traced_ops,
    ));
    m.push(metric(
        "trace.replay_minsns_per_s",
        ratio(capture_insns, replay_s) / 1e6,
        "Minsn/s",
        traced_ops,
    ));
    let pass_times = tracer.outside_means();
    for name in ops::PASSES {
        let ms = 1e3 * pass_times.get(name).copied().unwrap_or(0.0);
        m.push(metric(format!("{name}_ms"), ms, "ms", programs));
    }
    let counted: Vec<&Tally> = passes.iter().flatten().collect();
    let pass_total = |key: &str| {
        counted
            .iter()
            .filter_map(|t| t.get(key))
            .fold(0.0, |a, b| a + b)
    };
    for key in [
        "analyze.sites",
        "analyze.unclassified_sites",
        "analyze.groups",
        "analyze.bounded_groups",
    ] {
        m.push(metric(
            key,
            ratio(pass_total(key), counted.len() as f64),
            "count/op",
            counted.len(),
        ));
    }
    let sites = pass_total("analyze.sites");
    m.push(metric(
        "analyze.static_proven_pct",
        100.0 * ratio(sites - pass_total("analyze.unclassified_sites"), sites),
        "%",
        counted.len(),
    ));
    // The median twin ratio: a host stall during either twin moves one
    // ratio, not the estimate.
    let overhead = if twin_ratios.is_empty() {
        0.0
    } else {
        100.0 * (stats::median(&twin_ratios) - 1.0)
    };
    m.push(metric(
        "bench.trace_overhead_pct",
        overhead,
        "%",
        twin_ratios.len(),
    ));
    m.push(metric(
        "bench.traced_ops",
        traced_ops as f64,
        "count",
        traced_ops,
    ));

    let path = args.spans.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            "target/umibench/spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ))
    });
    let correct = match write_spans(&path, &tracer) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("umibench: could not write {}: {e}", path.display());
            false
        }
    };
    report(
        &m,
        correct,
        book.attempted + plain.attempted,
        book.failed + plain.failed,
    );
}

fn write_spans(path: &std::path::Path, tracer: &Tracer) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in tracer.records().iter() {
        writeln!(
            out,
            "{{\"op\": {}, \"name\": {}, \"parent\": {}, \"start_s\": {}, \"end_s\": {}, \
             \"dur_s\": {}, \"self_s\": {}, \"calls\": {}}}",
            r.op,
            json_str(r.name),
            json_str(r.parent),
            r.start,
            r.end,
            r.dur,
            r.self_s,
            r.calls
        )?;
    }
    out.flush()
}

fn main() {
    let args = parse_args();
    // Op failures print their own one-line reason.
    std::panic::set_hook(Box::new(|_| {}));

    let mut cal = Calibrator::new();
    let (s, setup) = set_up(args.workload, args.seed, &mut cal);
    if args.trace {
        run_traced(&args, &s, &setup, &cal);
    } else {
        run_untraced(&args, &s, &setup, &mut cal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The op count at which a section over passes of `n` ops ends, when
    /// op `i` ends at `i` seconds.
    fn ends_after(seconds: f64, n: usize, min_timed: usize) -> usize {
        let mut section = Section::new(0.0, seconds, n, min_timed);
        (1..).find(|&i| section.op_done(i as f64)).unwrap()
    }

    #[test]
    fn a_section_ends_at_the_pass_boundary_nearest_its_seconds() {
        // Boundaries at 4, 8, 12 s: 9 s is nearer 8, 10.5 s nearer 12.
        assert_eq!(ends_after(9.0, 4, 0), 8);
        assert_eq!(ends_after(10.5, 4, 0), 12);
        // Past 5 s, the first whole pass holding ten ops.
        assert_eq!(ends_after(5.0, 4, 10), 12);
        // No pass ends before the hard stop.
        assert_eq!(ends_after(1.0, 1000, 0), HARD_STOP as usize);
    }
}
