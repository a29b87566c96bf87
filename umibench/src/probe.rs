//! Host-time attribution.
//!
//! Every pass an op makes goes through a [`Probe`]. The untraced probe
//! calls the layers directly and adds nothing but one clock read per
//! pass. The [`Tracer`] wraps the block source and the access sink of
//! each pass in [`Metered`] adapters and records one span per layer
//! boundary, nested the way the layers call each other:
//!
//! ```text
//! op ─┬─ core ── dbi ─┬─ vm | trace.decode ── hw | cache
//!     │               └─ trace.encode            (capture passes)
//!     ├─ vm | trace.decode ── hw | cache         (passes without a DBI)
//!     └─ prefetch.*, trace.*, bench.check        (per-pass calls)
//! ```
//!
//! A span's self time is its duration minus its direct children's
//! ([`self_times`]). Per-pass calls are timed exactly. Per-block calls
//! read the clock only on a seeded 1-in-32 sample of calls and scale up,
//! because reading it on every block costs more than the layers being
//! measured. The DBI's own time cannot be reached from outside a UMI
//! pass, so the tracer repeats each pass's block stream through a
//! DBI-only runtime after the pass, outside the op's time, and takes the
//! DBI share from that run.

use crate::ops::FUEL;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;
use umi_core::{UmiConfig, UmiReport, UmiRuntime};
use umi_dbi::{CostModel, DbiRuntime};
use umi_ir::MemAccess;
use umi_trace::{ExecTrace, TraceSummary, TraceWriter};
use umi_vm::{AccessSink, BlockExit, BlockSource, NullSink, VmStats};

/// A layer boundary spans are recorded at, named after its crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The whole op (its self time is time no other span covers).
    Op,
    /// Live interpretation (`umi-vm`).
    Vm,
    /// Dispatch and trace building (`umi-dbi`).
    Dbi,
    /// Introspection: selection, profiling, analysis (`umi-core`).
    Core,
    /// The exact simulator (`umi-cache`).
    Cache,
    /// The machine model with its prefetchers (`umi-hw`).
    Hw,
    /// Trace capture and sealing (`umi-trace` write path).
    TraceEncode,
    /// Trace decoding as a block source or a replayed stream.
    TraceDecode,
    /// `ExecTrace::to_bytes`.
    TraceSerialize,
    /// `ExecTrace::from_bytes`.
    TraceDeserialize,
    /// `PrefetchPlan::from_report`.
    PrefetchPlan,
    /// `inject_prefetches`.
    PrefetchRewrite,
    /// `static_prefetch_plan` (composition and every pass under it).
    PrefetchStaticplan,
    /// `check_rewritten`.
    PrefetchCheck,
    /// The benchmark's own output checks.
    BenchCheck,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 15] = [
        Layer::Op,
        Layer::Vm,
        Layer::Dbi,
        Layer::Core,
        Layer::Cache,
        Layer::Hw,
        Layer::TraceEncode,
        Layer::TraceDecode,
        Layer::TraceSerialize,
        Layer::TraceDeserialize,
        Layer::PrefetchPlan,
        Layer::PrefetchRewrite,
        Layer::PrefetchStaticplan,
        Layer::PrefetchCheck,
        Layer::BenchCheck,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Vm => "vm",
            Layer::Dbi => "dbi",
            Layer::Core => "core",
            Layer::Cache => "cache",
            Layer::Hw => "hw",
            Layer::TraceEncode => "trace.encode",
            Layer::TraceDecode => "trace.decode",
            Layer::TraceSerialize => "trace.serialize",
            Layer::TraceDeserialize => "trace.deserialize",
            Layer::PrefetchPlan => "prefetch.plan",
            Layer::PrefetchRewrite => "prefetch.rewrite",
            Layer::PrefetchStaticplan => "prefetch.staticplan",
            Layer::PrefetchCheck => "prefetch.check",
            Layer::BenchCheck => "bench.check",
        }
    }
}

/// What one UMI pass produced.
pub struct UmiPass {
    /// The introspection report.
    pub report: UmiReport,
    /// Whether the program ended within [`FUEL`].
    pub finished: bool,
    /// Final L2 miss ratio of each shadow mini-simulator.
    pub shadow_ratios: Vec<f64>,
    /// The capture writer, when the pass captured a trace.
    pub writer: Option<TraceWriter>,
    /// Host seconds of the pass.
    pub secs: f64,
}

/// How a UMI pass is configured.
pub struct UmiSetup<'a> {
    /// The introspection configuration.
    pub config: &'a UmiConfig,
    /// Shadow mini-simulator geometries.
    pub shadows: &'a [UmiConfig],
    /// Whether the DBI records a trace of the pass.
    pub capture: bool,
}

/// The seam between an op and the layers it calls.
pub trait Probe {
    /// UMI over the blocks of `fresh()` with every access sent to
    /// `sink`. `fresh` must return an unstarted source of the same
    /// stream each call: the tracer calls it again for its DBI-only run.
    fn umi<'p, X, F, S>(
        &self,
        fresh: F,
        setup: &UmiSetup<'_>,
        sink: &mut S,
        layers: (Layer, Layer),
    ) -> Result<UmiPass, String>
    where
        X: BlockSource<'p>,
        F: FnMut() -> Result<X, String>,
        S: AccessSink;

    /// Steps the source `fresh()` builds to its end (or [`FUEL`]) into
    /// `sink`, with no DBI.
    fn run<'p, X, F, S>(&self, fresh: F, sink: &mut S, layers: (Layer, Layer)) -> (bool, VmStats)
    where
        X: BlockSource<'p>,
        F: FnOnce() -> X,
        S: AccessSink;

    /// Replays `trace`'s access stream into `sink`, a model of
    /// `sink_layer`.
    fn replay_into<S: AccessSink>(
        &self,
        trace: &ExecTrace,
        sink: &mut S,
        sink_layer: Layer,
    ) -> TraceSummary;

    /// Runs one per-pass call of `layer`.
    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// Runs one UMI pass; `secs` is left for the caller to fill in.
fn drive<'p, X: BlockSource<'p>, S: AccessSink>(
    source: X,
    setup: &UmiSetup<'_>,
    sink: &mut S,
) -> UmiPass {
    let mut dbi = DbiRuntime::from_source(source, CostModel::default());
    if setup.capture {
        dbi.attach_tracer(TraceWriter::new());
    }
    let mut umi = UmiRuntime::with_dbi(dbi, setup.config.clone());
    let shadows: Vec<usize> = setup
        .shadows
        .iter()
        .map(|c| umi.add_shadow_sim(c))
        .collect();
    let report = umi.run(sink, FUEL);
    let shadow_ratios = shadows
        .iter()
        .map(|&i| umi.shadow_sims()[i].miss_ratio())
        .collect();
    UmiPass {
        finished: umi.finished(),
        writer: umi.dbi_mut().take_tracer(),
        report,
        shadow_ratios,
        secs: 0.0,
    }
}

fn run_source<'p, X: BlockSource<'p>, S: AccessSink>(
    mut source: X,
    sink: &mut S,
) -> (bool, VmStats) {
    while !source.is_finished() && source.stats().insns < FUEL {
        source.step_block(sink);
    }
    (source.is_finished(), source.stats())
}

/// The untraced probe: direct calls, nothing recorded.
#[derive(Clone, Copy, Debug)]
pub struct Untraced;

impl Probe for Untraced {
    fn umi<'p, X, F, S>(
        &self,
        mut fresh: F,
        setup: &UmiSetup<'_>,
        sink: &mut S,
        _: (Layer, Layer),
    ) -> Result<UmiPass, String>
    where
        X: BlockSource<'p>,
        F: FnMut() -> Result<X, String>,
        S: AccessSink,
    {
        let t0 = Instant::now();
        let mut pass = drive(fresh()?, setup, sink);
        pass.secs = t0.elapsed().as_secs_f64();
        Ok(pass)
    }

    fn run<'p, X, F, S>(&self, fresh: F, sink: &mut S, _: (Layer, Layer)) -> (bool, VmStats)
    where
        X: BlockSource<'p>,
        F: FnOnce() -> X,
        S: AccessSink,
    {
        run_source(fresh(), sink)
    }

    fn replay_into<S: AccessSink>(
        &self,
        trace: &ExecTrace,
        sink: &mut S,
        _: Layer,
    ) -> TraceSummary {
        trace.replay_into(sink)
    }

    fn span<R>(&self, _: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Counts every call of one adapter and clocks a seeded 1-in-32 sample.
pub struct Meter {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
    /// Calls left until the next sampled one.
    countdown: Cell<u32>,
    rng: Cell<u64>,
    /// What timing an empty call costs, taken off every sample.
    clock_ns: u64,
}

impl Meter {
    fn new(seed: u64, clock_ns: u64) -> Meter {
        let m = Meter {
            calls: Cell::new(0),
            sampled: Cell::new(0),
            sampled_ns: Cell::new(0),
            countdown: Cell::new(0),
            // xorshift64 must not start at zero.
            rng: Cell::new(seed | 1),
            clock_ns,
        };
        m.countdown.set(m.gap());
        m
    }

    /// A gap uniform in 1..=63 calls: one call in 32 on average, at
    /// random so it cannot alias with a loop's period.
    fn gap(&self) -> u32 {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        1 + (x % 63) as u32
    }

    #[inline]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        let left = self.countdown.get() - 1;
        self.countdown.set(left);
        if left != 0 {
            return f();
        }
        self.countdown.set(self.gap());
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.sampled.set(self.sampled.get() + 1);
        self.sampled_ns
            .set(self.sampled_ns.get() + ns.saturating_sub(self.clock_ns));
        out
    }

    /// Estimated seconds inside the adapter over all calls.
    fn estimate_s(&self) -> f64 {
        match self.sampled.get() {
            0 => 0.0,
            k => self.sampled_ns.get() as f64 * self.calls.get() as f64 / k as f64 / 1e9,
        }
    }
}

/// The median cost of timing an empty call, in nanoseconds.
fn clock_cost_ns() -> u64 {
    let mut v: Vec<u64> = (0..4001)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// A timing adapter around a block source or an access sink.
pub struct Metered<'m, T> {
    inner: T,
    meter: &'m Meter,
}

impl<'p, X: BlockSource<'p>> BlockSource<'p> for Metered<'_, X> {
    fn step_block<S: AccessSink>(&mut self, sink: &mut S) -> BlockExit {
        let inner = &mut self.inner;
        self.meter.time(|| inner.step_block(sink))
    }

    fn block_accesses(&self) -> &[MemAccess] {
        self.inner.block_accesses()
    }

    fn stats(&self) -> VmStats {
        self.inner.stats()
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    fn program(&self) -> &'p umi_ir::Program {
        self.inner.program()
    }

    fn decoded(&self) -> &std::rc::Rc<umi_ir::DecodedCache> {
        self.inner.decoded()
    }
}

impl<S: AccessSink> AccessSink for Metered<'_, S> {
    fn access(&mut self, access: MemAccess) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.access(access));
    }

    fn access_batch(&mut self, batch: &[MemAccess]) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.access_batch(batch));
    }
}

/// Self time of every node of a span tree given as `(parent, duration)`
/// pairs: its duration minus the durations of its direct children.
pub fn self_times(nodes: &[(Option<usize>, f64)]) -> Vec<f64> {
    let mut out: Vec<f64> = nodes.iter().map(|&(_, d)| d).collect();
    for &(parent, d) in nodes {
        if let Some(p) = parent {
            out[p] -= d;
        }
    }
    out
}

/// Host seconds measured around one traced UMI pass.
struct PassTimes {
    /// The whole pass, building its source included.
    pass_s: f64,
    /// Building the source: decoding the program, or validating the trace.
    build_s: f64,
    /// Inside the source's `step_block` calls, nested sink time included.
    src_s: f64,
    /// Inside the sink's calls.
    sink_s: f64,
    /// The DBI-only rerun, its source time taken off.
    dbi_s: f64,
    /// What attaching the tracer added to the DBI-only rerun, for a
    /// capture.
    encode_s: Option<f64>,
}

/// The spans of one UMI pass as `(layer, parent, duration)`, in the
/// order core, DBI, source, sink, then trace encoding for a capture;
/// `parent` indexes into the list (`None`: the enclosing span).
///
/// The DBI span covers everything under it, the source's construction
/// included, so its self time is the DBI-only rerun's and the source's
/// construction counts once, to the source.
fn umi_pass_spans(
    t: &PassTimes,
    (src_layer, sink_layer): (Layer, Layer),
) -> Vec<(Layer, Option<usize>, f64)> {
    let encode_s = t.encode_s.unwrap_or(0.0);
    let mut spans = vec![
        (Layer::Core, None, t.pass_s),
        (
            Layer::Dbi,
            Some(0),
            t.dbi_s + encode_s + t.build_s + t.src_s,
        ),
        (src_layer, Some(1), t.build_s + t.src_s),
        (sink_layer, Some(2), t.sink_s),
    ];
    if let Some(e) = t.encode_s {
        spans.push((Layer::TraceEncode, Some(1), e));
    }
    spans
}

/// One recorded span, before aggregation.
struct Node {
    layer: Layer,
    parent: Option<usize>,
    start: f64,
    end: f64,
    dur: f64,
    calls: u64,
    /// `Tracer::outside_s` when the span opened.
    outside_at_open: f64,
}

/// One line of the span file: a layer within an op, or a call the
/// tracer made outside every op (`op` is then the op it belongs to and
/// `parent` is `"outside"`).
pub struct SpanRecord {
    pub op: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start: f64,
    pub end: f64,
    pub dur: f64,
    pub self_s: f64,
    pub calls: u64,
}

/// The traced-run probe: keeps spans in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    clock_ns: u64,
    seed: Cell<u64>,
    op: Cell<u64>,
    nodes: RefCell<Vec<Node>>,
    open: RefCell<Vec<usize>>,
    /// Seconds spent in calls outside the op so far; subtracted from
    /// every span open while they ran.
    outside_s: Cell<f64>,
    records: RefCell<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer whose clock samples are drawn from `seed`.
    pub fn new(seed: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            clock_ns: clock_cost_ns(),
            seed: Cell::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1),
            op: Cell::new(0),
            nodes: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            outside_s: Cell::new(0.0),
            records: RefCell::new(Vec::new()),
        }
    }

    fn meter(&self) -> Meter {
        let s = self.seed.get().wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.seed.set(s);
        Meter::new(s, self.clock_ns)
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The innermost open span.
    fn top(&self) -> Option<usize> {
        self.open.borrow().last().copied()
    }

    fn node(
        &self,
        parent: Option<usize>,
        layer: Layer,
        (start, end): (f64, f64),
        dur: f64,
        calls: u64,
    ) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            layer,
            parent,
            start,
            end,
            dur,
            calls,
            outside_at_open: self.outside_s.get(),
        });
        nodes.len() - 1
    }

    fn enter(&self, layer: Layer) -> usize {
        let t = self.now();
        let i = self.node(self.top(), layer, (t, t), 0.0, 1);
        self.open.borrow_mut().push(i);
        i
    }

    fn exit(&self, i: usize) {
        let t = self.now();
        self.open.borrow_mut().pop();
        let mut nodes = self.nodes.borrow_mut();
        let n = &mut nodes[i];
        n.end = t;
        n.dur = t - n.start - (self.outside_s.get() - n.outside_at_open);
    }

    /// Records the sink time `m` measured inside span `i`.
    fn nested_sink(&self, i: usize, layer: Layer, m: &Meter) {
        let span = {
            let n = &self.nodes.borrow()[i];
            (n.start, n.end)
        };
        self.node(Some(i), layer, span, m.estimate_s(), m.calls.get());
    }

    /// Runs `f` outside the op: its time is excluded from every open span
    /// and it is recorded under `name` with parent `"outside"`.
    pub fn outside<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.outside_s.set(self.outside_s.get() + (end - start));
        self.records.borrow_mut().push(SpanRecord {
            op: self.op.get(),
            name,
            parent: "outside",
            start,
            end,
            dur: end - start,
            self_s: end - start,
            calls: 1,
        });
        out
    }

    /// Runs one op as the root span and returns `f`'s result with the
    /// op's seconds, calls outside the op excluded.
    pub fn op<R>(&self, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.op.set(op);
        let root = self.enter(Layer::Op);
        let out = f();
        self.exit(root);
        let nodes = std::mem::take(&mut *self.nodes.borrow_mut());
        let tree: Vec<(Option<usize>, f64)> = nodes.iter().map(|n| (n.parent, n.dur)).collect();
        let selfs = self_times(&tree);
        // One record per (op, layer).
        let mut records = self.records.borrow_mut();
        for layer in Layer::ALL {
            let mine: Vec<usize> = (0..nodes.len())
                .filter(|&i| nodes[i].layer == layer)
                .collect();
            let Some(&first) = mine.first() else {
                continue;
            };
            records.push(SpanRecord {
                op,
                name: layer.name(),
                parent: nodes[first].parent.map_or("run", |p| nodes[p].layer.name()),
                start: mine
                    .iter()
                    .map(|&i| nodes[i].start)
                    .fold(f64::MAX, f64::min),
                end: mine.iter().map(|&i| nodes[i].end).fold(0.0, f64::max),
                dur: mine.iter().map(|&i| nodes[i].dur).sum(),
                self_s: mine.iter().map(|&i| selfs[i]).sum(),
                calls: mine.iter().map(|&i| nodes[i].calls).sum(),
            });
        }
        (out, nodes[root].dur)
    }

    /// Self seconds per span name over every traced op, and the ops'
    /// total seconds.
    fn self_totals(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut ops = 0.0;
        for r in self
            .records
            .borrow()
            .iter()
            .filter(|r| r.parent != "outside")
        {
            *totals.entry(r.name).or_default() += r.self_s;
            if r.name == Layer::Op.name() {
                ops += r.dur;
            }
        }
        (totals, ops)
    }

    /// Each layer's self time over every traced op as a share of the ops'
    /// total time, named as its metric: `vm.self_pct` for a crate-wide
    /// layer, `trace.encode_pct` for a part of one, and
    /// `bench.unattributed_pct` for the op's own self time.
    pub fn self_shares(&self) -> Vec<(String, f64)> {
        let (totals, ops) = self.self_totals();
        Layer::ALL
            .iter()
            .map(|l| {
                let s = totals.get(l.name()).copied().unwrap_or(0.0);
                let name = match l.name() {
                    "op" => "bench.unattributed_pct".to_string(),
                    n if n.contains('.') => format!("{n}_pct"),
                    n => format!("{n}.self_pct"),
                };
                (name, if ops > 0.0 { 100.0 * s / ops } else { 0.0 })
            })
            .collect()
    }

    /// Self seconds of `layer` over every traced op.
    pub fn self_seconds(&self, layer: Layer) -> f64 {
        self.self_totals()
            .0
            .get(layer.name())
            .copied()
            .unwrap_or(0.0)
    }

    /// Mean seconds per call of each name run outside the ops.
    pub fn outside_means(&self) -> BTreeMap<&'static str, f64> {
        let mut sums: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for r in self
            .records
            .borrow()
            .iter()
            .filter(|r| r.parent == "outside")
        {
            let e = sums.entry(r.name).or_default();
            e.0 += r.dur;
            e.1 += 1.0;
        }
        sums.into_iter().map(|(n, (s, k))| (n, s / k)).collect()
    }

    /// Every span recorded so far, in recording order.
    pub fn records(&self) -> std::cell::Ref<'_, Vec<SpanRecord>> {
        self.records.borrow()
    }
}

impl Probe for &Tracer {
    fn umi<'p, X, F, S>(
        &self,
        mut fresh: F,
        setup: &UmiSetup<'_>,
        sink: &mut S,
        (src_layer, sink_layer): (Layer, Layer),
    ) -> Result<UmiPass, String>
    where
        X: BlockSource<'p>,
        F: FnMut() -> Result<X, String>,
        S: AccessSink,
    {
        let (src_m, sink_m) = (self.meter(), self.meter());
        let start = self.now();
        let t0 = Instant::now();
        // Building the source (decoding the program, or validating the
        // trace) is the source layer's work.
        let source = Metered {
            inner: fresh()?,
            meter: &src_m,
        };
        let build_s = t0.elapsed().as_secs_f64();
        let mut pass = drive(
            source,
            setup,
            &mut Metered {
                inner: &mut *sink,
                meter: &sink_m,
            },
        );
        pass.secs = t0.elapsed().as_secs_f64();
        let end = self.now();

        // The DBI's share: the same stream through a DBI-only runtime,
        // once plain and, for a capture, once more with the tracer on.
        let mut dbi_only = |capture: bool| -> Result<f64, String> {
            let m = self.meter();
            let source = Metered {
                inner: fresh()?,
                meter: &m,
            };
            let t0 = Instant::now();
            let mut dbi = DbiRuntime::from_source(source, CostModel::default());
            if capture {
                dbi.attach_tracer(TraceWriter::new());
            }
            dbi.run(&mut NullSink, FUEL);
            Ok(t0.elapsed().as_secs_f64() - m.estimate_s())
        };
        let dbi_s = self.outside("dbi.only", || dbi_only(false))?;
        let encode_s = if setup.capture {
            self.outside("dbi.only+capture", || dbi_only(true))? - dbi_s
        } else {
            0.0
        };

        let times = PassTimes {
            pass_s: pass.secs,
            build_s,
            src_s: src_m.estimate_s(),
            sink_s: sink_m.estimate_s(),
            dbi_s,
            encode_s: setup.capture.then_some(encode_s),
        };
        let calls = [1, 1, src_m.calls.get(), sink_m.calls.get(), 1];
        let mut ids = Vec::new();
        for ((layer, parent, dur), calls) in umi_pass_spans(&times, (src_layer, sink_layer))
            .into_iter()
            .zip(calls)
        {
            let parent = parent.map_or(self.top(), |p| Some(ids[p]));
            ids.push(self.node(parent, layer, (start, end), dur, calls));
        }
        Ok(pass)
    }

    fn run<'p, X, F, S>(
        &self,
        fresh: F,
        sink: &mut S,
        (src_layer, sink_layer): (Layer, Layer),
    ) -> (bool, VmStats)
    where
        X: BlockSource<'p>,
        F: FnOnce() -> X,
        S: AccessSink,
    {
        let sink_m = self.meter();
        let i = self.enter(src_layer);
        let out = run_source(
            fresh(),
            &mut Metered {
                inner: sink,
                meter: &sink_m,
            },
        );
        self.exit(i);
        self.nested_sink(i, sink_layer, &sink_m);
        out
    }

    fn replay_into<S: AccessSink>(
        &self,
        trace: &ExecTrace,
        sink: &mut S,
        sink_layer: Layer,
    ) -> TraceSummary {
        let sink_m = self.meter();
        let i = self.enter(Layer::TraceDecode);
        let out = trace.replay_into(&mut Metered {
            inner: sink,
            meter: &sink_m,
        });
        self.exit(i);
        self.nested_sink(i, sink_layer, &sink_m);
        out
    }

    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let i = self.enter(layer);
        let out = f();
        self.exit(i);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // op(10) ── core(6) ── dbi(4) ─┬─ vm(3) ── hw(1)
        //        │                     └─ encode(0.5)
        //        └─ check(2)
        let tree = [
            (None, 10.0),
            (Some(0), 6.0),
            (Some(1), 4.0),
            (Some(2), 3.0),
            (Some(3), 1.0),
            (Some(2), 0.5),
            (Some(0), 2.0),
        ];
        let s = self_times(&tree);
        assert_eq!(s, vec![2.0, 2.0, 0.5, 2.0, 1.0, 0.5, 2.0]);
        // Self times partition the root span.
        assert_eq!(s.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn dbi_self_time_does_not_depend_on_source_build_time() {
        for build_s in [0.0, 0.1, 0.5] {
            let t = PassTimes {
                pass_s: 2.0 + build_s,
                build_s,
                src_s: 1.2,
                sink_s: 0.7,
                dbi_s: 0.3,
                encode_s: Some(0.1),
            };
            let spans = umi_pass_spans(&t, (Layer::Vm, Layer::Hw));
            let tree: Vec<(Option<usize>, f64)> = spans.iter().map(|&(_, p, d)| (p, d)).collect();
            let selfs = self_times(&tree);
            let self_of = |layer: Layer| {
                let i = spans.iter().position(|s| s.0 == layer).unwrap();
                selfs[i]
            };
            let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
            assert!(close(self_of(Layer::Dbi), 0.3), "build_s {build_s}");
            assert!(close(self_of(Layer::Core), 2.0 - 1.2 - 0.3 - 0.1));
            assert!(close(self_of(Layer::Vm), build_s + 1.2 - 0.7));
            assert!(close(self_of(Layer::Hw), 0.7));
            assert!(close(self_of(Layer::TraceEncode), 0.1));
            assert!(close(selfs.iter().sum::<f64>(), t.pass_s));
        }
    }

    #[test]
    fn outside_calls_are_excluded_from_open_spans() {
        let t = Tracer::new(7);
        let ((), secs) = t.op(0, || {
            (&t).span(Layer::BenchCheck, || {
                t.outside("sleep", || {
                    std::thread::sleep(std::time::Duration::from_millis(30))
                });
            });
        });
        assert!(secs < 0.02, "outside time leaked into the op: {secs}");
        let recs = t.records();
        assert!(recs.iter().any(|r| r.name == "sleep" && r.dur >= 0.03));
        let check = recs.iter().find(|r| r.name == "bench.check").unwrap();
        assert_eq!(check.parent, "op");
        assert!(check.dur < 0.02);
    }

    #[test]
    fn meter_counts_every_call_and_samples_some() {
        let m = Meter::new(42, 0);
        for _ in 0..1600 {
            m.time(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(m.calls.get(), 1600);
        let k = m.sampled.get();
        assert!((25..=75).contains(&k), "about 1 in 32 sampled: {k}");
    }
}
