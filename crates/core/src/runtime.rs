//! The UMI runtime: region selection, instrumentation, profiling, and
//! analysis over a live DBI execution.

use crate::columns::ColumnScan;
use crate::config::{SamplingMode, UmiConfig};
use crate::delinquency::DelinquencyTracker;
use crate::instrumentor::{Instrumentor, TraceInstrumentation, NO_COL};
use crate::minisim::MiniSimulator;
use crate::patterns::PatternTally;
use crate::profiles::ProfileStore;
use crate::report::UmiReport;
use crate::selector::RegionSelector;
use crate::stride::StrideInfo;
use std::collections::{HashMap, HashSet};
use umi_dbi::{CostModel, DbiRuntime, TraceId};
use umi_ir::{MemAccess, Pc, Program, CODE_BASE};
use umi_vm::{AccessSink, BlockSource, Vm};

/// A running UMI session over one program.
///
/// Drives the [`DbiRuntime`] block by block; on each step it feeds the
/// region selector, instruments freshly selected traces, records the
/// accesses of instrumented traces into the two-level profiles, and
/// invokes the mini-simulator when a profile fills. At the end,
/// [`report`](Self::report) summarizes everything.
///
/// See the [crate docs](crate) for an end-to-end example.
/// Like the DBI layer it drives, the runtime is generic over the block
/// supplier `X` — live interpretation ([`Vm`], the default) or a trace
/// replay cursor; introspection behaves identically for both.
#[derive(Debug)]
pub struct UmiRuntime<'p, X: BlockSource<'p> = Vm<'p>> {
    dbi: DbiRuntime<'p, X>,
    config: UmiConfig,
    selector: RegionSelector,
    instrumentor: Instrumentor,
    store: ProfileStore,
    minisim: MiniSimulator,
    /// Extra mini-simulators fed the same drained profiles as the primary
    /// one, each over its own cache geometry
    /// ([`add_shadow_sim`](Self::add_shadow_sim)). Analysis results never
    /// feed back into region selection, instrumentation, or profile
    /// collection, so a shadow's cumulative statistics are identical to
    /// what a second full run configured with that geometry would
    /// produce — at the cost of one extra analysis pass per invocation
    /// instead of a whole re-execution.
    shadows: Vec<MiniSimulator>,
    tracker: DelinquencyTracker,
    /// Instrumentation plans, kept across activation episodes. Trace ids
    /// are dense cache indices, so all per-trace state here lives in flat
    /// vectors consulted on every dispatcher step.
    plans: Vec<Option<TraceInstrumentation>>,
    /// Traces currently profiling (instrumented fragment `T` installed).
    active: Vec<bool>,
    /// Traces whose plan has no profitable operations.
    barren: Vec<bool>,
    /// Executions remaining before a de-instrumented trace is
    /// re-instrumented (bursty profiling, `SamplingMode::Off` only);
    /// zero = not cooling down.
    cooldown: Vec<u64>,
    /// `is_load_table[(pc - CODE_BASE) / 4]`: 0 = not a memory
    /// instruction, 1 = store, 2 = load. Instruction addresses are dense
    /// 4-byte-spaced from `CODE_BASE`, and the analyzer queries this once
    /// per profiled operation.
    is_load_table: Vec<u8>,
    /// Column buffers for stride discovery, reused by every analyzer
    /// invocation.
    columns: ColumnScan,
    strides: HashMap<Pc, StrideInfo>,
    /// Per-operation dynamic pattern votes; only filled when
    /// `config.classify_patterns` is set.
    patterns: HashMap<Pc, PatternTally>,
    profiles_collected: u64,
    umi_overhead: u64,
    next_sample: u64,
    instrumented_traces: HashSet<TraceId>,
    profiled_pcs: HashSet<Pc>,
    /// xorshift state for sampling/burst jitter. Real deployments get
    /// jitter for free from the OS timer; a deterministic simulation must
    /// inject it or periodic profiling phase-locks against loop periods
    /// and can systematically miss reuse.
    jitter: u64,
}

impl<'p> UmiRuntime<'p> {
    /// Creates a UMI session with the default DBI cost model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(program: &'p Program, config: UmiConfig) -> UmiRuntime<'p> {
        UmiRuntime::with_dbi(DbiRuntime::new(program, CostModel::default()), config)
    }
}

impl<'p, X: BlockSource<'p>> UmiRuntime<'p, X> {
    /// Creates a UMI session over an existing (unstarted) DBI runtime.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_dbi(dbi: DbiRuntime<'p, X>, config: UmiConfig) -> UmiRuntime<'p, X> {
        if let Err(e) = config.validate() {
            panic!("invalid UMI configuration: {e}");
        }
        let program = dbi.program();
        let mut is_load_table = Vec::new();
        for block in &program.blocks {
            for (pc, insn) in block.iter_with_pc() {
                if insn.accesses_memory() {
                    let idx = ((pc.0 - CODE_BASE) >> 2) as usize;
                    if is_load_table.len() <= idx {
                        is_load_table.resize(idx + 1, 0u8);
                    }
                    is_load_table[idx] = if insn.is_load() { 2 } else { 1 };
                }
            }
        }
        let next_sample = match config.sampling {
            SamplingMode::Off => u64::MAX,
            SamplingMode::Periodic { period_insns } => period_insns,
        };
        UmiRuntime {
            selector: RegionSelector::new(config.frequency_threshold),
            instrumentor: Instrumentor::new(config.operation_filter, config.addr_profile_ops),
            store: ProfileStore::new(config.trace_profile_capacity, config.addr_profile_rows),
            minisim: {
                let mut m = MiniSimulator::with_l1_filter(
                    config.effective_sim_cache(),
                    config.effective_l1_filter(),
                    config.warmup_rows,
                    config.flush_after_cycles,
                );
                m.set_exclude_compulsory(config.exclude_compulsory);
                m
            },
            shadows: Vec::new(),
            tracker: DelinquencyTracker::new(
                config.delinquency_initial,
                config.delinquency_step,
                config.delinquency_floor,
                config.adaptive_threshold,
            ),
            plans: Vec::new(),
            active: Vec::new(),
            barren: Vec::new(),
            cooldown: Vec::new(),
            is_load_table,
            columns: ColumnScan::default(),
            strides: HashMap::new(),
            patterns: HashMap::new(),
            profiles_collected: 0,
            umi_overhead: 0,
            next_sample,
            instrumented_traces: HashSet::new(),
            profiled_pcs: HashSet::new(),
            jitter: 0x853c_49e6_748f_ea9b,
            dbi,
            config,
        }
    }

    /// Whether the program has finished.
    pub fn finished(&self) -> bool {
        self.dbi.finished()
    }

    /// The underlying DBI runtime.
    pub fn dbi(&self) -> &DbiRuntime<'p, X> {
        &self.dbi
    }

    /// Mutable access to the underlying DBI runtime (e.g. to attach or
    /// detach a trace-capture hook mid-session).
    pub fn dbi_mut(&mut self) -> &mut DbiRuntime<'p, X> {
        &mut self.dbi
    }

    /// UMI overhead cycles so far (profiling + analysis + instrumentation).
    pub fn umi_overhead_cycles(&self) -> u64 {
        self.umi_overhead
    }

    /// The mini-simulator (cumulative introspection results).
    pub fn minisim(&self) -> &MiniSimulator {
        &self.minisim
    }

    /// Attaches a shadow mini-simulator with `config`'s simulation
    /// geometry (cache, L1 accounting filter, warm-up, flush policy,
    /// compulsory-miss handling) and returns its index.
    ///
    /// Every analyzer invocation replays the drained profiles through all
    /// shadows after the primary mini-simulator. Introspection is
    /// geometry-blind upstream of analysis — which traces get selected,
    /// instrumented, and profiled depends only on execution frequency,
    /// operation filtering, profile capacity, and the jitter stream — so
    /// the shadow ends the run in exactly the state a dedicated run with
    /// that configuration would reach. Table 4's K7-geometry column rides
    /// the P4 run this way instead of re-interpreting the workload.
    pub fn add_shadow_sim(&mut self, config: &UmiConfig) -> usize {
        if let Err(e) = config.validate() {
            panic!("invalid shadow configuration: {e}");
        }
        let mut m = MiniSimulator::with_l1_filter(
            config.effective_sim_cache(),
            config.effective_l1_filter(),
            config.warmup_rows,
            config.flush_after_cycles,
        );
        m.set_exclude_compulsory(config.exclude_compulsory);
        self.shadows.push(m);
        self.shadows.len() - 1
    }

    /// The shadow mini-simulators, in [`add_shadow_sim`](Self::add_shadow_sim)
    /// order.
    pub fn shadow_sims(&self) -> &[MiniSimulator] {
        &self.shadows
    }

    /// The predicted delinquent loads so far.
    pub fn predicted(&self) -> &HashSet<Pc> {
        self.tracker.predicted()
    }

    /// Runs the program to completion (or `max_insns`), performing
    /// introspection throughout, then drains any residual profiles through
    /// one final analyzer invocation. Returns the report.
    pub fn run<S: AccessSink>(&mut self, sink: &mut S, max_insns: u64) -> UmiReport {
        while !self.finished() && self.dbi.vm_stats().insns < max_insns {
            self.step(sink);
        }
        if self.store.drain_would_yield() {
            self.run_analyzer(None);
        }
        self.report()
    }

    /// Executes one basic block with introspection.
    pub fn step<S: AccessSink>(&mut self, sink: &mut S) {
        let mut deferred_row: Option<(TraceId, Vec<MemAccess>)> = None;
        let mut reinstrument: Option<TraceId> = None;
        let (created, current_trace) = {
            let info = self.dbi.step(sink);

            if let Some(tid) = info.trace {
                if info.entered_trace && !flag(&self.active, tid) {
                    // Bursty profiling: count down toward re-instrumentation.
                    if let Some(gap) = self.cooldown.get_mut(tid.index()) {
                        if *gap > 0 {
                            *gap -= 1;
                            if *gap == 0 {
                                reinstrument = Some(tid);
                            }
                        }
                    }
                }
                if flag(&self.active, tid) {
                    let plan = self.plans[tid.index()]
                        .as_ref()
                        .expect("active trace has plan");
                    if info.entered_trace {
                        self.umi_overhead += self.config.prolog_cost;
                        if self.store.trigger(tid).is_some() {
                            // The prolog (or the guard page) fires: the
                            // analyzer must run before this execution's
                            // row can be recorded.
                            deferred_row = Some((tid, info.accesses.to_vec()));
                        } else {
                            self.store.begin_row(tid);
                        }
                    }
                    if deferred_row.is_none() {
                        // Pre-instrumented fast path: the block's access
                        // batch aligns slot-for-slot with the plan's
                        // per-block column table, so recording is a zip —
                        // no per-access pc lookup. Filtered slots and
                        // prefetch hints carry NO_COL.
                        match plan.cols_at(info.trace_pos) {
                            Some(cols) if cols.len() == info.accesses.len() => {
                                for (a, &col) in info.accesses.iter().zip(cols) {
                                    if col != NO_COL {
                                        self.store.record(
                                            tid,
                                            col,
                                            a.addr,
                                            a.kind == umi_ir::AccessKind::Store,
                                        );
                                        self.umi_overhead += self.config.record_cost;
                                    }
                                }
                            }
                            _ => {
                                for a in info.accesses.iter().filter(|a| a.is_demand()) {
                                    if let Some(op) = plan.op_of(a.pc) {
                                        self.store.record(
                                            tid,
                                            op,
                                            a.addr,
                                            a.kind == umi_ir::AccessKind::Store,
                                        );
                                        self.umi_overhead += self.config.record_cost;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            (info.trace_created, info.trace)
        };

        if let Some((tid, accesses)) = deferred_row {
            self.run_analyzer(Some(tid));
            if flag(&self.active, tid) {
                self.store.begin_row(tid);
                let plan = self.plans[tid.index()]
                    .as_ref()
                    .expect("active trace has plan");
                for a in accesses.iter().filter(|a| a.is_demand()) {
                    if let Some(op) = plan.op_of(a.pc) {
                        self.store
                            .record(tid, op, a.addr, a.kind == umi_ir::AccessKind::Store);
                        self.umi_overhead += self.config.record_cost;
                    }
                }
            }
        }

        // Without sampling, every new trace is instrumented immediately;
        // de-instrumented traces come back after their burst gap.
        if let Some(tid) = created {
            if self.config.sampling == SamplingMode::Off {
                self.instrument_trace(tid);
            }
        }
        if let Some(tid) = reinstrument {
            self.instrument_trace(tid);
        }

        // Sample-based reinforcement.
        if let SamplingMode::Periodic { period_insns } = self.config.sampling {
            let insns = self.dbi.vm_stats().insns;
            while insns >= self.next_sample {
                self.next_sample += self.jittered(period_insns);
                if self.selector.sample(current_trace) {
                    let tid = current_trace.expect("selected trace exists");
                    self.instrument_trace(tid);
                }
            }
        }
    }

    fn instrument_trace(&mut self, tid: TraceId) {
        if flag(&self.active, tid) || flag(&self.barren, tid) {
            return;
        }
        if self.plans.len() <= tid.index() {
            self.plans.resize_with(tid.index() + 1, || None);
        }
        if self.plans[tid.index()].is_none() {
            let trace = self.dbi.traces().trace(tid).clone();
            let plan = self.instrumentor.instrument(self.dbi.program(), &trace);
            if plan.ops.is_empty() {
                // Nothing profitable to profile (all references filtered).
                set_flag(&mut self.barren, tid, true);
                return;
            }
            self.plans[tid.index()] = Some(plan);
        }
        let plan = self.plans[tid.index()].as_ref().expect("plan just ensured");
        self.store.register(tid, plan.ops.clone());
        set_flag(&mut self.active, tid, true);
        self.instrumented_traces.insert(tid);
        self.profiled_pcs.extend(plan.ops.iter().copied());
        self.umi_overhead += self.config.instrument_cost_base
            + self.config.instrument_cost_per_op * plan.op_count() as u64;
    }

    fn run_analyzer(&mut self, responsible: Option<TraceId>) {
        // Context switch into the runtime and back (paper §3: the analyzer
        // "performs a context switch to save the application state").
        self.umi_overhead += self.dbi.costs().context_switch;
        let drained = self.store.drain();
        self.profiles_collected += drained.len() as u64;
        let now = self.now_cycles();
        let table = &self.is_load_table;
        let result = self.minisim.analyze(&drained, now, |pc| {
            let idx = (pc.0.wrapping_sub(CODE_BASE) >> 2) as usize;
            table.get(idx).copied() == Some(2)
        });
        for shadow in &mut self.shadows {
            shadow.analyze(&drained, now, |pc| {
                let idx = (pc.0.wrapping_sub(CODE_BASE) >> 2) as usize;
                table.get(idx).copied() == Some(2)
            });
        }
        self.umi_overhead += result.refs_simulated * self.config.analyze_cost_per_ref;
        if let Some(r) = responsible {
            self.tracker.decay(r);
        }
        self.tracker.label(&result);

        // Stride discovery for every predicted load present in the drained
        // profiles (the prefetcher's input), plus — when enabled — a
        // reference-pattern vote per column for *every* profiled op.
        self.columns.run(
            &drained,
            self.tracker.predicted(),
            self.config.classify_patterns,
            &mut self.strides,
            &mut self.patterns,
        );

        // Replace instrumented fragments `T` with their clean clones `T_c`
        // (§3). With sampling, profiling stays off until the selector
        // re-selects the trace; without sampling, bursty profiling brings
        // the trace back after `burst_gap_execs` executions.
        // `drain` already unregistered every drained trace.
        for (tid, _) in &drained {
            set_flag(&mut self.active, *tid, false);
            if self.config.sampling == SamplingMode::Off {
                let gap = self.jittered(self.config.burst_gap_execs.max(1));
                let idx = tid.index();
                if self.cooldown.len() <= idx {
                    self.cooldown.resize(idx + 1, 0);
                }
                self.cooldown[idx] = gap;
            }
        }
    }

    /// A value in `[base/2, 3*base/2)`, deterministically pseudo-random.
    fn jittered(&mut self, base: u64) -> u64 {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let half = (base / 2).max(1);
        half + self.jitter % base.max(1)
    }

    /// Virtual-time proxy used for the analyzer's flush policy: base
    /// cycles (1 per instruction). Memory stalls are accounted by the
    /// platform model downstream and are not visible here, exactly as the
    /// real prototype's `rdtsc` reads wall time rather than stall
    /// breakdowns.
    fn now_cycles(&self) -> u64 {
        self.dbi.vm_stats().insns
    }

    /// Builds the final report.
    pub fn report(&self) -> UmiReport {
        let program = self.dbi.program();
        UmiReport {
            program_name: program.name.clone(),
            umi_miss_ratio: self.minisim.miss_ratio(),
            predicted: self.tracker.predicted().clone(),
            strides: self.strides.clone(),
            patterns: self.patterns.clone(),
            per_pc: self.minisim.per_pc().clone(),
            profiles_collected: self.profiles_collected,
            analyzer_invocations: self.minisim.invocations(),
            cache_flushes: self.minisim.flushes(),
            instrumented_traces: self.instrumented_traces.len(),
            profiled_ops: self.profiled_pcs.len(),
            static_loads: program.static_loads(),
            static_stores: program.static_stores(),
            umi_overhead_cycles: self.umi_overhead,
            dbi_overhead_cycles: self.dbi.overhead_cycles(),
            samples_taken: self.selector.samples_taken(),
            vm_stats: self.dbi.vm_stats(),
            dbi_stats: self.dbi.stats(),
        }
    }
}

/// Reads a dense per-trace flag (absent entries are `false`).
#[inline]
fn flag(v: &[bool], tid: TraceId) -> bool {
    v.get(tid.index()).copied().unwrap_or(false)
}

/// Writes a dense per-trace flag, growing the vector on demand.
fn set_flag(v: &mut Vec<bool>, tid: TraceId, value: bool) {
    let idx = tid.index();
    if v.len() <= idx {
        v.resize(idx + 1, false);
    }
    v[idx] = value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::{ProgramBuilder, Reg, Width};
    use umi_vm::NullSink;

    /// Two passes of streaming over `elems` 8-byte slots (two passes so
    /// that reuse exists for the compulsory-exclusion accounting).
    fn streaming(elems: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.name("stream");
        let f = pb.begin_func("main");
        let outer = pb.new_block();
        let body = pb.new_block();
        let next = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::R8, 0)
            .alloc(Reg::ESI, elems * 8)
            .jmp(outer);
        pb.block(outer).movi(Reg::ECX, 0).jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .load(Reg::EBX, Reg::EBP + -16, Width::W8) // filtered stack ref
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, elems)
            .br_lt(body, next);
        pb.block(next)
            .addi(Reg::R8, 1)
            .cmpi(Reg::R8, 2)
            .br_lt(outer, done);
        pb.block(done).ret();
        pb.finish()
    }

    #[test]
    fn no_sampling_predicts_streaming_load() {
        let p = streaming(200_000);
        let mut umi = UmiRuntime::new(&p, UmiConfig::no_sampling());
        let report = umi.run(&mut NullSink, u64::MAX);
        assert_eq!(report.instrumented_traces, 1);
        assert_eq!(report.profiled_ops, 1, "stack load is filtered");
        assert!(report.analyzer_invocations >= 2);
        assert!(report.profiles_collected >= report.analyzer_invocations);
        assert_eq!(report.predicted.len(), 1);
        let pc = *report.predicted.iter().next().expect("one predicted");
        let s = report.strides.get(&pc).expect("stride detected");
        assert_eq!(s.stride, 8);
        assert!(report.umi_miss_ratio > 0.1, "streaming misses often");
        assert!(report.umi_overhead_cycles > 0);
    }

    #[test]
    fn sampling_mode_selects_hot_trace_eventually() {
        let p = streaming(400_000);
        let mut cfg = UmiConfig::sampled();
        cfg.sampling = SamplingMode::Periodic { period_insns: 500 };
        cfg.frequency_threshold = 8;
        let mut umi = UmiRuntime::new(&p, cfg);
        let report = umi.run(&mut NullSink, u64::MAX);
        assert!(report.samples_taken > 0);
        assert_eq!(report.instrumented_traces, 1);
        assert_eq!(report.predicted.len(), 1);
    }

    #[test]
    fn high_frequency_threshold_prevents_selection() {
        let p = streaming(50_000);
        let mut cfg = UmiConfig::sampled();
        cfg.sampling = SamplingMode::Periodic {
            period_insns: 1_000,
        };
        cfg.frequency_threshold = 1_000_000; // unreachable
        let mut umi = UmiRuntime::new(&p, cfg);
        let report = umi.run(&mut NullSink, u64::MAX);
        assert_eq!(report.instrumented_traces, 0);
        assert_eq!(report.analyzer_invocations, 0);
        assert!(report.predicted.is_empty());
        assert_eq!(report.umi_overhead_cycles, 0, "no instrumentation, no cost");
    }

    #[test]
    fn low_miss_loop_is_not_delinquent() {
        // Tiny working set: everything hits after warm-up.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 512)
            .jmp(body);
        pb.block(body)
            .movi(Reg::EDX, 0)
            .load(Reg::EAX, Reg::ESI + (Reg::EDX, 8), Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 300_000)
            .br_lt(body, done);
        pb.block(done).ret();
        let p = pb.finish();
        let mut umi = UmiRuntime::new(&p, UmiConfig::no_sampling());
        let report = umi.run(&mut NullSink, u64::MAX);
        assert!(
            report.predicted.is_empty(),
            "hitting load wrongly predicted"
        );
        assert!(report.umi_miss_ratio < 0.01);
    }

    #[test]
    fn introspection_is_architecturally_transparent() {
        let p = streaming(100_000);
        let mut plain = umi_vm::Vm::new(&p);
        plain.run(&mut NullSink, u64::MAX);
        let mut umi = UmiRuntime::new(&p, UmiConfig::no_sampling());
        let report = umi.run(&mut NullSink, u64::MAX);
        assert_eq!(plain.stats(), report.vm_stats);
        assert_eq!(plain.reg(Reg::ECX), umi.dbi().vm().reg(Reg::ECX));
    }

    #[test]
    fn shadow_sim_matches_dedicated_run() {
        use umi_cache::CacheConfig;
        let p = streaming(200_000);
        let mut k7_cfg = UmiConfig::no_sampling().sim_cache(CacheConfig::k7_l2());
        k7_cfg.sim_l1_filter = CacheConfig::k7_l1d();

        // Dedicated K7-geometry run.
        let mut dedicated = UmiRuntime::new(&p, k7_cfg.clone());
        let dedicated_report = dedicated.run(&mut NullSink, u64::MAX);

        // P4-geometry run with a K7 shadow riding along.
        let mut umi = UmiRuntime::new(&p, UmiConfig::no_sampling());
        let idx = umi.add_shadow_sim(&k7_cfg);
        let report = umi.run(&mut NullSink, u64::MAX);

        let shadow = &umi.shadow_sims()[idx];
        assert_eq!(shadow.overall(), dedicated.minisim().overall());
        assert_eq!(shadow.miss_ratio(), dedicated_report.umi_miss_ratio);
        assert_eq!(shadow.invocations(), dedicated_report.analyzer_invocations);
        assert!(
            report.analyzer_invocations > 0 && shadow.overall().accesses > 0,
            "the shadow must actually have simulated something"
        );
    }

    /// Every suite workload at test scale, pattern classification off
    /// and on: the one-walk column scan gives the same report as the
    /// per-column oracle it replaced.
    #[test]
    fn column_scan_matches_per_column_oracle_on_the_suite() {
        for spec in umi_workloads::all32() {
            let p = spec.build(umi_workloads::Scale::Test);
            for classify in [false, true] {
                let mut cfg = UmiConfig::no_sampling();
                cfg.classify_patterns = classify;
                let [scan, oracle] = [false, true].map(|oracle| {
                    let mut umi = UmiRuntime::new(&p, cfg.clone());
                    umi.columns.oracle = oracle;
                    umi.run(&mut NullSink, u64::MAX)
                });
                let what = format!("{} classify={classify}", spec.name);
                assert!(scan.analyzer_invocations > 0, "{what}: nothing analyzed");
                assert_eq!(scan.strides, oracle.strides, "{what}");
                assert_eq!(scan.patterns, oracle.patterns, "{what}");
                assert_eq!(scan.predicted, oracle.predicted, "{what}");
                let per_pc =
                    |r: &UmiReport| r.per_pc.iter().map(|(pc, s)| (pc, *s)).collect::<Vec<_>>();
                assert_eq!(per_pc(&scan), per_pc(&oracle), "{what}");
                assert_eq!(
                    scan.analyzer_invocations, oracle.analyzer_invocations,
                    "{what}"
                );
                assert_eq!(
                    scan.umi_overhead_cycles, oracle.umi_overhead_cycles,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn table3_style_statistics_are_plumbed() {
        let p = streaming(150_000);
        let mut umi = UmiRuntime::new(&p, UmiConfig::no_sampling());
        let report = umi.run(&mut NullSink, u64::MAX);
        assert_eq!(report.static_loads, p.static_loads());
        assert_eq!(report.static_stores, p.static_stores());
        assert!(report.percent_profiled() > 0.0);
        assert!(report.percent_profiled() <= 100.0);
    }
}
