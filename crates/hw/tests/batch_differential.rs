//! Batch ⇄ per-item differential for the [`Machine`] sink.
//!
//! `Machine::access_batch` coalesces same-line demand runs into one
//! hierarchy lookup plus a deferred bulk update, while the prefetchers
//! keep observing every reference. This property pins the batched machine
//! to an independent per-item reference — the pre-batching access loop,
//! re-stated here over the same [`Hierarchy`] and the adjacent-line
//! engine, with its own stride engine — on every counter and on the
//! stall-cycle total, across prefetch settings, platforms, and
//! replacement policies.
//!
//! The stride engine is restated too ([`RefStride`]: a clock, per-stream
//! last-touch times and a minimum scan for the victim), and a lockstep
//! property compares it with [`StridePrefetcher`]'s recency-ordered table
//! call by call, so a regression in that table cannot hide behind a
//! reference that runs the same code.

use umi_cache::{CacheConfig, Hierarchy, HitLevel, ReplacementPolicy};
use umi_hw::{
    AdjacentLinePrefetcher, Machine, Platform, PrefetchEngine, PrefetchSetting, StridePrefetcher,
};
use umi_ir::{AccessKind, MemAccess, Pc};
use umi_testkit::{check, Xoshiro256pp};
use umi_vm::AccessSink;

/// One stream of [`RefStride`].
#[derive(Clone, Copy, Default)]
struct RefStream {
    valid: bool,
    pc: u64,
    last_line: u64,
    stride: i64,
    confidence: u8,
    /// Clock value of the last touch.
    lru: u64,
}

/// The stride engine as originally written: an array of stream structs,
/// a logical clock stamped on every touch, and a victim chosen by the
/// smallest stamp (invalid streams keyed 0, first minimum wins).
struct RefStride {
    streams: Vec<RefStream>,
    line_size: u64,
    distance: u64,
    clock: u64,
}

impl RefStride {
    fn new(streams: usize, line_size: u64, distance: u64) -> RefStride {
        RefStride {
            streams: vec![RefStream::default(); streams],
            line_size,
            distance,
            clock: 0,
        }
    }

    fn observe(&mut self, pc: Pc, line_addr: u64, l2_miss: bool) -> Vec<u64> {
        self.clock += 1;
        let mut out = Vec::new();
        let Some(s) = self.streams.iter_mut().find(|s| s.valid && s.pc == pc.0) else {
            let victim = self
                .streams
                .iter_mut()
                .min_by_key(|s| if s.valid { s.lru } else { 0 })
                .expect("at least one stream");
            *victim = RefStream {
                valid: true,
                pc: pc.0,
                last_line: line_addr,
                stride: 0,
                confidence: 0,
                lru: self.clock,
            };
            return out;
        };
        s.lru = self.clock;
        let delta = line_addr as i64 - s.last_line as i64;
        s.last_line = line_addr;
        if delta == 0 {
            return out;
        }
        if delta == s.stride {
            s.confidence = s.confidence.saturating_add(1);
        } else {
            s.stride = delta;
            s.confidence = 1;
        }
        if l2_miss && s.confidence >= 2 {
            for k in 1..=self.distance {
                let target = line_addr as i64 + s.stride * k as i64;
                if target >= 0 {
                    out.push(target as u64 & !(self.line_size - 1));
                }
            }
        }
        out
    }

    fn reset(&mut self) {
        for s in &mut self.streams {
            s.valid = false;
        }
        self.clock = 0;
    }
}

/// The original per-item machine loop: full hierarchy access per
/// reference, stall accounting, MLP discount, prefetcher observe/install.
struct RefMachine {
    platform: Platform,
    hierarchy: Hierarchy,
    adjacent: Option<AdjacentLinePrefetcher>,
    stride: Option<RefStride>,
    hw_fills: u64,
    sw_fills: u64,
    stall_cycles: u64,
    last_miss_line: Option<u64>,
}

impl RefMachine {
    fn new(platform: Platform, prefetch: PrefetchSetting) -> RefMachine {
        let effective = if platform.has_hw_prefetch {
            prefetch
        } else {
            PrefetchSetting::Off
        };
        let line = platform.l2.line_size;
        let adjacent =
            (effective != PrefetchSetting::Off).then(|| AdjacentLinePrefetcher::new(line));
        let stride = (effective == PrefetchSetting::Full).then(|| RefStride::new(8, line, 2));
        RefMachine {
            hierarchy: Hierarchy::new(platform.l1, platform.l2),
            platform,
            adjacent,
            stride,
            hw_fills: 0,
            sw_fills: 0,
            stall_cycles: 0,
            last_miss_line: None,
        }
    }

    fn install(&mut self, lines: Vec<u64>, hw: bool) {
        for line in lines {
            if !self.hierarchy.probe_l2(line) {
                self.hierarchy.prefetch_fill_l2(line);
                if hw {
                    self.hw_fills += 1;
                } else {
                    self.sw_fills += 1;
                }
            }
        }
    }

    fn access(&mut self, access: MemAccess) {
        if access.kind == AccessKind::Prefetch {
            self.stall_cycles += 1;
            self.install(vec![self.platform.l2.line_addr(access.addr)], false);
            return;
        }
        let level = if access.kind == AccessKind::Store {
            self.hierarchy.access_write(access.addr)
        } else {
            self.hierarchy.access(access.addr)
        };
        match level {
            HitLevel::L1 => {}
            HitLevel::L2 => self.stall_cycles += self.platform.l2_hit_cycles,
            HitLevel::Memory => {
                let line = self.platform.l2.line_addr(access.addr);
                let near = self
                    .last_miss_line
                    .is_some_and(|prev| prev.abs_diff(line) <= 16 * self.platform.l2.line_size);
                self.stall_cycles += if near {
                    self.platform.memory_cycles / 3
                } else {
                    self.platform.memory_cycles
                };
                self.last_miss_line = Some(line);
            }
        }
        if self.adjacent.is_some() || self.stride.is_some() {
            let line = self.platform.l2.line_addr(access.addr);
            let l2_miss = level == HitLevel::Memory;
            if let Some(adj) = &mut self.adjacent {
                let fills = adj.observe(access.pc, line, l2_miss);
                self.install(fills, true);
            }
            if let Some(st) = &mut self.stride {
                let fills = st.observe(access.pc, line, l2_miss);
                self.install(fills, true);
            }
        }
    }
}

/// Demand traffic with the shapes the batch path special-cases: same-line
/// runs in a hot working set, unit-stride streaming bursts (arming the
/// stride prefetcher, spilling past L2), and software prefetch hints
/// landing mid-run.
fn random_stream(rng: &mut Xoshiro256pp, refs: usize) -> Vec<MemAccess> {
    let mut out = Vec::with_capacity(refs + 16);
    let mut cursor = 0x100_0000u64; // streaming frontier, far from the hot set
    while out.len() < refs {
        match rng.below(4) {
            // A same-line run in the hot working set.
            0..=1 => {
                let line = rng.below(256) * 64;
                for _ in 0..=rng.below(5) {
                    let kind = match rng.below(12) {
                        0 => AccessKind::Prefetch,
                        1 | 2 => AccessKind::Store,
                        _ => AccessKind::Load,
                    };
                    out.push(MemAccess {
                        pc: Pc(1 + rng.below(16)),
                        addr: line + rng.below(64),
                        width: 8,
                        kind,
                    });
                }
            }
            // A unit-stride streaming burst from one pc.
            2 => {
                let pc = Pc(100 + rng.below(4));
                for _ in 0..=rng.below(12) {
                    out.push(MemAccess {
                        pc,
                        addr: cursor,
                        width: 8,
                        kind: AccessKind::Load,
                    });
                    cursor += 64;
                }
            }
            // A far pointer-chase-like jump (full-latency miss).
            _ => out.push(MemAccess {
                pc: Pc(50),
                addr: 0x4000_0000 + rng.below(1 << 24),
                width: 8,
                kind: AccessKind::Load,
            }),
        }
    }
    out
}

/// Feeds `stream` to `machine` in random-length batches, or, with
/// `mixed`, as a random interleaving of batches and per-item `access`
/// calls.
fn feed(rng: &mut Xoshiro256pp, machine: &mut Machine, stream: &[MemAccess], mixed: bool) {
    let mut i = 0;
    while i < stream.len() {
        if mixed && rng.below(2) == 0 {
            machine.access(stream[i]);
            i += 1;
            continue;
        }
        let end = (i + 1 + rng.below(9) as usize).min(stream.len());
        machine.access_batch(&stream[i..end]);
        i = end;
    }
}

fn machine_matches(platform: fn() -> Platform, setting: PrefetchSetting, label: &str) {
    machine_matches_fed(platform, setting, false, label);
}

fn machine_matches_fed(
    platform: fn() -> Platform,
    setting: PrefetchSetting,
    mixed: bool,
    label: &str,
) {
    check(label, 32, |rng| {
        let stream = random_stream(rng, 1200);
        let mut batched = Machine::new(platform(), setting);
        let mut reference = RefMachine::new(platform(), setting);

        feed(rng, &mut batched, &stream, mixed);
        for &a in &stream {
            reference.access(a);
        }

        let got = batched.counters();
        assert_eq!(got.l1_refs, reference.hierarchy.l1_stats().accesses);
        assert_eq!(got.l1_misses, reference.hierarchy.l1_stats().misses);
        assert_eq!(got.l2_refs, reference.hierarchy.l2_stats().accesses);
        assert_eq!(got.l2_misses, reference.hierarchy.l2_stats().misses);
        assert_eq!(got.hw_prefetch_fills, reference.hw_fills);
        assert_eq!(got.sw_prefetch_fills, reference.sw_fills);
        assert_eq!(batched.stall_cycles(), reference.stall_cycles);
    });
}

#[test]
fn pentium4_prefetch_off() {
    machine_matches(
        Platform::pentium4,
        PrefetchSetting::Off,
        "batched Machine matches per-item (P4, off)",
    );
}

#[test]
fn pentium4_adjacent_only() {
    machine_matches(
        Platform::pentium4,
        PrefetchSetting::AdjacentOnly,
        "batched Machine matches per-item (P4, adjacent)",
    );
}

#[test]
fn pentium4_full_prefetch() {
    machine_matches(
        Platform::pentium4,
        PrefetchSetting::Full,
        "batched Machine matches per-item (P4, full)",
    );
}

#[test]
fn k7_no_prefetch_hardware() {
    machine_matches(
        Platform::k7,
        PrefetchSetting::Full,
        "batched Machine matches per-item (K7)",
    );
}

/// A synthetic platform with Random-replacement caches: the coalesced
/// path must keep the victim RNG in lockstep with the per-item path (run
/// tails are hits and must not advance it).
#[test]
fn random_replacement_stays_in_lockstep() {
    fn random_platform() -> Platform {
        Platform {
            name: "random-replacement test rig",
            l1: CacheConfig::new(16, 4, 64).policy(ReplacementPolicy::Random),
            l2: CacheConfig::new(256, 8, 64).policy(ReplacementPolicy::Random),
            l2_hit_cycles: 10,
            memory_cycles: 200,
            clock_mhz: 1000,
            has_hw_prefetch: true,
        }
    }
    machine_matches(
        random_platform,
        PrefetchSetting::Full,
        "batched Machine matches per-item (Random policy)",
    );
}

/// One machine fed both ways: per-item `access` calls between batches
/// must leave the run detector and the deferred run exactly where the
/// per-item reference has them.
#[test]
fn per_item_and_batch_calls_mix_on_one_machine() {
    for setting in [PrefetchSetting::Off, PrefetchSetting::Full] {
        machine_matches_fed(
            Platform::pentium4,
            setting,
            true,
            "Machine fed by access and access_batch matches per-item",
        );
    }
}

/// Observation traffic for the stride lockstep: a pool of more pcs than
/// streams, each walking its own region with a stride of -3..=3 lines
/// that sometimes changes, occasional same-line repeats and jumps, some
/// regions near address 0 so negative strides run into it, random
/// `l2_miss` flags, and an occasional `reset` between observations.
fn stride_lockstep(streams: usize, label: &str) {
    check(label, 48, |rng| {
        let line = 64u64;
        let distance = 1 + rng.below(3);
        let mut table = StridePrefetcher::new(streams, line, distance);
        let mut reference = RefStride::new(streams, line, distance);
        let pcs = streams + 1 + rng.below(2 * streams as u64) as usize;
        let mut cursors: Vec<u64> = (0..pcs)
            .map(|p| {
                if p % 3 == 0 {
                    4 * line
                } else {
                    (p as u64 + 1) << 24
                }
            })
            .collect();
        let mut strides: Vec<i64> = (0..pcs).map(|_| rng.range_i64(-3, 3)).collect();
        let reset_at = rng.below(600);
        for step in 0..600u64 {
            if step == reset_at {
                table.reset();
                reference.reset();
            }
            // Skewed pc choice: a few hot pcs keep their streams while
            // the rest churn the table.
            let p = if rng.below(2) == 0 {
                rng.below(streams.min(pcs) as u64) as usize
            } else {
                rng.below(pcs as u64) as usize
            };
            match rng.below(16) {
                0 => strides[p] = rng.range_i64(-3, 3),
                1 => cursors[p] = rng.below(1 << 30),
                _ => {}
            }
            let next = cursors[p] as i64 + strides[p] * line as i64;
            cursors[p] = if next < 0 { 0 } else { next as u64 };
            let line_addr = cursors[p] & !(line - 1);
            let l2_miss = rng.below(3) != 0;
            let pc = Pc(0x40_0000 + 4 * p as u64);
            assert_eq!(
                table.observe(pc, line_addr, l2_miss),
                reference.observe(pc, line_addr, l2_miss),
                "{streams} streams: step {step}, pc {p}, line {line_addr:#x}"
            );
        }
    });
}

#[test]
fn stride_table_matches_clock_reference_1_stream() {
    stride_lockstep(1, "stride table matches the clock engine (1 stream)");
}

#[test]
fn stride_table_matches_clock_reference_2_streams() {
    stride_lockstep(2, "stride table matches the clock engine (2 streams)");
}

#[test]
fn stride_table_matches_clock_reference_8_streams() {
    stride_lockstep(8, "stride table matches the clock engine (8 streams)");
}

#[test]
fn stride_table_matches_clock_reference_16_streams() {
    stride_lockstep(16, "stride table matches the clock engine (16 streams)");
}
