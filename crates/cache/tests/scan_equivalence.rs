//! Property test: the recency-ordered sets are observationally identical
//! to a plain timestamp model that does what the original implementation
//! did — one pass to find the tag, a second pass to pick the victim
//! (first invalid way, else the way with the minimal time for LRU/FIFO,
//! else the xorshift pick for Random; FIFO keeps insertion time, LRU
//! refreshes on hit) — with a dirty bit per line.
//!
//! Outcomes, evicted addresses, fill evictions, probes, `reuse_mru` runs,
//! flushes and the final access/miss/writeback counts are compared step
//! by step, over random traffic and over interleaved strided streams
//! that hit every recency position of a set.

use umi_cache::{AccessOutcome, CacheConfig, ReplacementPolicy, SetAssocCache};
use umi_testkit::{check, Xoshiro256pp};

/// The original timestamp scan, reduced to its essentials.
struct RefCache {
    sets: usize,
    ways: usize,
    line_size: u64,
    policy: ReplacementPolicy,
    /// `(tag, time, valid, dirty)` per line, sets back to back.
    lines: Vec<(u64, u64, bool, bool)>,
    clock: u64,
    rng: u64,
    accesses: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            sets: cfg.sets,
            ways: cfg.ways,
            line_size: cfg.line_size,
            policy: cfg.policy,
            lines: vec![(0, 0, false, false); cfg.sets * cfg.ways],
            clock: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// One reference; `count` is false for a prefetch fill, which moves
    /// replacement state like a read but touches no statistic.
    fn access(&mut self, addr: u64, write: bool, count: bool) -> AccessOutcome {
        self.clock += 1;
        self.accesses += count as u64;
        let block = addr / self.line_size;
        let set = (block as usize) % self.sets;
        let tag = block / self.sets as u64;
        let base = set * self.ways;
        let ways = &mut self.lines[base..base + self.ways];

        // Pass 1: hit?
        if let Some(line) = ways.iter_mut().find(|l| l.2 && l.0 == tag) {
            if self.policy == ReplacementPolicy::Lru {
                line.1 = self.clock;
            }
            line.3 |= write;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.misses += count as u64;

        // Pass 2: victim = first invalid way, else the policy's pick
        // (`min_by_key` keeps the first minimum, like the original).
        let victim = match ways.iter().position(|l| !l.2) {
            Some(i) => i,
            None if self.policy == ReplacementPolicy::Random => {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng % self.ways as u64) as usize
            }
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.1)
                .map(|(i, _)| i)
                .expect("ways is non-empty"),
        };
        let (old_tag, _, old_valid, old_dirty) = ways[victim];
        ways[victim] = (tag, self.clock, true, write);
        self.writebacks += (count && old_valid && old_dirty) as u64;
        let evicted = old_valid.then(|| (old_tag * self.sets as u64 + set as u64) * self.line_size);
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let block = addr / self.line_size;
        let base = (block as usize % self.sets) * self.ways;
        let tag = block / self.sets as u64;
        self.lines[base..base + self.ways]
            .iter()
            .any(|l| l.2 && l.0 == tag)
    }

    fn flush(&mut self) {
        for l in &mut self.lines {
            l.2 = false;
            l.3 = false;
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u64),
    Write(u64),
    Fill(u64),
    /// `n >= 1` more references to the previous demand access's line, `write`
    /// if any of them stores.
    Reuse(u64, bool),
    Probe(u64),
    Flush,
}

/// Uniform traffic over a universe of 16 lines per set: conflicts, full
/// sets and same-line repeats with in-line offsets.
fn random_addr(rng: &mut Xoshiro256pp, cfg: CacheConfig) -> u64 {
    rng.below(16 * cfg.sets as u64) * cfg.line_size + rng.below(cfg.line_size)
}

/// `k` strided streams, from 2 to twice the associativity, visited round
/// robin, each cycling over `period` lines. With a stride of `sets`
/// lines every stream maps to one set, so a line comes back after
/// `k * period - 1` others: each recency position gets hit, and once
/// `k * period` exceeds the ways the set thrashes.
struct Streams {
    k: u64,
    period: u64,
    stride: u64,
    next: Vec<u64>,
}

impl Streams {
    fn new(rng: &mut Xoshiro256pp, cfg: CacheConfig) -> Streams {
        let k = 2 + rng.below(2 * cfg.ways as u64 - 1);
        let lines = if rng.below(3) == 0 {
            1
        } else {
            cfg.sets as u64
        };
        let stride = lines * cfg.line_size;
        Streams {
            k,
            period: 1 + rng.below(3),
            stride,
            next: vec![0; k as usize],
        }
    }

    fn addr(&mut self, rng: &mut Xoshiro256pp, step: u64, line_size: u64) -> u64 {
        let s = if rng.below(8) == 0 {
            rng.below(self.k)
        } else {
            step % self.k
        };
        let i = self.next[s as usize];
        self.next[s as usize] += 1;
        (s + self.k * (i % self.period)) * self.stride + rng.below(line_size)
    }
}

fn random_ops(rng: &mut Xoshiro256pp, cfg: CacheConfig, steps: u64) -> Vec<Op> {
    let mut streams = (rng.below(2) == 0).then(|| Streams::new(rng, cfg));
    let flush_at = rng.below(steps);
    let mut ops = Vec::with_capacity(steps as usize);
    let mut after_demand = false;
    for step in 0..steps {
        if step == flush_at || rng.below(500) == 0 {
            ops.push(Op::Flush);
            after_demand = false;
            continue;
        }
        if after_demand && rng.below(6) == 0 {
            ops.push(Op::Reuse(1 + rng.below(4), rng.below(3) == 0));
            continue;
        }
        let addr = match &mut streams {
            Some(st) => st.addr(rng, step, cfg.line_size),
            None => random_addr(rng, cfg),
        };
        let op = match rng.below(16) {
            0 | 1 => Op::Fill(addr),
            2 => Op::Probe(addr),
            3..=5 => Op::Write(addr),
            _ => Op::Read(addr),
        };
        after_demand = matches!(op, Op::Read(_) | Op::Write(_))
            || (after_demand && matches!(op, Op::Probe(_)));
        ops.push(op);
    }
    ops
}

/// Runs `ops` through both models, comparing at every step.
fn replay(cfg: CacheConfig, ops: &[Op]) {
    let mut prod = SetAssocCache::new(cfg);
    let mut refc = RefCache::new(cfg);
    let mut last = 0;
    let geom = format!("{} sets x {} ways x {}B", cfg.sets, cfg.ways, cfg.line_size);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Read(a) | Op::Write(a) => {
                let write = matches!(op, Op::Write(_));
                let got = if write {
                    prod.access_write(a)
                } else {
                    prod.access(a)
                };
                let want = refc.access(a, write, true);
                assert_eq!(got, want, "{op:?} diverges at step {step}, {geom}");
                last = a;
            }
            Op::Fill(a) => {
                let want = refc.access(a, false, false).evicted;
                assert_eq!(prod.fill(a), want, "{op:?} diverges at step {step}, {geom}");
            }
            Op::Reuse(n, write) => {
                prod.reuse_mru(n, write);
                for i in 0..n {
                    let hit = refc.access(last, write && i == 0, true);
                    assert!(hit.hit, "reuse of a non-resident line at step {step}");
                }
            }
            Op::Probe(a) => assert_eq!(prod.probe(a), refc.probe(a), "step {step}, {geom}"),
            Op::Flush => {
                prod.flush();
                refc.flush();
            }
        }
    }
    let s = prod.stats();
    assert_eq!(
        (s.accesses, s.misses, s.writebacks),
        (refc.accesses, refc.misses, refc.writebacks),
        "{geom}"
    );
    let resident = refc.lines.iter().filter(|l| l.2).count();
    assert_eq!(prod.resident_lines(), resident, "{geom}");
}

/// A random small geometry (1..8 sets, 1..8 ways, 16- or 64-byte lines).
fn random_geometry(rng: &mut Xoshiro256pp, policy: ReplacementPolicy) -> CacheConfig {
    let line = if rng.below(2) == 0 { 16 } else { 64 };
    CacheConfig::new(1 << rng.below(4), 1 << rng.below(4), line).policy(policy)
}

fn random_stream_matches(policy: ReplacementPolicy) {
    check(
        &format!("recency-ordered sets match timestamps ({policy:?})"),
        64,
        |rng| {
            let cfg = random_geometry(rng, policy);
            let ops = random_ops(rng, cfg, 2000);
            replay(cfg, &ops);
        },
    );
    // Edge geometries: one fully associative 64-way set, two ways, and
    // 16-byte lines.
    for (sets, ways, line) in [(1, 64, 64), (8, 2, 64), (4, 4, 16)] {
        check(
            &format!("{sets}x{ways}x{line}B recency-ordered sets ({policy:?})"),
            16,
            |rng| {
                let cfg = CacheConfig::new(sets, ways, line).policy(policy);
                let ops = random_ops(rng, cfg, 3000);
                replay(cfg, &ops);
            },
        );
    }
}

#[test]
fn lru_victim_choice_is_preserved() {
    random_stream_matches(ReplacementPolicy::Lru);
}

#[test]
fn fifo_victim_choice_is_preserved() {
    random_stream_matches(ReplacementPolicy::Fifo);
}

#[test]
fn random_victim_choice_is_preserved() {
    random_stream_matches(ReplacementPolicy::Random);
}

/// Two tags aliasing into a one-line cache, with in-line repeats: every
/// reference either hits the front entry or evicts it.
#[test]
fn aliasing_lines_in_a_one_line_cache() {
    check(
        "one-line cache alternates aliasing lines",
        64,
        |rng: &mut Xoshiro256pp| {
            let cfg = CacheConfig::new(1, 1, 64).policy(ReplacementPolicy::Lru);
            let ops: Vec<Op> = (0..500)
                .map(|_| {
                    let addr = rng.below(2) * 64 + rng.below(64);
                    if rng.below(4) == 0 {
                        Op::Write(addr)
                    } else {
                        Op::Read(addr)
                    }
                })
                .collect();
            replay(cfg, &ops);
        },
    );
}
