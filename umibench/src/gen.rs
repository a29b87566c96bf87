//! Seeded program pools, one per workload.
//!
//! A pool is a fixed list of *slots*. A slot fixes its kernel, its
//! discrete parameters and its size, at the centre of one of `m` equal
//! slices of the kernel's size range (for the kernel's `m` slots). The
//! seed names every program, and the name seeds the kernels' `TableRng`:
//! a slot is a program's code and shape, the seed its input data. Two
//! seeds therefore give different programs that do the same amount of
//! work in the same order, which keeps host time and peak memory
//! comparable across seeds. (Moving sizes by even a few percent with the
//! seed moved the allocator's peak by up to 20 %.)

use umi_ir::Program;
use umi_workloads::add_abi_noise;
use umi_workloads::kernels::{
    chase, control, copy, hash, phases, spmv, stencil, stream, tree, ChaseParams, ControlParams,
    CopyParams, HashParams, PhasesParams, SpmvParams, StencilParams, StreamParams, TreeParams,
};

/// Capacity of the Pentium 4 L2 the loop footprints are scaled against.
const P4_L2_BYTES: f64 = 512.0 * 1024.0;

/// The benchmark's workloads (see the README for why each is here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The §8 study cell: introspect, plan, inject, re-run.
    Loops,
    /// Sampled UMI on control-intensive code, scored against `C`.
    Control,
    /// The static analyzer, planner and checker, audited by exact
    /// simulation.
    Static,
    /// Capture once, then replay three ways.
    Replay,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Loops,
        Workload::Control,
        Workload::Static,
        Workload::Replay,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Loops => "loops",
            Workload::Control => "control",
            Workload::Static => "static",
            Workload::Replay => "replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Kernels of the pool, repeated in this order; a kernel listed
    /// twice gets twice the share.
    fn kinds(self) -> &'static [Kind] {
        use Kind::*;
        match self {
            Workload::Loops => &[Stream, Stencil, Spmv, Copy],
            Workload::Control => &[Control, Phases, Hash, Tree, Chase],
            Workload::Static => &[GccLike, Stream, Stencil, Chase, GccLike, Spmv, Hash, Tree],
            Workload::Replay => &[Stream, Chase, Stencil, Hash, Spmv, Control, Copy, Tree],
        }
    }

    /// How big the pool's programs are. Op time grows linearly with
    /// footprint and steps, so the ranges keep the slowest op within a
    /// few times the mean and a 10 s run above 100 ops.
    fn sizing(self) -> Sizing {
        match self {
            Workload::Loops => Sizing {
                footprint: (0.25, 2.0),
                steps: 1.0,
            },
            Workload::Control => Sizing {
                footprint: (0.25, 2.0),
                steps: 4.0,
            },
            Workload::Static | Workload::Replay => Sizing {
                footprint: (0.125, 1.0),
                steps: 1.0,
            },
        }
    }

    /// Programs per pool: every program runs at least once in a run, and
    /// most several times.
    fn pool_size(self) -> usize {
        match self {
            // 36: three passes already hold the 100 ops a run needs.
            Workload::Loops => 36,
            Workload::Control => 30,
            Workload::Static => 32,
            Workload::Replay => 32,
        }
    }
}

/// A workload's program sizes.
#[derive(Clone, Copy, Debug)]
struct Sizing {
    /// Loop-kernel footprint range in multiples of the P4 L2; sizes are
    /// log-uniform inside it.
    footprint: (f64, f64),
    /// Multiplier on the test-scale step counts of the other kernels.
    steps: f64,
}

/// One kernel family with its sizing rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Stream,
    Stencil,
    Spmv,
    Copy,
    Control,
    GccLike,
    Phases,
    Hash,
    Tree,
    Chase,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Stream => "stream",
            Kind::Stencil => "stencil",
            Kind::Spmv => "spmv",
            Kind::Copy => "copy",
            Kind::Control => "control",
            Kind::GccLike => "gcclike",
            Kind::Phases => "phases",
            Kind::Hash => "hash",
            Kind::Tree => "tree",
            Kind::Chase => "chase",
        }
    }

    /// Builds one program; `u` in `[0, 1)` is its size within the
    /// kernel's range and `rng` draws the slot's discrete parameters.
    fn build(self, name: &str, u: f64, sizing: Sizing, rng: &mut Rng) -> Program {
        let (lo, hi) = sizing.footprint;
        let footprint = P4_L2_BYTES * lo * (hi / lo).powf(u);
        let steps = |test_scale: usize| (test_scale as f64 * sizing.steps) as usize;
        match self {
            Kind::Stream => {
                let stores = rng.below(2) == 1;
                let arrays = if stores { 2.0 } else { 1.0 };
                stream(
                    name,
                    StreamParams {
                        elems: (footprint / (8.0 * arrays)) as usize,
                        passes: 2,
                        stride: 1,
                        stores,
                        compute_nops: rng.below(3) as usize,
                    },
                )
            }
            Kind::Stencil => {
                let width = 256 + rng.below(385) as usize;
                stencil(
                    name,
                    StencilParams {
                        width,
                        height: ((footprint / (8.0 * width as f64)) as usize).max(4),
                        sweeps: 2,
                    },
                )
            }
            Kind::Spmv => {
                // Half the footprint is the gathered vector, half the
                // streamed index array.
                let nnz = 4 + rng.below(5) as usize;
                let x_elems = ((footprint / 16.0) as usize).next_power_of_two();
                spmv(
                    name,
                    SpmvParams {
                        rows: ((footprint / 2.0 / (8.0 * nnz as f64)) as usize).max(64),
                        nnz,
                        x_elems,
                        passes: 2,
                    },
                )
            }
            Kind::Copy => copy(
                name,
                CopyParams {
                    // Byte-by-byte: eight times a stream's iterations per
                    // byte, so source plus destination span half the
                    // footprint.
                    bytes: (footprint / 4.0) as usize,
                    passes: 2,
                    compute_nops: rng.below(2) as usize,
                },
            ),
            Kind::Control => {
                // A quarter of the programs are hot-only (crafty-like);
                // the rest carry 256..12 288 cold states.
                let cold_states = if u < 0.25 {
                    0
                } else {
                    (256.0 * 48f64.powf((u - 0.25) / 0.75)) as usize
                };
                control(
                    name,
                    ControlParams {
                        hot_states: 16 + rng.below(25) as usize,
                        cold_states,
                        cold_per_16: if cold_states == 0 {
                            0
                        } else {
                            2 + rng.below(11) as usize
                        },
                        steps: steps(50_000),
                        table_slots: 512,
                        work_nops: 8 + rng.below(11) as usize,
                    },
                )
            }
            Kind::GccLike => control(
                name,
                ControlParams {
                    hot_states: 16,
                    cold_states: (2048.0 * 6f64.powf(u)) as usize,
                    cold_per_16: 4 + rng.below(9) as usize,
                    steps: steps(50_000),
                    table_slots: 512,
                    work_nops: 12,
                },
            ),
            Kind::Phases => phases(
                name,
                PhasesParams {
                    sentences: steps(10_000 + (5_000.0 * u) as usize),
                    variants: 8 + rng.below(9) as usize,
                    slots: 2048 << rng.below(2),
                    max_trip: 4 + rng.below(3) as usize,
                },
            ),
            Kind::Hash => hash(
                name,
                HashParams {
                    slots: 1 << (13 + (6.0 * u) as u32),
                    ops: steps(37_500 + rng.below(12_501) as usize),
                    stores: rng.below(2) == 1,
                    compute_nops: 1 + rng.below(2) as usize,
                },
            ),
            Kind::Tree => tree(
                name,
                TreeParams {
                    nodes: (32.0 * 1024.0 * 4f64.powf(u)) as usize,
                    descents: steps(5_000 + rng.below(2_501) as usize),
                    sum_passes: rng.below(2) as usize,
                },
            ),
            Kind::Chase => chase(
                name,
                ChaseParams {
                    nodes: (4.0 * 1024.0 * 4f64.powf(u)) as usize,
                    node_bytes: 64,
                    steps: steps(31_250 + rng.below(18_751) as usize),
                    shuffled: true,
                    payload_loads: 1 + rng.below(2) as usize,
                },
            ),
        }
    }
}

/// The seeded pool of `workload`: the same seed gives the same programs.
pub fn pool(workload: Workload, seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed ^ (workload as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let kinds = workload.kinds();
    let n = workload.pool_size();
    (0..n)
        .map(|i| {
            let (k, j) = (i % kinds.len(), i / kinds.len());
            let slots = (k..n).step_by(kinds.len()).count();
            let kind = kinds[k];
            let u = (j as f64 + 0.5) / slots as f64;
            let slot = format!("{}.{}.{i:02}", workload.name(), kind.name());
            let name = format!("{slot}.s{seed}.{:08x}", rng.next_u64() as u32);
            let mut params = Rng::new((workload as u64) << 32 | i as u64);
            let mut program = kind.build(&name, u, workload.sizing(), &mut params);
            // Stack and static-address noise, as every suite workload has.
            // It is code, not data, so the slot fixes it: the seed's
            // inputs then change what the program reads, not its shape.
            add_abi_noise(&mut program, &slot);
            program
        })
        .collect()
}

/// SplitMix64: a tiny, seedable generator for benchmark parameters.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound > 0; modulo bias is irrelevant here).
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_trace::store::program_key;
    use umi_vm::{NullSink, Vm};

    fn keys(workload: Workload, seed: u64) -> Vec<u128> {
        pool(workload, seed)
            .iter()
            .map(|p| program_key(p).0)
            .collect()
    }

    #[test]
    fn same_seed_same_programs_other_seed_other_programs() {
        for w in Workload::ALL {
            let a = keys(w, 1);
            assert_eq!(a, keys(w, 1), "{}: seed 1 is not reproducible", w.name());
            let b = keys(w, 2);
            assert!(
                a.iter().all(|k| !b.contains(k)),
                "{}: seeds 1 and 2 share a program",
                w.name()
            );
        }
    }

    #[test]
    fn default_and_held_out_pools_verify_and_finish() {
        for w in Workload::ALL {
            for seed in [1, 2] {
                for p in pool(w, seed) {
                    if let Err(errs) = umi_analyze::verify(&p) {
                        panic!("{}: {}", p.name, umi_analyze::render_errors(&errs));
                    }
                    let r = Vm::new(&p).run(&mut NullSink, crate::ops::FUEL);
                    assert!(r.finished, "{} exceeds the fuel cap", p.name);
                }
            }
        }
    }
}
