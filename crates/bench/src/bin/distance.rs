//! Prefetch-distance sweep (§8: "the performance of ft ... was very
//! sensitive to the choice of prefetch distances. It turns out that UMI
//! was able to pick a prefetch distance that is closer to the optimal
//! prefetching distance compared to the hardware prefetcher").
//!
//! One introspection pass per workload, with a prefetch-off P4 machine
//! as its sink: the report plans every distance, and the machine's
//! counters are the native baseline (the DBI forwards the exact native
//! stream, as in the study harness). Only each distance's rewrite runs
//! again.

use umi_bench::scale_from_env;
use umi_core::{introspect_cached, UmiConfig};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_prefetch::harness::{run_umi, RunOutcome};
use umi_prefetch::{inject_prefetches, PrefetchPlan};
use umi_workloads::build;

fn main() {
    let scale = scale_from_env();
    println!("Prefetch-distance sweep (normalized running time, P4, HW prefetch off)");
    print!("{:<12}", "workload");
    let distances = [2i64, 4, 8, 16, 32, 64, 128];
    for d in distances {
        print!(" {d:>7}");
    }
    println!();
    let config = UmiConfig::no_sampling();
    let mut footnotes = Vec::new();
    for name in ["ft", "179.art", "470.lbm", "171.swim"] {
        let program = build(name, scale).expect("known workload");
        let mut machine = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
        let report = introspect_cached(&program, &config, &[], &mut machine).report;
        let insns = report.vm_stats.insns;
        let native = RunOutcome {
            cycles: machine.total_cycles(insns),
            counters: machine.counters(),
            insns,
        };
        print!("{name:<12}");
        let mut row = Vec::new();
        for d in distances {
            let optimized = inject_prefetches(&program, &PrefetchPlan::from_report(&report, d));
            let (opt, _) = run_umi(
                &optimized,
                config.clone(),
                Platform::pentium4(),
                PrefetchSetting::Off,
            );
            let time = opt.relative_to(&native);
            print!(" {time:>7.3}");
            row.push(time);
        }
        println!();
        let min = row.iter().copied().fold(f64::INFINITY, f64::min);
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let best = distances[row
            .iter()
            .position(|&t| t == min)
            .expect("min is a row value")];
        footnotes.push(format!(
            "{name}: best distance {best} ({min:.3}), spread {:.3}",
            max - min
        ));
    }
    println!();
    for line in footnotes {
        println!("{line}");
    }
}
