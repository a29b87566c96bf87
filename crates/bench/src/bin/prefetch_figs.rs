//! Figures 3–6 (§8): software prefetching driven by UMI, one section per
//! figure, separated by blank lines. Two study passes feed all four: the
//! Pentium 4 pass (Figures 3, 5 and 6; the platform has HW prefetchers,
//! so its rows carry the prefetch-on variants) and the K7 pass
//! (Figure 4).

use umi_bench::engine::Harness;
use umi_bench::study::{prefetch_cells_for, PrefetchRow};
use umi_bench::{geomean, mean, sampled_config, scale_from_env};
use umi_hw::Platform;
use umi_prefetch::harness::RunOutcome;
use umi_workloads::all32;

/// Figures 3 and 4: UMI alone and UMI + SW prefetch with HW prefetch
/// off, normalized to native. Prints the header and one line per row
/// (with the plan size when `planned`) and returns the geomean line.
fn running_time_off(rows: &[PrefetchRow], planned: bool) -> String {
    let header = format!(
        "{:<14} {:>10} {:>14}",
        "benchmark", "UMI only", "UMI+SW prefetch"
    );
    if planned {
        println!("{header} {:>8}", "planned");
    } else {
        println!("{header}");
    }
    let (mut only, mut sw) = (Vec::new(), Vec::new());
    for r in rows {
        let a = r.umi_only_off.relative_to(&r.native_off);
        let b = r.umi_sw_off.relative_to(&r.native_off);
        let line = format!("{:<14} {:>10.3} {:>14.3}", r.spec.name, a, b);
        if planned {
            println!("{line} {:>8}", r.planned);
        } else {
            println!("{line}");
        }
        only.push(a);
        sw.push(b);
    }
    format!(
        "geomean normalized time: UMI only {:.3}, UMI+SW {:.3}",
        geomean(&only),
        geomean(&sw)
    )
}

/// Figures 5 and 6: the SW, HW and SW+HW bars of the Pentium 4 rows,
/// each `measure`d against native with no prefetching. Prints the
/// header and one line per row and returns the three columns.
fn sw_hw_bars(
    rows: &[PrefetchRow],
    labels: [&str; 3],
    measure: impl Fn(&RunOutcome, &RunOutcome) -> f64,
) -> [Vec<f64>; 3] {
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "benchmark", labels[0], labels[1], labels[2]
    );
    let hw = |run: Option<RunOutcome>| run.expect("the Pentium 4 rows carry the HW variants");
    let mut cols: [Vec<f64>; 3] = Default::default();
    for r in rows {
        let bars = [r.umi_sw_off, hw(r.native_hw), hw(r.umi_sw_hw)]
            .map(|run| measure(&run, &r.native_off));
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>10.3}",
            r.spec.name, bars[0], bars[1], bars[2]
        );
        for (col, bar) in cols.iter_mut().zip(bars) {
            col.push(bar);
        }
    }
    cols
}

fn main() {
    let scale = scale_from_env();
    let mut harness = Harness::new("prefetch_figs", scale);
    let (suite, config, jobs) = (all32(), sampled_config(scale), harness.jobs());
    let mut study = |platform: Platform| {
        let (rows, stats) = prefetch_cells_for(&suite, scale, &platform, &config, jobs);
        harness.absorb(stats);
        rows
    };
    let p4 = study(Platform::pentium4());
    let k7 = study(Platform::k7());

    println!("Figure 3 — Running time on Pentium 4, HW prefetch disabled");
    let geomeans = running_time_off(&p4, true);
    println!(
        "\n{} workloads with prefetching opportunities (paper: 11 of 32)",
        p4.len()
    );
    println!("{geomeans}");
    println!("(paper: 11% average improvement; 64% best case, ft)");

    println!("\nFigure 4 — Running time on AMD K7");
    let geomeans = running_time_off(&k7, false);
    println!("\n{geomeans}");
    println!("(paper: 11% average improvement on both processors)");

    println!("\nFigure 5 — Running time on Pentium 4, normalized to native (no prefetch)");
    let [sw, hw, both] = sw_hw_bars(&p4, ["UMI+SW", "HW", "UMI+SW+HW"], RunOutcome::relative_to);
    println!(
        "\ngeomean: SW {:.3}  HW {:.3}  SW+HW {:.3}",
        geomean(&sw),
        geomean(&hw),
        geomean(&both)
    );
    println!("(paper: software prefetching is competitive with the P4 hardware");
    println!(" prefetcher; combining them does NOT yield cumulative time gains)");

    println!("\nFigure 6 — L2 misses on Pentium 4, normalized to native (no prefetch)");
    let [sw, hw, both] = sw_hw_bars(&p4, ["SW", "HW", "SW+HW"], |run, native| {
        run.counters.l2_misses as f64 / native.counters.l2_misses.max(1) as f64
    });
    println!(
        "\nmean normalized misses: SW {:.3}  HW {:.3}  SW+HW {:.3}",
        mean(&sw),
        mean(&hw),
        mean(&both)
    );
    println!("(paper: SW 0.71, HW 0.69, SW+HW 0.62 — the combination removes");
    println!(" the most misses even though it does not run fastest)");
    harness.finish();
}
