//! The per-harness throughput record: `results/BENCH_pipeline.json`.
//!
//! Every harness binary finishes by recording its per-cell simulated
//! instruction throughput and total wall-clock here (via
//! [`crate::engine::Harness::finish`]), relative to its working
//! directory. The file is a single JSON object with one entry per
//! harness; a run replaces its own entry and leaves the others in place,
//! so a full sweep of the binaries accumulates the complete matrix. It
//! holds the latest run of each harness on the host that made it, not a
//! history: comparisons between revisions need interleaved runs on one
//! host (README, "Performance"). Stdout of the harnesses is reserved for
//! the paper tables/figures and never changes with this reporting.
//!
//! No JSON dependency is available offline, so the writer emits the
//! format by hand and re-reads it with a small brace-matching scanner.
//! The scanner only needs to understand files this module wrote; if the
//! file was edited into something it cannot parse, the stale entries are
//! dropped rather than corrupted further.

use crate::engine::CellStat;
use crate::scale_name;
use umi_workloads::Scale;

fn mips(insns: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    insns as f64 / seconds / 1.0e6
}

/// Serializes one harness entry (the value object only, no name key).
fn entry_json(scale: Scale, jobs: usize, wall: f64, stats: &[CellStat]) -> String {
    let total_insns: u64 = stats.iter().map(|s| s.insns).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("      \"scale\": \"{}\",\n", scale_name(scale)));
    out.push_str(&format!("      \"jobs\": {jobs},\n"));
    out.push_str(&format!("      \"wall_seconds\": {wall:.3},\n"));
    out.push_str(&format!("      \"total_insns\": {total_insns},\n"));
    out.push_str(&format!(
        "      \"minsns_per_sec\": {:.2},\n",
        mips(total_insns, wall)
    ));
    out.push_str("      \"cells\": [\n");
    for (i, s) in stats.iter().enumerate() {
        let comma = if i + 1 < stats.len() { "," } else { "" };
        out.push_str(&format!(
            "        {{\"label\": \"{}\", \"seconds\": {:.3}, \"insns\": {}, \"minsns_per_sec\": {:.2}}}{comma}\n",
            s.label, s.seconds, s.insns,
            mips(s.insns, s.seconds)
        ));
    }
    out.push_str("      ]\n");
    out.push_str("    }");
    out
}

/// Extracts `(name, raw value text)` pairs from the `"harnesses"` object
/// of a previously written report. Returns `None` on anything the writer
/// would not have produced.
fn parse_entries(text: &str) -> Option<Vec<(String, String)>> {
    let start = text.find("\"harnesses\": {")?;
    let mut rest = &text[start + "\"harnesses\": {".len()..];
    let mut entries = Vec::new();
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        if let Some(r) = rest.strip_prefix('}') {
            let _ = r;
            return Some(entries);
        }
        let r = rest.strip_prefix('"')?;
        let name_end = r.find('"')?;
        let name = &r[..name_end];
        let r = r[name_end + 1..].trim_start().strip_prefix(':')?;
        let r = r.trim_start();
        if !r.starts_with('{') {
            return None;
        }
        // Brace-match the value object. The writer never emits braces
        // inside strings (labels are workload names and setting tags),
        // so plain depth counting is sound here.
        let mut depth = 0usize;
        let mut end = None;
        for (i, c) in r.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        let end = end?;
        entries.push((name.to_string(), r[..end].to_string()));
        rest = &r[end..];
    }
}

fn render(entries: &[(String, String)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"simulated-instruction throughput per umi-bench harness; each binary rewrites its own entry on every run\",\n",
    );
    out.push_str("  \"harnesses\": {\n");
    for (i, (name, body)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {body}{comma}\n"));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Replaces (or adds) `name`'s entry in `results/BENCH_pipeline.json`.
///
/// Best-effort: failures land on stderr, never on stdout and never as a
/// panic — a missing or read-only `results/` must not fail a harness.
pub fn record(name: &str, scale: Scale, jobs: usize, wall: f64, stats: &[CellStat]) {
    record_raw(name, entry_json(scale, jobs, wall, stats));
}

/// Replaces (or adds) `name`'s entry with a caller-built value object.
///
/// The body must be a brace-balanced JSON object with no braces inside
/// string literals (the constraint of the scanner above). Used by
/// non-harness reporters like `trace_stat`, which measure something
/// other than per-cell throughput.
pub fn record_raw(name: &str, body: String) {
    let path = std::path::Path::new("results").join("BENCH_pipeline.json");
    let mut entries = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse_entries(&text))
        .unwrap_or_default();
    match entries.iter_mut().find(|(n, _)| n == name) {
        Some(slot) => slot.1 = body,
        None => entries.push((name.to_string(), body)),
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let rendered = render(&entries);
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, rendered));
    if let Err(e) = write {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(label: &str, seconds: f64, insns: u64) -> CellStat {
        CellStat {
            label: label.to_string(),
            seconds,
            insns,
        }
    }

    #[test]
    fn entry_round_trips_through_scanner() {
        let stats = vec![
            stat("164.gzip", 0.5, 1_000_000),
            stat("181.mcf", 1.25, 2_000_000),
        ];
        let body = entry_json(Scale::Test, 4, 1.75, &stats);
        let file = render(&[("fig3".to_string(), body.clone())]);
        let parsed = parse_entries(&file).expect("own output must parse");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "fig3");
        assert_eq!(parsed[0].1, body);
    }

    #[test]
    fn multiple_entries_survive_a_rewrite() {
        let a = entry_json(Scale::Test, 1, 2.0, &[stat("a", 1.0, 10)]);
        let b = entry_json(Scale::Bench, 2, 3.0, &[stat("b", 1.5, 20)]);
        let file = render(&[("table4".into(), a.clone()), ("table6".into(), b.clone())]);
        let parsed = parse_entries(&file).expect("parses");
        assert_eq!(
            parsed,
            vec![("table4".to_string(), a), ("table6".to_string(), b)]
        );
    }

    #[test]
    fn garbage_is_rejected_not_misparsed() {
        assert_eq!(parse_entries("not json at all"), None);
        assert_eq!(parse_entries("{\"harnesses\": {\"x\": 3}}"), None);
        // An empty harness map is fine.
        assert_eq!(parse_entries("{\"harnesses\": {}}"), Some(Vec::new()));
    }

    #[test]
    fn throughput_math() {
        assert_eq!(mips(2_000_000, 2.0), 1.0);
        assert_eq!(mips(1, 0.0), 0.0);
    }
}
