//! The run header, the per-metric table and the one-line JSON result.

use crate::round::{Budget, Round};
use crate::stats::{median, percentile, quartiles};
use crate::Workload;
use std::fmt::Write as _;
use std::path::Path;

/// What a run hands to the printer.
pub struct Outcome {
    pub rounds: Vec<Round>,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    /// Extra header lines.
    pub detail: Vec<String>,
}

/// One reported metric: its value, and the per-round values the header's
/// median and quartiles are taken over.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub per_round: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, per_round: Vec<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            per_round,
        }
    }
}

/// How a metric's value is taken from its per-round values.
type Summary = fn(&[f64]) -> Option<f64>;

/// The end-to-end metrics of a set of rounds: each is the round's own
/// value (a latency percentile over the round's samples, its throughput,
/// its fastest reopen) from the run's best round. Every round does the
/// same work, so a change to the program moves every round, the best one
/// too; the shared machine only ever slows a round, and in phases of a
/// few seconds, so the best of many short rounds is the program's cost
/// with the least of the machine's noise. Set-up is the median over every
/// set-up of the run.
pub fn end_to_end(rounds: &[Round], setups: &[f64], missing: &mut Vec<String>) -> Vec<Metric> {
    let pct = |p: f64, pick: fn(&Round) -> Vec<f64>| -> Vec<f64> {
        rounds
            .iter()
            .filter_map(|r| percentile(&pick(r), p))
            .collect()
    };
    let writes = |r: &Round| r.writes.iter().map(|s| s.ms).collect();
    let reads = |r: &Round| r.reads.iter().map(|s| s.ms).collect();
    let visibility = |r: &Round| r.visibility_ms.clone();
    let per_round = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let lowest = |v: &[f64]| v.iter().copied().reduce(f64::min);
    let highest = |v: &[f64]| v.iter().copied().reduce(f64::max);
    let rss = crate::serve::peak_rss_mb();
    let metrics: [(&str, &'static str, Vec<f64>, Summary); 8] = [
        ("setup_s", "s", setups.to_vec(), median),
        ("write_p50_ms", "ms", pct(50.0, writes), lowest),
        ("write_p99_ms", "ms", pct(99.0, writes), lowest),
        ("read_p50_ms", "ms", pct(50.0, reads), lowest),
        ("read_p99_ms", "ms", pct(99.0, reads), lowest),
        ("visibility_p50_ms", "ms", pct(50.0, visibility), lowest),
        (
            "throughput_ops_s",
            "1/s",
            per_round(|r| r.throughput_ops_s),
            highest,
        ),
        ("recovery_s", "s", per_round(|r| r.recovery_s), lowest),
    ];
    let mut out: Vec<Metric> = metrics
        .into_iter()
        .map(|(name, unit, values, summary)| {
            let value = summary(&values).unwrap_or_else(|| {
                missing.push(name.to_string());
                0.0
            });
            Metric::new(name, unit, value, values)
        })
        .collect();
    out.push(Metric::new("rss_mb", "MiB", rss, vec![rss]));
    out
}

/// Samples per op kind, for the header: (kind, count, p50, p99).
pub fn per_kind(samples: &[crate::round::Sample]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut kinds: Vec<&'static str> = samples.iter().map(|s| s.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    kinds
        .into_iter()
        .map(|k| {
            let v: Vec<f64> = samples
                .iter()
                .filter(|s| s.kind == k)
                .map(|s| s.ms)
                .collect();
            (
                k,
                v.len(),
                percentile(&v, 50.0).unwrap_or(0.0),
                percentile(&v, 99.0).unwrap_or(0.0),
            )
        })
        .collect()
}

/// The commit the checkout was made from, read from `.git` without running
/// git; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The run header: machine, seed, budgets, policy, build, repeats.
pub fn header(
    workload: Workload,
    seed: u64,
    budget: &Budget,
    traced: bool,
    repeats: usize,
) -> Vec<String> {
    let budget_line = match workload {
        Workload::CovidSurveillance => format!(
            "{} writes/round, open loop at {} writes/s; reader closed loop, {} ms think",
            budget.covid_writes,
            budget.covid_rate,
            crate::covid::READER_THINK.as_secs_f64() * 1e3
        ),
        Workload::DurableIngest => format!(
            "{} writes/round of {} mutations each, closed loop; visibility polled after each write",
            budget.ingest_writes,
            crate::ops::INGEST_BATCH,
        ),
    };
    vec![
        format!(
            "workload {}  seed {seed}  mode {}",
            workload.name(),
            if traced { "traced" } else { "untraced" }
        ),
        format!("cores {}  build {}", cores(), build_profile()),
        format!("git commit {}", git_commit()),
        format!("op budget: {budget_line}"),
        format!("sync policy: {}", workload.sync_policy()),
        format!("repeats (rounds): {repeats}"),
    ]
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// One table line per metric: value, then the quartiles of the values it
/// is taken from (one per round; one per set-up for `setup_s`).
pub fn table(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            let (q1, q3) = quartiles(&m.per_round).unwrap_or((m.value, m.value));
            format!(
                "{:<34} {:>14.4} {:<6} [q1 {:.4}, q3 {:.4}] of {} values",
                m.name,
                m.value,
                m.unit,
                q1,
                q3,
                m.per_round.len()
            )
        })
        .collect()
}

/// The last line of the output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            number(value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with all its digits (`1` prints as `1.0`).
pub fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
