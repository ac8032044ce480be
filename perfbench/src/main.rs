//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): repeats op-budgeted wire rounds of the workload
//! for about `--seconds`, then prints the run header, one line per
//! end-to-end metric and, last, the JSON result line.
//!
//! Traced (`--trace 1`): one wire round with client-side spans, then the
//! in-process replay of the same op sequence with spans around each
//! crate's entry points and, for the tracing overhead, on an untraced
//! twin; prints the per-layer metrics. Spans and the full per-kind
//! breakdown go to `out/` in this package's directory.
//!
//! Exits 1 when any answer or invariant check fails, or when the open-loop
//! writer's lateness grew over the run (a backlog: the run is invalid).

use perfbench::report;
use perfbench::{trace, Budget, Round, Workload};
use std::time::Instant;

/// Set-ups per run at least (rounds plus stand-alone set-ups), so set-up
/// time is a median of many samples: one set-up takes a few milliseconds.
const MIN_SETUPS: usize = 41;

/// Stand-alone set-ups after each round. Spread over the whole run, they
/// sample set-up time across the machine's slow and fast stretches rather
/// than in one of them.
const SETUPS_PER_ROUND: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 50.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Let every thread allocate from one malloc arena. With glibc's default,
/// how many arenas the process ends up with depends on which threads
/// happened to contend for the allocator, and peak memory (`rss_mb`) swung
/// between runs of the same code by a fifth. One arena makes it the
/// program's own footprint.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: glibc's `mallopt` takes two ints; it runs before any other
    // thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Budget::standard();
    let outcome = if args.trace {
        trace::run(args.workload, args.seed, &budget)
    } else {
        untraced(&args, &budget)
    };
    std::process::exit(finish(&args, &budget, outcome));
}

fn untraced(args: &Args, budget: &Budget) -> report::Outcome {
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut problems = Vec::new();
    let setup_trials = |n: usize, setups: &mut Vec<f64>, problems: &mut Vec<String>| {
        for _ in 0..n {
            if !problems.is_empty() {
                return;
            }
            match args.workload.setup_trial() {
                Ok(s) => setups.push(s),
                Err(e) => problems.push(e),
            }
        }
    };
    loop {
        let round = args.workload.round(args.seed, budget, false);
        setups.push(round.setup_s);
        rounds.push(round);
        setup_trials(SETUPS_PER_ROUND, &mut setups, &mut problems);
        let per_round = started.elapsed().as_secs_f64() / rounds.len() as f64;
        if started.elapsed().as_secs_f64() + per_round > args.seconds {
            break;
        }
    }
    let short = MIN_SETUPS.saturating_sub(setups.len());
    setup_trials(short, &mut setups, &mut problems);
    let mut missing = Vec::new();
    let metrics = report::end_to_end(&rounds, &setups, &mut missing);
    problems.extend(missing.into_iter().map(|m| format!("no samples for {m}")));
    report::Outcome {
        rounds,
        metrics,
        problems,
        detail: Vec::new(),
    }
}

fn finish(args: &Args, budget: &Budget, out: report::Outcome) -> i32 {
    let header = report::header(
        args.workload,
        args.seed,
        budget,
        args.trace,
        out.rounds.len(),
    );
    let mut problems = out.problems;
    let mut attempted = 0;
    let mut failed = problems.len() as u64;
    for r in &out.rounds {
        attempted += r.attempted;
        failed += r.failed;
        problems.extend(r.problems.iter().cloned());
    }
    let lateness: Vec<f64> = out
        .rounds
        .iter()
        .flat_map(|r| r.lateness_ms.iter().copied())
        .collect();
    let mut lines: Vec<String> = header;
    for (i, r) in out.rounds.iter().enumerate() {
        if let Some(why) = &r.backlog {
            lines.push(format!("round {i} fell behind: {why}"));
        }
    }
    // Lateness over the whole run, rounds in order: when it grows from the
    // first tenth to the last, the engine cannot keep up with the rate and
    // every latency measures the queue.
    if let Some(why) = perfbench::covid::backlog(&lateness, budget.covid_period()) {
        failed += 1;
        problems.push(format!("invalid run: {why}"));
    }
    if !lateness.is_empty() {
        lines.push(format!(
            "generator lateness: p50 {:.4} ms, p99 {:.4} ms over {} writes",
            perfbench::stats::percentile(&lateness, 50.0).unwrap_or(0.0),
            perfbench::stats::percentile(&lateness, 99.0).unwrap_or(0.0),
            lateness.len()
        ));
    }
    let writes: Vec<_> = out.rounds.iter().flat_map(|r| r.writes.clone()).collect();
    let reads: Vec<_> = out.rounds.iter().flat_map(|r| r.reads.clone()).collect();
    for (what, samples) in [("write", &writes), ("read", &reads)] {
        for (kind, n, p50, p99) in report::per_kind(samples) {
            lines.push(format!(
                "{what} {kind:<14} n={n:<6} p50 {p50:.4} ms  p99 {p99:.4} ms"
            ));
        }
    }
    lines.extend(out.detail.iter().cloned());
    lines.extend(report::table(&out.metrics));
    lines.push(format!(
        "ops and checks attempted {attempted}, failed {failed} (failed_frac {:.6})",
        failed as f64 / attempted.max(1) as f64
    ));
    for p in problems.iter().take(12) {
        lines.push(format!("FAILED: {p}"));
    }
    for l in &lines {
        println!("# {l}");
    }
    let correct = failed == 0;
    let result = report::result_line(correct, attempted, failed, &out.metrics);
    let file = perfbench::serve::out_dir().join(format!(
        "{}-seed{}-{}.txt",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    ));
    let _ = std::fs::create_dir_all(perfbench::serve::out_dir());
    let mut text: String = lines.iter().map(|l| format!("# {l}\n")).collect();
    text.push_str(&result);
    text.push('\n');
    let _ = std::fs::write(file, text);
    println!("{result}");
    if correct {
        0
    } else {
        1
    }
}
