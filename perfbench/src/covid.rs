//! `covid_surveillance`: the §6 scenario on a durable group-commit
//! server, one open-loop writer and one closed-loop reader connection.

use crate::ops::{self, CovidReader, Op};
use crate::round::{secs_since, Budget, Round};
use crate::serve::{
    ms, open_store, reopen, scalar, serve_with, state_counts, timed, Served, StoreDir,
};
use pg_covid::wire::{self, SACCO_ICU_BEDS};
use pg_server::Client;
use pg_triggers::WalOptions;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Stand the server up: an empty durable store, then the scenario's own
/// wire statements (indexes, seed graph, §6.2 triggers).
pub fn stand_up(dir: &Path) -> Result<Served, String> {
    serve_with(
        open_store(dir, WalOptions::default())?,
        &wire::setup_statements(),
    )
}

/// The reader's pause before each rotation read. It keeps the reader a
/// closed loop that leaves the writer a core: with two cores, a reader that
/// never pauses makes every latency depend on where the scheduler put the
/// four busy threads. An acknowledged discovery ends the pause at once.
pub const READER_THINK: Duration = Duration::from_millis(2);

/// What the writer has told the reader, and the reader's wake-up call.
#[derive(Default)]
struct Shared {
    feed: Mutex<Feed>,
    acked: Condvar,
}

#[derive(Default)]
struct Feed {
    /// Acknowledged discoveries whose alert the reader has not seen yet:
    /// tag and acknowledgement time.
    pending: VecDeque<(u64, Instant)>,
    /// Admissions acknowledged (tags `0..admitted`).
    admitted: u64,
    /// Discoveries acknowledged.
    discovered: u64,
    writer_done: Option<Instant>,
}

/// One round into `r`; an error is a failure the caller records.
pub fn run_round(seed: u64, budget: &Budget, r: &mut Round) -> Result<(), String> {
    let ops = ops::covid_writes(seed, budget.covid_writes);
    let dir = StoreDir::new("covid").map_err(|e| e.to_string())?;
    let t = Instant::now();
    let served = stand_up(dir.path())?;
    let mut writer = served.connect()?;
    let mut reader = served.connect()?;
    r.setup_s = secs_since(t);

    let traced = r.spans.is_some();
    let shared = Shared::default();
    let period = budget.covid_period();
    let start = Instant::now() + Duration::from_millis(20);
    let (w, rd) = std::thread::scope(|s| {
        let w = s.spawn(|| write_feed(&mut writer, &ops, start, period, &shared, traced));
        let rd = s.spawn(|| read_loop(&mut reader, seed, &shared, traced));
        (
            w.join().expect("writer thread panicked"),
            rd.join().expect("reader thread panicked"),
        )
    });
    let elapsed = start.elapsed().as_secs_f64();
    r.absorb(w);
    r.absorb(rd);
    r.throughput_ops_s = (r.writes.len() + r.reads.len()) as f64 / elapsed;
    r.backlog = backlog(&r.lateness_ms, period);

    // End-of-run invariants, on the reader's connection.
    let discovered = shared.feed.lock().expect("feed lock").discovered as i64;
    let orphans = scalar(&mut reader, wire::ORPHANED_PATIENTS_QUERY)?;
    r.check(orphans == 0, || {
        format!("{orphans} orphaned patients at end")
    });
    let sacco = scalar(&mut reader, &wire::treated_at_query("Sacco"))?;
    r.check(sacco <= SACCO_ICU_BEDS, || format!("Sacco holds {sacco}"));
    let alerts = scalar(&mut reader, ops::DISCOVERY_ALERTS_QUERY)?;
    r.check(alerts == discovered, || {
        format!("{alerts} discovery alerts for {discovered} discoveries")
    });
    let before = state_counts(&mut reader)?;

    // Restart without checkpoint: group-commit frames are in the log.
    writer.goodbye().map_err(|e| e.to_string())?;
    reader.goodbye().map_err(|e| e.to_string())?;
    drop(served.stop()?);
    let session = reopen(r, || open_store(dir.path(), WalOptions::default()))?;
    let served = Served::start(session).map_err(|e| format!("bind: {e}"))?;
    let mut check = served.connect()?;
    let after = state_counts(&mut check)?;
    r.check(after == before, || {
        format!("after restart [nodes, rels, alerts] {after:?} != {before:?}")
    });
    check.goodbye().map_err(|e| e.to_string())?;
    drop(served.stop()?);
    Ok(())
}

/// The open-loop writer: op `i` is due at `start + i·period`, sent then
/// or as soon as the previous reply arrives, and timed from its due time.
fn write_feed(
    client: &mut Client,
    ops: &[Op],
    start: Instant,
    period: Duration,
    shared: &Shared,
    traced: bool,
) -> Round {
    let mut r = Round::new(traced);
    let mut tag = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let due = start + period * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        r.lateness_ms.push(ms(sent - due));
        r.attempted += 1;
        let res = client.run_all(&op.text, &[]);
        let done = Instant::now();
        let mut f = shared.feed.lock().expect("feed lock");
        match res {
            Ok(_) => {
                r.record_write(op.kind, ms(done - due), ms(done - sent));
                match op.kind {
                    "admission" => f.admitted += 1,
                    "discovery" => {
                        f.discovered += 1;
                        f.pending.push_back((tag, done));
                        shared.acked.notify_one();
                    }
                    _ => {}
                }
            }
            Err(e) => r.fail(format!("{}: {e}", op.kind)),
        }
        if op.kind == "discovery" {
            tag += 1;
        }
    }
    shared.feed.lock().expect("feed lock").writer_done = Some(Instant::now());
    shared.acked.notify_one();
    r
}

/// The closed-loop reader: probes the alert of the oldest acknowledged
/// discovery it has not seen yet, and otherwise cycles through the
/// surveillance reads with [`READER_THINK`] between them, checking the
/// scenario's invariants in every snapshot it sees. Visibility runs from
/// the writer's acknowledgement (an upper bound on the commit) to the reply
/// of the first probe that shows the alert; every probe of a discovery is
/// sent after its acknowledgement.
fn read_loop(client: &mut Client, seed: u64, shared: &Shared, traced: bool) -> Round {
    let mut r = Round::new(traced);
    let mut rotation = CovidReader::new(seed);
    loop {
        let (probe, admitted, done) = {
            let f = shared.feed.lock().expect("feed lock");
            (f.pending.front().copied(), f.admitted, f.writer_done)
        };
        match (probe, done) {
            (None, Some(_)) => break,
            (Some((tag, _)), Some(at)) if at.elapsed() > Duration::from_secs(10) => {
                r.fail(format!("alert of discovery {tag} never became visible"));
                break;
            }
            _ => {}
        }
        let op = match probe {
            Some((tag, _)) => ops::discovery_probe(tag),
            None => {
                if pause(shared) {
                    continue;
                }
                rotation.next_op(admitted)
            }
        };
        r.attempted += 1;
        let (res, lat) = timed(client, &op.text);
        let seen = Instant::now();
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                r.fail(format!("{}: {e}", op.kind));
                continue;
            }
        };
        r.record_read(op.kind, lat);
        let n = out.single_i64();
        match op.kind {
            "probe" => match n {
                Some(1) => {
                    let (_, acked) = shared
                        .feed
                        .lock()
                        .expect("feed lock")
                        .pending
                        .pop_front()
                        .expect("probed discovery is pending");
                    r.visibility_ms.push(ms(seen - acked));
                }
                Some(0) => {}
                other => r.fail(format!("cascade probe read {other:?}")),
            },
            "orphans" => r.check(n == Some(0), || format!("orphans read {n:?}")),
            "sacco" => r.check(n.is_some_and(|n| n <= SACCO_ICU_BEDS), || {
                format!("Sacco holds {n:?} > {SACCO_ICU_BEDS} beds")
            }),
            "lookup" => r.check(admitted == 0 || out.rows.len() == 1, || {
                format!("admitted patient lookup returned {} rows", out.rows.len())
            }),
            _ => {}
        }
    }
    r
}

/// Wait [`READER_THINK`], or less if a discovery is acknowledged or the
/// writer is done meanwhile; true when a discovery is waiting for its probe.
fn pause(shared: &Shared) -> bool {
    let f = shared.feed.lock().expect("feed lock");
    let (f, _) = shared
        .acked
        .wait_timeout_while(f, READER_THINK, |f| {
            f.pending.is_empty() && f.writer_done.is_none()
        })
        .expect("feed lock");
    !f.pending.is_empty()
}

/// A growing backlog: the generator's median lateness over the last tenth
/// of the run clearly exceeds the first tenth's (by two periods, and
/// twofold). Latencies from such a run measure the queue, not the engine.
pub fn backlog(lateness_ms: &[f64], period: Duration) -> Option<String> {
    let tenth = lateness_ms.len() / 10;
    if tenth == 0 {
        return None;
    }
    let first = crate::stats::median(&lateness_ms[..tenth])?;
    let last = crate::stats::median(&lateness_ms[lateness_ms.len() - tenth..])?;
    let period_ms = ms(period);
    (last > first + 2.0 * period_ms && last > 2.0 * first).then(|| {
        format!(
            "writer backlog: median lateness {last:.3} ms in the last tenth vs \
             {first:.3} ms in the first (period {period_ms:.3} ms)"
        )
    })
}
