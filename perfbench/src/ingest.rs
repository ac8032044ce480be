//! `durable_ingest`: one closed-loop writer on a durable `SyncPolicy::Always`
//! server whose writes, batches of mutations, fire only §6.2.1
//! `NewCriticalMutation`; then a restart without checkpoint and a read-back
//! of every acknowledged batch. After each write, the same client asks a
//! second connection whether the write it just had acknowledged is visible.

use crate::ops::{self, Op, INGEST_BATCH};
use crate::round::{secs_since, Budget, Round};
use crate::serve::{ms, open_store, reopen, serve_with, state_counts, timed, Served, StoreDir};
use pg_server::Client;
use pg_triggers::{SyncPolicy, WalOptions};
use std::path::Path;
use std::time::{Duration, Instant};

pub fn wal_options() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        ..WalOptions::default()
    }
}

pub fn stand_up(dir: &Path) -> Result<Served, String> {
    serve_with(
        open_store(dir, wal_options())?,
        &ops::ingest_setup_statements(),
    )
}

/// One round into `r`; an error is a failure the caller records.
pub fn run_round(seed: u64, budget: &Budget, r: &mut Round) -> Result<(), String> {
    let ops = ops::ingest_writes(seed, budget.ingest_writes);
    let dir = StoreDir::new("ingest").map_err(|e| e.to_string())?;
    let t = Instant::now();
    let served = stand_up(dir.path())?;
    let mut writer = served.connect()?;
    let mut follower = served.connect()?;
    r.setup_s = secs_since(t);

    let start = Instant::now();
    let acked = write_loop(&mut writer, &mut follower, &ops, r);
    r.throughput_ops_s = r.writes.len() as f64 / start.elapsed().as_secs_f64();
    let before = state_counts(&mut writer)?;

    // Drop without checkpoint, reopen, and read every acknowledged batch.
    writer.goodbye().map_err(|e| e.to_string())?;
    follower.goodbye().map_err(|e| e.to_string())?;
    drop(served.stop()?);
    let session = reopen(r, || open_store(dir.path(), wal_options()))?;
    let served = Served::start(session).map_err(|e| format!("bind: {e}"))?;
    let mut check = served.connect()?;
    let after = state_counts(&mut check)?;
    r.check(after == before, || {
        format!("after restart [nodes, rels, alerts] {after:?} != {before:?}")
    });
    for prefix in &acked {
        let op = ops::batch_lookup(prefix);
        r.attempted += 1;
        let (res, lat) = timed(&mut check, &op.text);
        match res {
            Ok(out) => {
                r.record_read(op.kind, lat);
                let n = out.single_i64();
                r.check(n == Some(INGEST_BATCH as i64), || {
                    format!("acknowledged batch {prefix} reads {n:?} after restart")
                });
            }
            Err(e) => r.fail(format!("{prefix}: {e}")),
        }
    }
    check.goodbye().map_err(|e| e.to_string())?;
    drop(served.stop()?);
    Ok(())
}

/// The closed-loop writer. After each acknowledgement it polls the batch
/// on the follower connection until a snapshot shows all of it: visibility
/// runs from the acknowledgement to that reply. One thread drives both
/// connections, so no thread wake-up sits between the two. Returns the
/// acknowledged batches' name prefixes.
fn write_loop<'a>(
    writer: &mut Client,
    follower: &mut Client,
    ops: &'a [(Op, String)],
    r: &mut Round,
) -> Vec<&'a str> {
    let mut acked = Vec::with_capacity(ops.len());
    for (op, prefix) in ops {
        let sent = Instant::now();
        r.attempted += 1;
        match writer.run_all(&op.text, &[]) {
            Ok(_) => {
                let done = Instant::now();
                let lat = ms(done - sent);
                r.record_write(op.kind, lat, lat);
                acked.push(prefix.as_str());
                follow(follower, prefix, done, r);
            }
            Err(e) => r.fail(format!("{}: {e}", op.kind)),
        }
    }
    acked
}

/// Poll the batch named `prefix` on the follower connection until all of
/// it shows; the follower's polls are not counted as reads.
fn follow(client: &mut Client, prefix: &str, acked: Instant, r: &mut Round) {
    let probe = ops::batch_lookup(prefix);
    loop {
        r.attempted += 1;
        let (res, _) = timed(client, &probe.text);
        match res {
            Ok(out) if out.single_i64() == Some(INGEST_BATCH as i64) => {
                r.visibility_ms.push(ms(acked.elapsed()));
                return;
            }
            Ok(_) if acked.elapsed() > Duration::from_secs(10) => {
                return r.fail(format!("write of {prefix} never became visible"));
            }
            Ok(_) => {}
            Err(e) => return r.fail(format!("follow {prefix}: {e}")),
        }
    }
}
