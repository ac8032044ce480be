//! Standing servers up and tearing them down inside the benchmark process,
//! plus the directories their durable stores live in.

use pg_server::{Client, ClientError, Engine, QueryResult, Server, ServerHandle};
use pg_triggers::{EngineConfig, Session, WalOptions};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A server serving one session on an ephemeral localhost port.
pub struct Served {
    handle: ServerHandle,
    engine: Arc<Engine>,
}

impl Served {
    pub fn start(session: Session) -> std::io::Result<Served> {
        let server = Server::bind("127.0.0.1:0", session)?;
        let engine = Arc::clone(server.engine());
        Ok(Served {
            handle: server.spawn(),
            engine,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Stop accepting, wait until every connection handler has released
    /// the engine (clients must have said GOODBYE), and hand back the
    /// writer session. A durable session is returned as it is: dropping
    /// it without `close_durable` is a restart without checkpoint.
    pub fn stop(self) -> Result<Session, String> {
        self.handle.shutdown();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut engine = self.engine;
        loop {
            match Arc::try_unwrap(engine) {
                Ok(e) => return Ok(e.into_session()),
                Err(shared) if Instant::now() < deadline => {
                    engine = shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return Err("connection handlers still hold the engine".into()),
            }
        }
    }
}

/// Open (or reopen) the durable store in `dir`.
pub fn open_store(dir: &Path, wal: WalOptions) -> Result<Session, String> {
    Session::open_durable(dir, EngineConfig::default(), wal)
        .map(|(session, _)| session)
        .map_err(|e| format!("open durable store: {e}"))
}

/// Serve `session` and run `statements` on it over the wire, as a client
/// standing the workload up would.
pub fn serve_with(session: Session, statements: &[String]) -> Result<Served, String> {
    let served = Served::start(session).map_err(|e| format!("bind: {e}"))?;
    let mut setup = served.connect()?;
    for stmt in statements {
        setup
            .run_all(stmt, &[])
            .map_err(|e| format!("setup `{stmt}`: {e}"))?;
    }
    setup.goodbye().map_err(|e| e.to_string())?;
    Ok(served)
}

/// One set-up on its own (stand up in a fresh store directory, tear
/// down), timed in seconds.
pub fn setup_trial(
    tag: &str,
    stand_up: impl FnOnce(&Path) -> Result<Served, String>,
) -> Result<f64, String> {
    let dir = StoreDir::new(tag).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let served = stand_up(dir.path())?;
    let s = t.elapsed().as_secs_f64();
    drop(served.stop()?);
    Ok(s)
}

/// Run one statement to completion; returns the result and its latency
/// in milliseconds.
pub fn timed(client: &mut Client, text: &str) -> (Result<QueryResult, ClientError>, f64) {
    let t = Instant::now();
    let r = client.run_all(text, &[]);
    (r, ms(t.elapsed()))
}

/// One statement whose single integer answer is needed.
pub fn scalar(client: &mut Client, text: &str) -> Result<i64, String> {
    client
        .run_all(text, &[])
        .map_err(|e| format!("{text}: {e}"))?
        .single_i64()
        .ok_or_else(|| format!("{text}: no integer answer"))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Back-to-back reopens of a store per round.
pub const RECOVERY_TRIALS: usize = 15;

/// Reopen a dropped store [`RECOVERY_TRIALS`] times (each reopen replays
/// the same log), record the fastest as the round's `recovery_s`, and keep
/// the last session. One reopen of a round's log takes a few milliseconds,
/// and how long it takes swings with the machine by half: the fastest of
/// many is the replay's own cost.
pub fn reopen(
    round: &mut crate::Round,
    mut open: impl FnMut() -> Result<Session, String>,
) -> Result<Session, String> {
    let mut times = Vec::with_capacity(RECOVERY_TRIALS);
    let mut last = None;
    for _ in 0..RECOVERY_TRIALS {
        drop(last.take());
        let t = Instant::now();
        last = Some(open()?);
        times.push(t.elapsed().as_secs_f64());
    }
    round.recovery_s = times.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(last.expect("at least one reopen"))
}

/// Node, relationship and alert counts of the served graph.
pub fn state_counts(client: &mut Client) -> Result<[i64; 3], String> {
    Ok([
        scalar(client, "MATCH (n) RETURN count(*) AS n")?,
        scalar(client, "MATCH ()-[r]->() RETURN count(r) AS n")?,
        scalar(client, "MATCH (a:Alert) RETURN count(*) AS n")?,
    ])
}

/// Where the benchmark writes: durable stores while a run lasts, and the
/// span and report files it leaves behind.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty directory for one durable store, removed on drop.
pub struct StoreDir(PathBuf);

impl StoreDir {
    pub fn new(tag: &str) -> std::io::Result<StoreDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("stores")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(StoreDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
