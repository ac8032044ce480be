//! The traced run: per-layer numbers.
//!
//! One wire round gives the end-to-end latencies per op kind, with a
//! client-side span around every wire call. Then the round's exact seeded
//! op sequence is replayed in process, with a span around each call into a
//! crate's public entry points:
//!
//! * `cypher.parse` (`parse_query`), `cypher.plan` (`lower_query` on the
//!   pinned snapshot), `cypher.read_exec` (`run_read_only` with the
//!   pre-parsed query) — pg-cypher;
//! * `graph.refresh` (`ReadSession::refresh`) and the snapshot's index
//!   probe counters — pg-graph;
//! * `triggers.execute` (`Session::execute`) with `EngineStats` deltas,
//!   and the same statement on a twin whose triggers are disabled with
//!   `set_trigger_enabled` (`triggers.execute_untriggered`) — pg-triggers;
//! * `wal.flush` (`Session::wal_flush`), WAL bytes per commit, the same
//!   statement on an in-memory twin (`wal.in_memory_execute`), and the
//!   reopen of the store after the run — pg-wal;
//! * `server.in_process_read` (`ReadSession::run`): what the server does
//!   for a read, minus the wire.
//!
//! The tracing overhead is measured where the spans are: a fourth twin runs
//! every replayed op through the same code path with its tracer off, timed
//! as a whole (`trace.untraced_write`, `trace.untraced_read`), next to the
//! traced op's own span (`op.write`, `op.read`).
//!
//! Spans stay in memory and are written to `out/` when the run ends.

use crate::ops::{self, CovidReader, Op};
use crate::report::{Metric, Outcome};
use crate::round::{Budget, Round, Sample};
use crate::serve::{open_store, out_dir, Served, StoreDir};
use crate::stats::{median, percentile};
use crate::{ingest, Workload};
use pg_covid::wire;
use pg_cypher::expr::EvalCtx;
use pg_cypher::{lower_query, parse_query, run_read_only, Params};
use pg_triggers::{EngineConfig, ReadSession, Session, WalOptions};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The writer flushes its WAL every this many replayed writes.
const FLUSH_EVERY: u64 = 16;
/// Wire/in-process pairs per op kind when pricing the wire.
const WIRE_PAIRS: u64 = 30;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

fn ns(t: Instant) -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// One timed call: name, op kind, request id, the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub kind: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn new(
        name: &'static str,
        kind: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            name,
            kind,
            req,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        }
    }

    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span recorder. One that is off records nothing and only
/// makes the calls, so the same code path can run untraced.
#[derive(Debug)]
pub struct Tracer {
    pub spans: Vec<Span>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            spans: Vec::new(),
            on: true,
        }
    }
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            spans: Vec::new(),
            on: false,
        }
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        kind: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans
            .push(Span::new(name, kind, req, parent, start, end));
        out
    }

    /// Open a parent span; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, kind: &'static str, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        self.spans.push(Span::new(name, kind, req, None, now, now));
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = ns(Instant::now());
        }
    }

    /// Durations (µs) of the spans called `name`, of one op kind or all.
    pub fn durations(&self, name: &str, kind: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && kind.is_none_or(|k| s.kind == k))
            .map(Span::us)
            .collect()
    }

    /// `a − b` per request, for requests that have both spans (µs).
    pub fn paired(&self, a: &str, b: &str, kind: Option<&str>) -> Vec<f64> {
        let of = |name: &str| -> BTreeMap<u64, f64> {
            self.spans
                .iter()
                .filter(|s| s.name == name && kind.is_none_or(|k| s.kind == k))
                .map(|s| (s.req, s.us()))
                .collect()
        };
        let bs = of(b);
        of(a)
            .into_iter()
            .filter_map(|(req, x)| bs.get(&req).map(|y| x - y))
            .collect()
    }
}

/// The exact counts of a replay: the same on every run of a seed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub writes: u64,
    pub fired: u64,
    pub suppressed: u64,
    pub reads: u64,
    pub index_probes: u64,
    pub wal_bytes: u64,
    pub commits: u64,
    pub nodes: u64,
    pub rels: u64,
    pub commits_replayed: u64,
}

/// A finished in-process replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub tracer: Tracer,
    pub counts: Counts,
    pub problems: Vec<String>,
    /// Seconds to reopen the durable store after the replay (0 in memory).
    pub reopen_s: f64,
    next_req: u64,
}

/// A session like the workload's server's, its store directory kept alive.
struct Twin {
    session: Session,
    dir: Option<StoreDir>,
}

fn twin(workload: Workload, wal: Option<WalOptions>, triggers: bool) -> Result<Twin, String> {
    let (mut session, dir) = match wal {
        Some(wal) => {
            let dir = StoreDir::new("trace").map_err(|e| e.to_string())?;
            (open_store(dir.path(), wal)?, Some(dir))
        }
        None => (Session::new(), None),
    };
    let setup = match workload {
        Workload::CovidSurveillance => wire::setup_statements(),
        Workload::DurableIngest => ops::ingest_setup_statements(),
    };
    for stmt in setup {
        session
            .execute(&stmt)
            .map_err(|e| format!("twin setup `{stmt}`: {e}"))?;
    }
    if !triggers {
        let names: Vec<String> = session
            .catalog()
            .all()
            .map(|t| t.spec.name.clone())
            .collect();
        for name in names {
            session
                .set_trigger_enabled(&name, false)
                .map_err(|e| format!("disable {name}: {e}"))?;
        }
    }
    Ok(Twin { session, dir })
}

/// The twins a replayed write also runs on, besides the traced one.
struct Twins<'a> {
    /// Every trigger disabled.
    untriggered: &'a mut Session,
    /// In memory.
    in_memory: &'a mut Session,
    /// Configured like the traced twin; runs the traced path with its
    /// tracer off.
    untraced: &'a mut Session,
}

type Errors = Vec<(&'static str, Option<String>)>;

impl Twins<'_> {
    fn write(&mut self, tr: &mut Tracer, op: &Op, req: u64, flush: bool) -> Errors {
        let untriggered = tr.span("triggers.execute_untriggered", op.kind, req, None, || {
            self.untriggered.execute(&op.text)
        });
        let in_memory = tr.span("wal.in_memory_execute", op.kind, req, None, || {
            self.in_memory.execute(&op.text)
        });
        let (_, untraced) = tr.span("trace.untraced_write", op.kind, req, None, || {
            write_path(&mut Tracer::off(), self.untraced, op, req, None, flush)
        });
        let mut errors = vec![
            ("untriggered", untriggered.err().map(|e| e.to_string())),
            ("in-memory", in_memory.err().map(|e| e.to_string())),
        ];
        errors.extend(untraced);
        errors
    }
}

fn wal_len(s: &Session) -> u64 {
    s.durable().and_then(|d| d.wal_len().ok()).unwrap_or(0)
}

/// The traced path of one write: parse, execute, and a WAL flush when
/// `flush`, each call a span under `top`. Returns the exact counts the
/// write added and any errors.
fn write_path(
    tr: &mut Tracer,
    t: &mut Session,
    op: &Op,
    req: u64,
    top: Option<usize>,
    flush: bool,
) -> (Counts, Errors) {
    let parsed = tr.span("cypher.parse", op.kind, req, top, || parse_query(&op.text));
    let (stats, bytes, seq) = (t.stats(), wal_len(t), t.wal_seq());
    let res = tr.span("triggers.execute", op.kind, req, top, || {
        t.execute(&op.text)
    });
    let after = t.stats();
    let counts = Counts {
        writes: 1,
        fired: after.fired - stats.fired,
        suppressed: after.suppressed - stats.suppressed,
        wal_bytes: wal_len(t) - bytes,
        commits: t.wal_seq() - seq,
        ..Counts::default()
    };
    let mut errors = vec![
        ("parse", parsed.err().map(|e| e.to_string())),
        ("execute", res.err().map(|e| e.to_string())),
    ];
    if flush {
        let flushed = tr.span("wal.flush", op.kind, req, top, || t.wal_flush());
        errors.push(("flush", flushed.err().map(|e| e.to_string())));
    }
    (counts, errors)
}

/// The traced path of one read, as the server serves it: refresh, parse,
/// plan, execute, each call a span under `top`. Returns the index probes
/// the read made.
fn read_path(
    tr: &mut Tracer,
    rs: &mut ReadSession,
    op: &Op,
    req: u64,
    top: Option<usize>,
) -> Result<u64, String> {
    let params = Params::new();
    tr.span("graph.refresh", op.kind, req, top, || rs.refresh());
    rs.reset_index_probes();
    let now = rs.now_ms();
    tr.span("cypher.parse", op.kind, req, top, || parse_query(&op.text))
        .and_then(|q| {
            tr.span("cypher.plan", op.kind, req, top, || {
                lower_query(&EvalCtx::new(rs.snapshot(), &params, now), &q)
            })?;
            tr.span("cypher.read_exec", op.kind, req, top, || {
                run_read_only(rs.snapshot(), &q, Vec::new(), &params, now)
            })
        })
        .map_err(|e| e.to_string())?;
    let probes = rs.index_probes();
    Ok(probes.materializing + probes.counting + probes.ordered)
}

impl Replay {
    fn fail(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    fn next_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req - 1
    }

    /// One write on the traced twin `t` and on every other twin, under one
    /// request id. Which runs first alternates, so warm caches favour
    /// neither side.
    fn write(&mut self, t: &mut Session, twins: &mut Twins, op: &Op) {
        let req = self.next_req();
        let flush = (self.counts.writes + 1).is_multiple_of(FLUSH_EVERY);
        let twins_first = req % 2 == 1;
        let mut errors = Vec::new();
        if twins_first {
            errors.extend(twins.write(&mut self.tracer, op, req, flush));
        }
        let top = self.tracer.open("op.write", op.kind, req);
        let (counts, traced) = write_path(&mut self.tracer, t, op, req, top, flush);
        self.tracer.close(top);
        errors.extend(traced);
        if !twins_first {
            errors.extend(twins.write(&mut self.tracer, op, req, flush));
        }
        let c = &mut self.counts;
        c.writes += counts.writes;
        c.fired += counts.fired;
        c.suppressed += counts.suppressed;
        c.wal_bytes += counts.wal_bytes;
        c.commits += counts.commits;
        for (what, e) in errors {
            if let Some(e) = e {
                self.fail(format!("replayed {} ({what}): {e}", op.kind));
            }
        }
    }

    /// One read on the traced snapshot reader `rs`, then `ReadSession::run`
    /// on its own; and the same path untraced on `untraced`, a reader of
    /// the same state, first or last in turn.
    fn read(&mut self, rs: &mut ReadSession, untraced: &mut ReadSession, op: &Op) {
        let req = self.next_req();
        let mut untraced_read = |tr: &mut Tracer| {
            tr.span("trace.untraced_read", op.kind, req, None, || {
                read_path(&mut Tracer::off(), untraced, op, req, None)
            })
        };
        let tr = &mut self.tracer;
        let first = (req % 2 == 1).then(|| untraced_read(tr));
        let top = tr.open("op.read", op.kind, req);
        let outcome = read_path(tr, rs, op, req, top);
        tr.close(top);
        let run = tr.span("server.in_process_read", op.kind, req, None, || {
            rs.run(&op.text)
        });
        let other = first.unwrap_or_else(|| untraced_read(tr));
        self.counts.reads += 1;
        match outcome {
            Ok(probes) => self.counts.index_probes += probes,
            Err(e) => self.fail(format!("replayed {}: {e}", op.kind)),
        }
        if let Err(e) = run {
            self.fail(format!("replayed {} (run): {e}", op.kind));
        }
        if let Err(e) = other {
            self.fail(format!("replayed {} (untraced): {e}", op.kind));
        }
    }

    /// Price the wire: serve the twin and run each read, and fresh writes of
    /// each write kind, alternately over a client and in process on the
    /// same engine, so both sides see the same state. Hands the twin back.
    fn price_wire(
        &mut self,
        t: Twin,
        reads: &[Op],
        write_kinds: &[&'static str],
    ) -> Result<Twin, String> {
        let served = Served::start(t.session).map_err(|e| format!("bind: {e}"))?;
        let mut client = served.connect()?;
        let mut rs = served.engine().read_session();
        let mut fresh = 0u64;
        for pair in 0..WIRE_PAIRS {
            for op in reads {
                let req = self.next_req();
                for wire in [pair % 2 == 0, pair % 2 == 1] {
                    let ok = if wire {
                        self.tracer
                            .span("server.wire_read", op.kind, req, None, || {
                                client
                                    .run_all(&op.text, &[])
                                    .map(|_| ())
                                    .map_err(|e| e.to_string())
                            })
                    } else {
                        self.tracer
                            .span("server.local_read", op.kind, req, None, || {
                                rs.refresh();
                                rs.run(&op.text).map(|_| ()).map_err(|e| e.to_string())
                            })
                    };
                    if let Err(e) = ok {
                        self.fail(format!("pricing {}: {e}", op.kind));
                    }
                }
            }
            for &kind in write_kinds {
                let req = self.next_req();
                for wire in [pair % 2 == 0, pair % 2 == 1] {
                    let op = ops::fresh_write(kind, fresh);
                    fresh += 1;
                    let ok = if wire {
                        self.tracer.span("server.wire_write", kind, req, None, || {
                            client
                                .run_all(&op.text, &[])
                                .map(|_| ())
                                .map_err(|e| e.to_string())
                        })
                    } else {
                        self.tracer.span("server.local_write", kind, req, None, || {
                            let mut w = served.engine().writer();
                            w.execute(&op.text).map(|_| ()).map_err(|e| e.to_string())
                        })
                    };
                    if let Err(e) = ok {
                        self.fail(format!("pricing {kind}: {e}"));
                    }
                }
            }
        }
        client.goodbye().map_err(|e| e.to_string())?;
        drop(rs);
        Ok(Twin {
            session: served.stop()?,
            dir: t.dir,
        })
    }

    fn size(&mut self, s: &Session) {
        self.counts.nodes = s.graph().node_count() as u64;
        self.counts.rels = s.graph().rel_count() as u64;
    }

    /// Drop the durable twin without checkpoint and reopen its store.
    fn reopen(&mut self, t: Twin, wal: WalOptions) -> Option<Twin> {
        let dir = t.dir?;
        drop(t.session);
        let start = Instant::now();
        match Session::open_durable(dir.path(), EngineConfig::default(), wal) {
            Ok((session, report)) => {
                self.reopen_s = start.elapsed().as_secs_f64();
                self.counts.commits_replayed = report.commits_replayed as u64;
                Some(Twin {
                    session,
                    dir: Some(dir),
                })
            }
            Err(e) => {
                self.fail(format!("reopen: {e}"));
                None
            }
        }
    }
}

/// Replay the workload's seeded op sequence in process.
pub fn replay(workload: Workload, seed: u64, budget: &Budget) -> Result<Replay, String> {
    let mut rep = Replay::default();
    let wal = match workload {
        Workload::CovidSurveillance => WalOptions::default(),
        Workload::DurableIngest => ingest::wal_options(),
    };
    let mut t = twin(workload, Some(wal.clone()), true)?;
    let mut n = twin(workload, Some(wal.clone()), false)?;
    let mut m = twin(workload, None, true)?;
    let mut u = twin(workload, Some(wal.clone()), true)?;
    match workload {
        Workload::CovidSurveillance => {
            // Every twin has a reader pinned where the traced one has, so
            // copy-on-write costs the writers alike.
            let mut readers = [&mut t, &mut n, &mut m, &mut u]
                .map(|x| ReadSession::new(x.session.reader_handle()));
            let [r_t, r_n, r_m, r_u] = &mut readers;
            let mut twins = Twins {
                untriggered: &mut n.session,
                in_memory: &mut m.session,
                untraced: &mut u.session,
            };
            let mut rotation = CovidReader::new(seed);
            let (mut admitted, mut discovered) = (0u64, 0u64);
            for op in ops::covid_writes(seed, budget.covid_writes) {
                rep.write(&mut t.session, &mut twins, &op);
                // The reader follows each write: the discovery's cascade
                // probe right after it, the rotation otherwise.
                let read = match op.kind {
                    "discovery" => {
                        discovered += 1;
                        ops::discovery_probe(discovered - 1)
                    }
                    "admission" => {
                        admitted += 1;
                        rotation.next_op(admitted)
                    }
                    _ => rotation.next_op(admitted),
                };
                rep.read(r_t, r_u, &read);
                r_n.refresh();
                r_m.refresh();
            }
            drop(readers);
            rep.size(&t.session);
            let mut reads: Vec<Op> = Vec::new();
            while reads.len() < 5 {
                let op = rotation.next_op(admitted);
                if reads.iter().all(|r| r.kind != op.kind) {
                    reads.push(op);
                }
            }
            reads.push(ops::discovery_probe(0));
            let t = rep.price_wire(t, &reads, &["admission", "discovery", "redesignation"])?;
            rep.reopen(t, wal);
        }
        Workload::DurableIngest => {
            let mut twins = Twins {
                untriggered: &mut n.session,
                in_memory: &mut m.session,
                untraced: &mut u.session,
            };
            let writes = ops::ingest_writes(seed, budget.ingest_writes);
            for (op, _) in &writes {
                rep.write(&mut t.session, &mut twins, op);
            }
            rep.size(&t.session);
            let reads = [ops::batch_lookup(&writes[0].1)];
            let t = rep.price_wire(t, &reads, &["ingest", "critical"])?;
            if let Some(mut t) = rep.reopen(t, wal) {
                // Reads change nothing, so a second reader of the same
                // store is the untraced twin.
                let mut rs = ReadSession::new(t.session.reader_handle());
                let mut untraced = ReadSession::new(t.session.reader_handle());
                for (_, prefix) in &writes {
                    rep.read(&mut rs, &mut untraced, &ops::batch_lookup(prefix));
                }
            }
        }
    }
    Ok(rep)
}

/// The traced run of one workload.
pub fn run(workload: Workload, seed: u64, budget: &Budget) -> Outcome {
    let wire = workload.round(seed, budget, true);
    let mut problems = Vec::new();
    let rep = replay(workload, seed, budget).unwrap_or_else(|e| {
        problems.push(e);
        Replay::default()
    });
    problems.extend(rep.problems.iter().cloned());
    if let Err(e) = write_spans(workload, seed, &wire, &rep) {
        problems.push(format!("writing spans: {e}"));
    }
    let (metrics, detail) = per_layer(&wire, &rep);
    Outcome {
        rounds: vec![wire],
        metrics,
        problems,
        detail,
    }
}

fn p50(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn ms_p50(samples: &[Sample], kind: Option<&str>) -> Option<f64> {
    let v: Vec<f64> = samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| s.ms)
        .collect();
    median(&v)
}

fn kinds(samples: &[Sample]) -> Vec<(&'static str, usize)> {
    let mut by: BTreeMap<&'static str, usize> = BTreeMap::new();
    for s in samples {
        *by.entry(s.kind).or_default() += 1;
    }
    by.into_iter().collect()
}

/// Count-weighted mean over op kinds of `f(kind)`, skipping kinds `f`
/// cannot price.
fn weighted(kinds: &[(&'static str, usize)], f: impl Fn(&str) -> Option<f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for &(k, count) in kinds {
        if let Some(v) = f(k) {
            sum += v * count as f64;
            n += count;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics, and the per-kind breakdown behind them.
fn per_layer(traced: &Round, rep: &Replay) -> (Vec<Metric>, Vec<String>) {
    let tr = &rep.tracer;
    let c = &rep.counts;
    let write_kinds = kinds(&traced.write_service);
    let read_kinds = kinds(&traced.reads);
    let exec_p50 = |k: &str| median(&tr.durations("triggers.execute", Some(k)));
    let wire_write_us = |k: &str| ms_p50(&traced.write_service, Some(k)).map(|v| v * 1e3);
    let wire_read_us = |k: &str| ms_p50(&traced.reads, Some(k)).map(|v| v * 1e3);
    let write_overhead =
        |k: &str| median(&tr.paired("server.wire_write", "server.local_write", Some(k)));
    let read_overhead =
        |k: &str| median(&tr.paired("server.wire_read", "server.local_read", Some(k)));
    let unattributed = |k: &str| Some(wire_write_us(k)? - exec_p50(k)? - write_overhead(k)?);

    let mut detail = Vec::new();
    for &(k, n) in &write_kinds {
        let cascade =
            median(&tr.paired("triggers.execute", "triggers.execute_untriggered", Some(k)));
        let durable = median(&tr.paired("triggers.execute", "wal.in_memory_execute", Some(k)));
        let mut line = format!("layer write {k:<14} n={n:<5}");
        for (label, v) in [
            ("wire", wire_write_us(k)),
            ("wire_overhead", write_overhead(k)),
            ("execute", exec_p50(k)),
            ("parse", median(&tr.durations("cypher.parse", Some(k)))),
            ("cascade", cascade),
            ("durable_overhead", durable),
            ("unattributed", unattributed(k)),
        ] {
            let _ = write!(
                line,
                "  {label} {}",
                v.map_or("-".into(), |v| format!("{v:.1}us"))
            );
        }
        detail.push(line);
    }
    for &(k, n) in &read_kinds {
        let mut line = format!("layer read  {k:<14} n={n:<5}");
        for (label, name) in [
            ("run", "server.in_process_read"),
            ("refresh", "graph.refresh"),
            ("parse", "cypher.parse"),
            ("plan", "cypher.plan"),
            ("exec", "cypher.read_exec"),
        ] {
            let v = median(&tr.durations(name, Some(k)));
            let _ = write!(
                line,
                "  {label} {}",
                v.map_or("-".into(), |v| format!("{v:.1}us"))
            );
        }
        for (label, v) in [
            ("wire", wire_read_us(k)),
            ("wire_overhead", read_overhead(k)),
        ] {
            let _ = write!(
                line,
                "  {label} {}",
                v.map_or("-".into(), |v| format!("{v:.1}us"))
            );
        }
        detail.push(line);
    }
    detail.push(format!("replay counts: {c:?}"));

    let lateness = &traced.lateness_ms;
    // Traced op minus the same op on the untraced twin, writes and reads.
    let mut overhead = tr.paired("op.write", "trace.untraced_write", None);
    overhead.extend(tr.paired("op.read", "trace.untraced_read", None));
    let m = |name: &str, unit: &'static str, v: f64| Metric::new(name, unit, v, vec![v]);
    let metrics = vec![
        m(
            "server.wire_overhead_read_us",
            "us",
            weighted(&read_kinds, read_overhead),
        ),
        m(
            "server.wire_overhead_write_us",
            "us",
            weighted(&write_kinds, write_overhead),
        ),
        m(
            "cypher.parse_us",
            "us",
            p50(&tr.durations("cypher.parse", None)),
        ),
        m(
            "cypher.plan_us",
            "us",
            p50(&tr.durations("cypher.plan", None)),
        ),
        m(
            "cypher.read_exec_us",
            "us",
            p50(&tr.durations("cypher.read_exec", None)),
        ),
        m(
            "triggers.execute_us",
            "us",
            p50(&tr.durations("triggers.execute", None)),
        ),
        m(
            "triggers.cascade_us",
            "us",
            p50(&tr.paired("triggers.execute", "triggers.execute_untriggered", None)),
        ),
        m(
            "triggers.fired_per_write",
            "count",
            ratio(c.fired, c.writes),
        ),
        m(
            "triggers.suppressed_per_write",
            "count",
            ratio(c.suppressed, c.writes),
        ),
        m(
            "triggers.fire_ratio",
            "ratio",
            ratio(c.fired, c.fired + c.suppressed),
        ),
        m(
            "graph.refresh_us",
            "us",
            p50(&tr.durations("graph.refresh", None)),
        ),
        m(
            "graph.index_probes_per_read",
            "count",
            ratio(c.index_probes, c.reads),
        ),
        m("graph.nodes", "count", c.nodes as f64),
        m("graph.rels", "count", c.rels as f64),
        m("wal.bytes_per_commit", "B", ratio(c.wal_bytes, c.commits)),
        m("wal.flush_us", "us", p50(&tr.durations("wal.flush", None))),
        m(
            "wal.durable_overhead_us",
            "us",
            p50(&tr.paired("triggers.execute", "wal.in_memory_execute", None)),
        ),
        m(
            "wal.replay_commits_per_s",
            "1/s",
            if rep.reopen_s > 0.0 {
                c.commits_replayed as f64 / rep.reopen_s
            } else {
                0.0
            },
        ),
        m(
            "unattributed_us",
            "us",
            weighted(&write_kinds, unattributed),
        ),
        m(
            "loadgen.lateness_p50_ms",
            "ms",
            percentile(lateness, 50.0).unwrap_or(0.0),
        ),
        m(
            "loadgen.lateness_p99_ms",
            "ms",
            percentile(lateness, 99.0).unwrap_or(0.0),
        ),
        m(
            "trace.traced_write_p50_us",
            "us",
            p50(&tr.durations("op.write", None)),
        ),
        m(
            "trace.untraced_write_p50_us",
            "us",
            p50(&tr.durations("trace.untraced_write", None)),
        ),
        m(
            "trace.traced_read_p50_us",
            "us",
            p50(&tr.durations("op.read", None)),
        ),
        m(
            "trace.untraced_read_p50_us",
            "us",
            p50(&tr.durations("trace.untraced_read", None)),
        ),
        m("trace.overhead_us", "us", p50(&overhead)),
    ];
    (metrics, detail)
}

/// Write every span, wire and replay, one JSON object per line.
fn write_spans(workload: Workload, seed: u64, traced: &Round, rep: &Replay) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    let mut text = String::new();
    let wire = traced.spans.iter().flatten().map(|s| ("wire", s));
    let replay = rep.tracer.spans.iter().map(|s| ("replay", s));
    for (source, s) in wire.chain(replay) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"source\": \"{source}\", \"name\": \"{}\", \"kind\": \"{}\", \"req\": {}, \
             \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.kind, s.req, s.start_ns, s.end_ns
        );
    }
    let path = out_dir().join(format!("{}-seed{seed}-spans.jsonl", workload.name()));
    std::fs::write(path, text)
}
