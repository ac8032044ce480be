//! What one op-budgeted round of a workload measured, and the budgets
//! that fix its size.

use crate::trace::Span;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Op budgets. A round executes exactly these ops whatever the build's
/// speed: per-admission cost grows with the ICU population, so a
/// time-bounded round would make a faster build do more, costlier work.
#[derive(Debug, Clone)]
pub struct Budget {
    /// `covid_surveillance` writes per round.
    pub covid_writes: usize,
    /// `covid_surveillance` open-loop writer rate, writes per second.
    pub covid_rate: f64,
    /// `durable_ingest` writes per round.
    pub ingest_writes: usize,
}

impl Budget {
    /// Time between two `covid_surveillance` writes' due times.
    pub fn covid_period(&self) -> Duration {
        Duration::from_secs_f64(1.0 / self.covid_rate)
    }

    /// The sizes the benchmark is run at.
    pub fn standard() -> Budget {
        Budget {
            covid_writes: 600,
            covid_rate: 100.0,
            ingest_writes: 120,
        }
    }

    /// Tiny sizes for the benchmark's own tests.
    pub fn tiny() -> Budget {
        Budget {
            covid_writes: 60,
            covid_rate: 400.0,
            ingest_writes: 60,
        }
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: &'static str,
    pub ms: f64,
}

/// Everything one round measured and checked.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    /// The fastest reopen of the round's store.
    pub recovery_s: f64,
    /// Write latency: from the op's due time for the open-loop writer,
    /// from its send time for closed-loop writers.
    pub writes: Vec<Sample>,
    /// Write latency from send time (the wire round trip alone).
    pub write_service: Vec<Sample>,
    pub reads: Vec<Sample>,
    pub visibility_ms: Vec<f64>,
    /// How late the open-loop generator sent each write, in ms.
    pub lateness_ms: Vec<f64>,
    pub throughput_ops_s: f64,
    /// Ops and checks attempted, and those that failed.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Set when the open-loop writer's lateness grew over the round.
    pub backlog: Option<String>,
    /// Client-side spans around every wire call, when the round is traced.
    pub spans: Option<Vec<Span>>,
}

impl Round {
    pub fn new(traced: bool) -> Round {
        Round {
            spans: traced.then(Vec::new),
            ..Round::default()
        }
    }

    /// One acknowledged write: latency from its due time, and from its
    /// send time (the same for closed-loop writers).
    pub fn record_write(&mut self, kind: &'static str, due_ms: f64, sent_ms: f64) {
        self.writes.push(Sample { kind, ms: due_ms });
        self.write_service.push(Sample { kind, ms: sent_ms });
        self.span("wire.write", kind, sent_ms);
    }

    /// One answered read.
    pub fn record_read(&mut self, kind: &'static str, ms: f64) {
        self.reads.push(Sample { kind, ms });
        self.span("wire.read", kind, ms);
    }

    /// A span for the wire call that just returned after `ms`; request ids
    /// are unique across connections.
    fn span(&mut self, name: &'static str, kind: &'static str, ms: f64) {
        static NEXT_REQ: AtomicU64 = AtomicU64::new(0);
        if let Some(spans) = &mut self.spans {
            let end = Instant::now();
            let start = end - Duration::from_secs_f64(ms / 1e3);
            let req = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
            spans.push(Span::new(name, kind, req, None, start, end));
        }
    }

    /// Record a failed op or check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what.into());
        }
    }

    /// Record one check; a false `ok` counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Fold a worker thread's tallies into this round.
    pub fn absorb(&mut self, other: Round) {
        self.writes.extend(other.writes);
        self.write_service.extend(other.write_service);
        self.reads.extend(other.reads);
        self.visibility_ms.extend(other.visibility_ms);
        self.lateness_ms.extend(other.lateness_ms);
        if let (Some(mine), Some(theirs)) = (&mut self.spans, other.spans) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
