//! # perfbench — the repository's end-to-end benchmark
//!
//! Drives the PG-Triggers engine over real sockets (the `pg-server` wire
//! protocol) from one process, with fixed, seeded op sequences, and checks
//! every answer. `README.md` in this directory maps each metric to the
//! crate that moves it and says why each workload exists.
//!
//! * [`covid`], [`ingest`] — one op-budgeted round of each workload over
//!   the wire;
//! * [`trace`] — the traced run: the same op sequences replayed in
//!   process, with spans around each crate's public entry points;
//! * [`report`] — metrics, the run header and the result line.

pub mod covid;
pub mod ingest;
pub mod ops;
pub mod report;
pub mod rng;
pub mod round;
pub mod serve;
pub mod stats;
pub mod trace;

pub use round::{Budget, Round};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CovidSurveillance,
    DurableIngest,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::CovidSurveillance, Workload::DurableIngest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CovidSurveillance => "covid_surveillance",
            Workload::DurableIngest => "durable_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One op-budgeted round over the wire; `traced` records a client-side
    /// span around every wire call.
    pub fn round(self, seed: u64, budget: &Budget, traced: bool) -> Round {
        let mut r = Round::new(traced);
        let run = match self {
            Workload::CovidSurveillance => covid::run_round,
            Workload::DurableIngest => ingest::run_round,
        };
        if let Err(e) = run(seed, budget, &mut r) {
            r.fail(e);
        }
        r
    }

    /// Stand the workload's server up and down once; the set-up time.
    pub fn setup_trial(self) -> Result<f64, String> {
        match self {
            Workload::CovidSurveillance => serve::setup_trial("covid-setup", covid::stand_up),
            Workload::DurableIngest => serve::setup_trial("ingest-setup", ingest::stand_up),
        }
    }

    /// The sync policy the workload's server commits under.
    pub fn sync_policy(self) -> &'static str {
        match self {
            Workload::CovidSurveillance => "group (durable)",
            Workload::DurableIngest => "always (durable)",
        }
    }
}
