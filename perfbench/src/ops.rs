//! The seeded op sequences. Everything a client sends is decided here,
//! from the seed and the op budget alone, so two builds given the same
//! seed execute the same statements in the same order.

use crate::rng::Rng;
use pg_covid::wire;

/// One client statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Op kind: latencies and layer costs are reported per kind.
    pub kind: &'static str,
    pub text: String,
}

impl Op {
    fn new(kind: &'static str, text: String) -> Op {
        Op { kind, text }
    }
}

/// Stream ids that keep each consumer's draws independent.
const WRITER: u64 = 1;
const READER: u64 = 2;

const WHO: [&str; 4] = ["Delta", "Omicron", "Kappa", "Eta"];

// ---------------------------------------------------------------------
// covid_surveillance
// ---------------------------------------------------------------------

/// Op kinds in blocks that each hold `pattern` exactly, in a seeded order:
/// every seed gets the same mix, and only the order varies.
fn shuffled_blocks(rng: &mut Rng, pattern: &[&'static str], n: usize) -> Vec<&'static str> {
    let mut out = Vec::with_capacity(n + pattern.len());
    while out.len() < n {
        let mut block = pattern.to_vec();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// The §6 writer feed: ICU admissions to Sacco, tagged critical
/// discoveries and redesignations, 10:1:1. Every statement text is
/// distinct (literal tags), while the trigger bodies it fires repeat.
pub fn covid_writes(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, WRITER);
    let mut pattern = vec!["admission"; 10];
    pattern.extend(["discovery", "redesignation"]);
    let kinds = shuffled_blocks(&mut rng, &pattern, n);
    let (mut admitted, mut discovered) = (0u64, 0u64);
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| match kind {
            "discovery" => {
                discovered += 1;
                Op::new(kind, wire::discover_critical_mutation(discovered - 1))
            }
            "redesignation" => {
                let to = format!("{}-{i}", WHO[rng.below(WHO.len() as u64) as usize]);
                Op::new(kind, wire::redesignate_lineage(&to))
            }
            _ => {
                admitted += 1;
                let severity = rng.below(100) as i64;
                Op::new(kind, wire::icu_admission(admitted - 1, "Sacco", severity))
            }
        })
        .collect()
}

/// The cascade probe for the discovery tagged `tag` (discoveries in
/// [`covid_writes`] are tagged 0, 1, 2, … in order).
pub fn discovery_probe(tag: u64) -> Op {
    Op::new("probe", wire::cascade_alert_query(tag))
}

/// The reader's rotation, excluding the cascade probe (which runs whenever
/// a discovery is outstanding). Half the rotation is the alert count, so
/// the median read falls inside one kind rather than between two.
pub struct CovidReader {
    rng: Rng,
    next: usize,
}

pub const COVID_READ_KINDS: [&str; 8] = [
    "alerts", "orphans", "alerts", "lookup", "alerts", "niguarda", "alerts", "sacco",
];

impl CovidReader {
    pub fn new(seed: u64) -> CovidReader {
        CovidReader {
            rng: Rng::new(seed, READER),
            next: 0,
        }
    }

    /// The next read; `admitted` is how many admissions the writer has had
    /// acknowledged, and lookups pick one of them.
    pub fn next_op(&mut self, admitted: u64) -> Op {
        let kind = COVID_READ_KINDS[self.next % COVID_READ_KINDS.len()];
        self.next += 1;
        let text = match kind {
            "orphans" => wire::ORPHANED_PATIENTS_QUERY.to_string(),
            "lookup" => wire::patient_lookup(self.rng.below(admitted.max(1))),
            "niguarda" => wire::treated_at_query("Niguarda"),
            "alerts" => wire::ALERT_COUNT_QUERY.to_string(),
            _ => wire::treated_at_query("Sacco"),
        };
        Op::new(kind, text)
    }
}

/// Alerts raised by critical discoveries (they carry the mutation name).
pub const DISCOVERY_ALERTS_QUERY: &str =
    "MATCH (a:Alert) WHERE a.mutation IS NOT NULL RETURN count(*) AS n";

// ---------------------------------------------------------------------
// durable_ingest
// ---------------------------------------------------------------------

/// Mutations one ingest write creates, in one commit. A commit of one
/// node is a round trip of ~0.15 ms whose time is mostly thread wake-ups;
/// a batch makes the statement's own work (parse, trigger evaluation,
/// index upkeep, WAL encoding) the bulk of each op.
pub const INGEST_BATCH: usize = 32;

/// The ingest feed: batches of mutations named `I<i>.<j>` (the trigger's
/// condition is evaluated for each and fails) and, one write in ten, a
/// batch of critical discoveries named `M<i>.<j>` (it fires for each).
/// Returns each op with its batch's name prefix, `I<i>.` or `M<i>.`.
pub fn ingest_writes(seed: u64, n: usize) -> Vec<(Op, String)> {
    let mut rng = Rng::new(seed, WRITER);
    let mut pattern = vec!["ingest"; 9];
    pattern.push("critical");
    let kinds = shuffled_blocks(&mut rng, &pattern, n);
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let protein = PROTEINS[rng.below(PROTEINS.len() as u64) as usize];
            let prefix = format!("{}{i}.", if kind == "critical" { 'M' } else { 'I' });
            (ingest_batch(kind, &prefix, protein), prefix)
        })
        .collect()
}

const PROTEINS: [&str; 4] = ["Spike", "N", "ORF1a", "ORF8"];

/// Create [`INGEST_BATCH`] mutations named `<prefix><j>` in one statement;
/// `critical` links each to the critical effect, so the trigger fires for
/// each.
fn ingest_batch(kind: &'static str, prefix: &str, protein: &str) -> Op {
    let names: Vec<String> = (0..INGEST_BATCH)
        .map(|j| format!("'{prefix}{j}'"))
        .collect();
    let list = names.join(", ");
    let text = if kind == "critical" {
        format!(
            "MATCH (e:CriticalEffect) WITH e LIMIT 1 UNWIND [{list}] AS k \
             CREATE (:Mutation {{name: k, protein: '{protein}'}})-[:Risk]->(e)"
        )
    } else {
        format!("UNWIND [{list}] AS k CREATE (:Mutation {{name: k, protein: '{protein}'}})")
    };
    Op::new(kind, text)
}

/// Counts one batch's mutations (names starting with `prefix`; a prefix
/// lookup when `Mutation.name` is indexed). A whole batch reads
/// [`INGEST_BATCH`].
pub fn batch_lookup(prefix: &str) -> Op {
    Op::new(
        "batch_lookup",
        format!("MATCH (m:Mutation) WHERE m.name STARTS WITH '{prefix}' RETURN count(*) AS n"),
    )
}

/// What the ingest server is stood up with: the name index, the critical
/// effect discoveries link to, and the one §6.2.1 trigger writes fire.
pub fn ingest_setup_statements() -> Vec<String> {
    vec![
        "CREATE INDEX ON :Mutation(name)".to_string(),
        "CREATE (:CriticalEffect {name: 'SevereOutcome'})".to_string(),
        pg_covid::triggers::NEW_CRITICAL_MUTATION.to_string(),
    ]
}

/// A write of `kind` that no op sequence contains (tags from 1,000,000
/// up), for pricing the wire against in-process execution on the same
/// state without replaying a statement twice.
pub fn fresh_write(kind: &'static str, j: u64) -> Op {
    let tag = 1_000_000 + j;
    let text = match kind {
        "admission" => wire::icu_admission(tag, "Sacco", 50),
        "discovery" => wire::discover_critical_mutation(tag),
        "redesignation" => wire::redesignate_lineage(&format!("Probe-{tag}")),
        _ => return ingest_batch(kind, &format!("X{tag}."), "Spike"),
    };
    Op::new(kind, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(covid_writes(7, 300), covid_writes(7, 300));
        assert_ne!(covid_writes(7, 300), covid_writes(8, 300));
        assert_eq!(ingest_writes(7, 300), ingest_writes(7, 300));
    }

    #[test]
    fn covid_mix_is_ten_to_one_to_one() {
        let ops = covid_writes(1, 1200);
        let count = |k: &str| ops.iter().filter(|o| o.kind == k).count();
        assert_eq!(count("admission"), 1000);
        assert_eq!(count("discovery"), 100);
        assert_eq!(count("redesignation"), 100);
        let mut texts: Vec<&str> = ops.iter().map(|o| o.text.as_str()).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(
            texts.len(),
            ops.len(),
            "every client write text is distinct"
        );
    }
}
