//! The benchmark's own checks, at tiny sizes: a seed fixes the work
//! exactly, and every workload passes its correctness checks.

use perfbench::{trace, Budget, Workload};

/// Two replays of one seed count exactly the same work: trigger firings
/// and suppressions, WAL bytes and commits, graph size, and the
/// single-connection reader's index probes.
#[test]
fn count_metrics_repeat_exactly_per_seed() {
    let budget = Budget::tiny();
    for w in Workload::ALL {
        let a = trace::replay(w, 11, &budget).expect("replay");
        let b = trace::replay(w, 11, &budget).expect("replay");
        assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
        assert_eq!(a.counts, b.counts, "{}", w.name());
        assert!(a.counts.writes > 0 && a.counts.reads > 0, "{}", w.name());
        assert!(a.counts.index_probes > 0, "{}", w.name());
    }
    let covid = trace::replay(Workload::CovidSurveillance, 11, &budget).expect("replay");
    assert!(covid.counts.fired > 0 && covid.counts.wal_bytes > 0);
    let other = trace::replay(Workload::CovidSurveillance, 12, &budget).expect("replay");
    assert_ne!(covid.counts, other.counts, "another seed, other work");
}

/// A tiny wire round of every workload passes its checks and records a
/// client span per wire call when traced.
#[test]
fn tiny_rounds_pass_their_checks() {
    let budget = Budget::tiny();
    for w in Workload::ALL {
        let r = w.round(3, &budget, true);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.problems);
        assert!(r.backlog.is_none(), "{}: {:?}", w.name(), r.backlog);
        assert!(!r.writes.is_empty() && !r.reads.is_empty(), "{}", w.name());
        assert!(!r.visibility_ms.is_empty(), "{}", w.name());
        let spans = r.spans.as_ref().map_or(0, Vec::len);
        assert_eq!(spans, r.writes.len() + r.reads.len(), "{}", w.name());
    }
}
