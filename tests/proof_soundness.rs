//! Adversarial soundness corpus for the U-semiring checker.
//!
//! The checker is allowed to answer `Unknown` on anything, but a false
//! `Proved` would silently license a wrong rewrite — so this suite
//! collects pairs that are *known inequivalent* (each breaks one
//! specific side condition of a theorem the checker implements) and
//! asserts the verdict is never `Proved`. Each pair is also executed on
//! randomized instances to certify the corpus itself: every pair must
//! produce different result multisets on at least one instance, so the
//! corpus can never rot into accidentally-equivalent pairs that prove
//! nothing.

use std::collections::HashMap;
use uniqueness::catalog::Row;
use uniqueness::engine::Executor;
use uniqueness::plan::{bind_query, BoundQuery, HostVars};
use uniqueness::proof::{check_equiv, Verdict};
use uniqueness::sql::parse_query;
use uniqueness::workload::random_instance;

/// (label, before, after) — every pair inequivalent by construction.
const INEQUIVALENT_PAIRS: &[(&str, &str, &str)] = &[
    (
        "bag-vs-set: DISTINCT dropped on a non-key projection",
        "SELECT DISTINCT S.SCITY FROM SUPPLIER S",
        "SELECT ALL S.SCITY FROM SUPPLIER S",
    ),
    (
        "bag-vs-set: DISTINCT dropped under a duplicating join",
        "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
        "SELECT ALL S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
    ),
    (
        "different constant compared",
        "SELECT ALL P.PNO FROM PARTS P WHERE P.COLOR = 'RED'",
        "SELECT ALL P.PNO FROM PARTS P WHERE P.COLOR = 'BLUE'",
    ),
    (
        "range boundary: < weakened to <=",
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.BUDGET < 5",
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.BUDGET <= 5",
    ),
    (
        "predicate dropped entirely",
        "SELECT ALL P.PNO FROM PARTS P WHERE P.COLOR = 'RED'",
        "SELECT ALL P.PNO FROM PARTS P",
    ),
    (
        "EXISTS flipped to NOT EXISTS",
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
    ),
    (
        "semijoin absorption without key coverage (bag semantics)",
        "SELECT ALL S.SCITY FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
        "SELECT ALL S.SCITY FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
    ),
    (
        "join eliminated against the FK direction (child dropped)",
        "SELECT ALL S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
        "SELECT ALL S.SNAME FROM SUPPLIER S",
    ),
    (
        "UNION deduplicates, UNION ALL concatenates",
        "SELECT ALL S.SCITY FROM SUPPLIER S UNION SELECT ALL A.ACITY FROM AGENTS A",
        "SELECT ALL S.SCITY FROM SUPPLIER S UNION ALL SELECT ALL A.ACITY FROM AGENTS A",
    ),
    (
        "EXCEPT operands swapped",
        "SELECT ALL S.SNO FROM SUPPLIER S EXCEPT SELECT ALL A.SNO FROM AGENTS A",
        "SELECT ALL A.SNO FROM AGENTS A EXCEPT SELECT ALL S.SNO FROM SUPPLIER S",
    ),
    (
        "INTERSECT lowered with plain = on a nullable column (loses =̇)",
        "SELECT ALL P.OEM-PNO FROM PARTS P INTERSECT \
         SELECT ALL Q.OEM-PNO FROM PARTS Q",
        "SELECT DISTINCT P.OEM-PNO FROM PARTS P WHERE EXISTS \
         (SELECT * FROM PARTS Q WHERE Q.OEM-PNO = P.OEM-PNO)",
    ),
    (
        "INTERSECT ALL lowered to EXISTS without restoring the lead DISTINCT",
        "SELECT DISTINCT S.SCITY FROM SUPPLIER S INTERSECT ALL \
         SELECT A.ACITY FROM AGENTS A",
        "SELECT S.SCITY FROM SUPPLIER S WHERE EXISTS \
         (SELECT A.ACITY FROM AGENTS A \
          WHERE (S.SCITY IS NULL AND A.ACITY IS NULL) OR S.SCITY = A.ACITY)",
    ),
    (
        "INTERSECT lowered to EXISTS without deduplicating the lead block",
        "SELECT DISTINCT S.SCITY FROM SUPPLIER S INTERSECT \
         SELECT A.ACITY FROM AGENTS A",
        "SELECT S.SCITY FROM SUPPLIER S WHERE EXISTS \
         (SELECT A.ACITY FROM AGENTS A \
          WHERE (S.SCITY IS NULL AND A.ACITY IS NULL) OR S.SCITY = A.ACITY)",
    ),
    (
        "different table scanned behind the same output name",
        "SELECT ALL S.SNO FROM SUPPLIER S",
        "SELECT ALL A.SNO FROM AGENTS A",
    ),
    (
        "different string constant compared",
        "SELECT ALL S.SNAME FROM SUPPLIER S WHERE S.STATUS = 'Active'",
        "SELECT ALL S.SNAME FROM SUPPLIER S WHERE S.STATUS = 'Inactive'",
    ),
    (
        "correlated predicate decorrelated wrongly (constant vs outer ref)",
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 1)",
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = 1 AND P.PNO = 1)",
    ),
];

fn multiset(rows: &[Row]) -> HashMap<Row, usize> {
    let mut m = HashMap::new();
    for r in rows {
        *m.entry(r.clone()).or_insert(0) += 1;
    }
    m
}

fn run(db: &uniqueness::catalog::Database, q: &BoundQuery) -> Vec<Row> {
    let hv = HostVars::new();
    let mut ex = Executor::new(db, &hv);
    ex.run(q).expect("execution succeeds")
}

/// The checker must refuse every pair — `Unknown` is the only sound
/// verdict on an inequivalent input; a single `Proved` here is a bug.
#[test]
fn inequivalent_pairs_are_never_proved() {
    let db = random_instance(11, 10, 24, 10).unwrap();
    for (label, before, after) in INEQUIVALENT_PAIRS {
        let b = bind_query(db.catalog(), &parse_query(before).unwrap()).unwrap();
        let a = bind_query(db.catalog(), &parse_query(after).unwrap()).unwrap();
        for (x, y) in [(&b, &a), (&a, &b)] {
            match check_equiv(x, y) {
                Verdict::Proved { strategy, detail } => panic!(
                    "FALSE PROOF on inequivalent pair [{label}]:\n  \
                     strategy: {strategy}\n  detail: {detail}\n  \
                     before: {before}\n  after:  {after}"
                ),
                Verdict::Unknown { .. } => {}
            }
        }
    }
}

/// Corpus self-certification: every pair really is inequivalent — the
/// two queries produce different multisets on at least one of the
/// instances (three randomized ones plus the Figure 1 sample database,
/// whose overlapping supplier/agent cities witness the set-operation
/// pairs the random city pools cannot). Guards the suite against
/// rotting into accidentally-equivalent pairs that assert nothing.
#[test]
fn the_adversarial_corpus_is_genuinely_inequivalent() {
    let mut instances: Vec<_> = [11u64, 47, 90]
        .iter()
        .map(|&seed| random_instance(seed, 10, 24, 10).unwrap())
        .collect();
    instances.push(uniqueness::catalog::sample::supplier_database().unwrap());
    for (label, before, after) in INEQUIVALENT_PAIRS {
        let witnessed = instances.iter().any(|db| {
            let b = bind_query(db.catalog(), &parse_query(before).unwrap()).unwrap();
            let a = bind_query(db.catalog(), &parse_query(after).unwrap()).unwrap();
            multiset(&run(db, &b)) != multiset(&run(db, &a))
        });
        assert!(
            witnessed,
            "corpus pair [{label}] never differed on any instance — \
             it asserts nothing; replace it or reseed the instances"
        );
    }
}

/// And the full cross-product stays sound under *equivalent* inputs
/// too: a pair the checker proves must agree everywhere. (Spot-check of
/// the positive direction at the integration level; the rule-level
/// proofs live in the crate's unit tests.)
#[test]
fn proved_pairs_execute_identically() {
    let pairs = [
        (
            "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            "SELECT ALL S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        ),
        (
            "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
            "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
        ),
        (
            "SELECT ALL P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
            "SELECT ALL P.PNO, P.PNAME FROM PARTS P",
        ),
    ];
    let instances: Vec<_> = [7u64, 23, 61]
        .iter()
        .map(|&seed| random_instance(seed, 10, 24, 10).unwrap())
        .collect();
    for (before, after) in pairs {
        let b = bind_query(instances[0].catalog(), &parse_query(before).unwrap()).unwrap();
        let a = bind_query(instances[0].catalog(), &parse_query(after).unwrap()).unwrap();
        let verdict = check_equiv(&b, &a);
        assert!(
            verdict.is_proved(),
            "expected a proof for {before} ≡ {after}: {verdict:?}"
        );
        for db in &instances {
            assert_eq!(
                multiset(&run(db, &b)),
                multiset(&run(db, &a)),
                "proved pair diverged: {before} vs {after}"
            );
        }
    }
}
