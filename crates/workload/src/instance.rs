//! Random *valid* instances of the Figure 1 schema, for property tests.
//!
//! Values are drawn from deliberately tiny domains so that interesting
//! coincidences — duplicate names, shared parts, `NULL` candidate-key
//! values — occur with high probability in small instances. Constraint
//! enforcement in [`uniq_catalog::Database::insert`] guarantees validity;
//! rows that would violate a key are simply skipped (rejection sampling),
//! which keeps the generator total.

use crate::rng::SplitMix64;
use uniq_catalog::Database;
use uniq_engine::Session;
use uniq_types::{Result, Value};

/// Generate a random valid instance with roughly the requested row
/// counts (key collisions may make tables slightly smaller).
pub fn random_instance(
    seed: u64,
    suppliers: usize,
    parts: usize,
    agents: usize,
) -> Result<Database> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut db = uniq_catalog::sample::supplier_schema()?;
    let names = ["Acme", "Globex", "Initech"];
    let cities = ["Chicago", "New York", "Toronto"];
    let colors = ["RED", "GREEN", "BLUE"];
    let supplier = "SUPPLIER".into();
    let parts_t = "PARTS".into();
    let agents_t = "AGENTS".into();

    let mut snos: Vec<i64> = Vec::new();
    for _ in 0..suppliers {
        let sno = rng.gen_range(1..=20);
        let budget = if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(1..=5))
        };
        let row = vec![
            Value::Int(sno),
            if rng.gen_bool(0.15) {
                Value::Null
            } else {
                Value::str(names[rng.gen_range(0..names.len())])
            },
            Value::str(cities[rng.gen_range(0..cities.len())]),
            budget,
            Value::str("Active"),
        ];
        if db.insert(&supplier, row).is_ok() {
            snos.push(sno);
        }
    }
    for _ in 0..parts {
        if snos.is_empty() {
            break;
        }
        let sno = snos[rng.gen_range(0..snos.len())];
        let row = vec![
            Value::Int(sno),
            Value::Int(rng.gen_range(1..=6)),
            Value::str(format!("part{}", rng.gen_range(1..=3))),
            if rng.gen_bool(0.3) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(100..=120))
            },
            Value::str(colors[rng.gen_range(0..colors.len())]),
        ];
        let _ = db.insert(&parts_t, row); // rejection sampling on key clash
    }
    for _ in 0..agents {
        if snos.is_empty() {
            break;
        }
        let sno = snos[rng.gen_range(0..snos.len())];
        let row = vec![
            Value::Int(sno),
            Value::Int(rng.gen_range(1..=4)),
            Value::str(format!("agent{}", rng.gen_range(1..=3))),
            Value::str(if rng.gen_bool(0.5) { "Ottawa" } else { "Hull" }),
        ];
        let _ = db.insert(&agents_t, row);
    }
    Ok(db)
}

/// A row-oracle / columnar session pair over the *same* random
/// instance: the first is the unanalyzed row executor (the correctness
/// oracle), the second is analyzed, so its cost-based plans run every
/// covered block on the columnar kernels over a dictionary-encoded copy
/// of the instance. The fixture every columnar agreement property test
/// starts from.
pub fn columnar_session_pair(
    seed: u64,
    suppliers: usize,
    parts: usize,
    agents: usize,
) -> Result<(Session, Session)> {
    let db = random_instance(seed, suppliers, parts, agents)?;
    let oracle = Session::new(db.clone());
    Ok((oracle, Session::new(db).with_cost_based()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_valid_and_nonempty() {
        for seed in 0..20 {
            let db = random_instance(seed, 10, 20, 10).unwrap();
            // Validity is enforced by construction; sanity-check shape.
            assert!(db.row_count(&"SUPPLIER".into()).unwrap() <= 10);
            let parts = db.rows(&"PARTS".into()).unwrap();
            // At most one NULL OEM-PNO (paper §2.1).
            let nulls = parts.iter().filter(|r| r[3].is_null()).count();
            assert!(nulls <= 1, "seed {seed}: {nulls} NULL OEM-PNOs");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_instance(7, 10, 20, 5).unwrap();
        let b = random_instance(7, 10, 20, 5).unwrap();
        assert_eq!(
            a.rows(&"PARTS".into()).unwrap(),
            b.rows(&"PARTS".into()).unwrap()
        );
    }

    #[test]
    fn columnar_pair_shares_the_instance_and_licenses_columnar() {
        let (oracle, columnar) = columnar_session_pair(11, 10, 20, 10).unwrap();
        let sql = "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
                   WHERE P.SNO = S.SNO AND P.COLOR = 'RED'";
        let a = oracle.query(sql).unwrap();
        let b = columnar.query(sql).unwrap();
        let sort = |mut rows: Vec<Vec<Value>>| {
            rows.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            rows
        };
        assert_eq!(sort(a.rows), sort(b.rows));
        assert_eq!(a.stats.vector_ops, 0, "oracle stays on the row path");
        assert!(b.stats.vector_ops > 0, "pair must exercise the kernels");
    }

    #[test]
    fn duplicate_names_occur() {
        // The tiny name pool must produce duplicate-name suppliers in
        // some seed quickly (Example 2's precondition).
        let found = (0..50).any(|seed| {
            let db = random_instance(seed, 10, 0, 0).unwrap();
            let rows = db.rows(&"SUPPLIER".into()).unwrap();
            rows.iter().enumerate().any(|(i, r)| {
                rows.range(..i)
                    .iter()
                    .any(|q| !r[1].is_null() && r[1] == q[1])
            })
        });
        assert!(found);
    }
}
