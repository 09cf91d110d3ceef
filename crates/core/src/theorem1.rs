//! A decision procedure for Theorem 1's *exact* uniqueness condition on
//! finite domains — used to validate the sufficient tests against the
//! real thing.
//!
//! Theorem 1 quantifies over all tuples of `Domain(R × S)` and all host
//! variable values; testing it is NP-complete in general (paper §4), but
//! over *finite* column domains it is decidable by enumeration. This
//! module implements both sides of the theorem's equivalence:
//!
//! * [`condition_holds`] — the paper's condition (4) verbatim: for every
//!   pair of product tuples and every host binding, if the table
//!   constraints (false-interpreted), the key dependencies (under `=̇`)
//!   and the query predicate (false-interpreted, both tuples) all hold,
//!   then agreement on the projection implies agreement on
//!   `Key(R) ⊕ Key(S)`;
//! * [`duplicates_possible`] — the semantic side: does *any* valid
//!   instance (with at most two rows per table — the paper's necessity
//!   proof shows two suffice) make the `ALL` query produce duplicates?
//!
//! Theorem 1 states `condition_holds ⟺ !duplicates_possible`; the test
//! suite checks that equivalence over randomized small schemas and
//! queries, which reproduces the theorem itself rather than trusting it.
//!
//! Restrictions: the block must be subquery-free (Theorem 1's class) and
//! the enumeration cost is exponential in arity — keep domains tiny.

use uniq_catalog::validate;
use uniq_plan::{BScalar, BoundExpr, BoundSpec, HostVars};
use uniq_sql::CmpOp;
use uniq_types::{Error, HostVarName, Result, Tri, Value};

/// Per-table column domains: `domains[t][c]` lists the values column `c`
/// of `FROM` table `t` may take (include `Value::Null` for nullable
/// columns you want exercised).
pub type Domains = Vec<Vec<Vec<Value>>>;

/// Host-variable domains.
pub type HostDomains = Vec<(HostVarName, Vec<Value>)>;

/// Evaluate a subquery-free bound predicate on one product tuple under
/// three-valued logic. Public so normalization equivalence can be
/// property-tested without an executor.
pub fn eval_predicate(e: &BoundExpr, tuple: &[Value], hv: &HostVars) -> Result<Tri> {
    eval(e, tuple, hv)
}

fn eval(e: &BoundExpr, tuple: &[Value], hv: &HostVars) -> Result<Tri> {
    let scalar = |s: &BScalar| -> Result<Value> {
        match s {
            BScalar::Literal(v) => Ok(v.clone()),
            BScalar::HostVar(h) => Ok(hv.get(h)?.clone()),
            BScalar::Attr(a) if a.is_local() => Ok(tuple[a.idx].clone()),
            BScalar::Attr(_) => Err(Error::internal(
                "Theorem 1 condition is for uncorrelated blocks",
            )),
        }
    };
    match e {
        BoundExpr::Cmp { op, left, right } => op.eval(&scalar(left)?, &scalar(right)?),
        BoundExpr::Between {
            scalar: s,
            low,
            high,
            negated,
        } => {
            let v = scalar(s)?;
            let t = CmpOp::Ge
                .eval(&v, &scalar(low)?)?
                .and(CmpOp::Le.eval(&v, &scalar(high)?)?);
            Ok(if *negated { t.not() } else { t })
        }
        BoundExpr::InList {
            scalar: s,
            list,
            negated,
        } => {
            let v = scalar(s)?;
            let mut t = Tri::False;
            for item in list {
                t = t.or(CmpOp::Eq.eval(&v, &scalar(item)?)?);
            }
            Ok(if *negated { t.not() } else { t })
        }
        BoundExpr::IsNull { scalar: s, negated } => {
            Ok(Tri::from_bool(scalar(s)?.is_null() != *negated))
        }
        BoundExpr::And(a, b) => Ok(eval(a, tuple, hv)?.and(eval(b, tuple, hv)?)),
        BoundExpr::Or(a, b) => Ok(eval(a, tuple, hv)?.or(eval(b, tuple, hv)?)),
        BoundExpr::Not(a) => Ok(eval(a, tuple, hv)?.not()),
        BoundExpr::Exists { .. } | BoundExpr::InSubquery { .. } => Err(Error::internal(
            "Theorem 1's condition is stated for subquery-free predicates",
        )),
    }
}

/// Enumerate every tuple of one table's domain.
fn table_domain(domains: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = vec![Vec::new()];
    for col in domains {
        let mut next = Vec::with_capacity(out.len() * col.len());
        for prefix in &out {
            for v in col {
                let mut t = prefix.clone();
                t.push(v.clone());
                next.push(t);
            }
        }
        out = next;
    }
    out
}

/// Rows of `table` that satisfy its CHECK constraints (true-interpreted,
/// as in a valid instance).
fn checked_rows(spec: &BoundSpec, t: usize, domains: &Domains) -> Result<Vec<Vec<Value>>> {
    let schema = &spec.from[t].schema;
    let mut out = Vec::new();
    'rows: for row in table_domain(&domains[t]) {
        for (c, col) in schema.columns.iter().enumerate() {
            if row[c].is_null() && !col.nullable {
                continue 'rows;
            }
        }
        for check in schema.checks() {
            if !validate::eval_check(schema, &row, check)?.true_interpreted() {
                continue 'rows;
            }
        }
        out.push(row);
    }
    Ok(out)
}

fn all_host_bindings(hosts: &HostDomains) -> Vec<HostVars> {
    let mut out = vec![HostVars::new()];
    for (name, values) in hosts {
        let mut next = Vec::with_capacity(out.len() * values.len());
        for hv in &out {
            for v in values {
                let mut h = hv.clone();
                h.set(name.clone(), v.clone());
                next.push(h);
            }
        }
        out = next;
    }
    out
}

/// Do two rows agree (`=̇`) on the given columns?
fn agree(a: &[Value], b: &[Value], cols: impl IntoIterator<Item = usize>) -> Result<bool> {
    for c in cols {
        if !a[c].null_eq(&b[c])? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The key-dependency antecedent of condition (4): for each candidate key
/// of each table, if `r` and `r'` agree on the key columns they must
/// agree on the whole table block.
fn key_dependencies_hold(spec: &BoundSpec, r: &[Value], r2: &[Value]) -> Result<bool> {
    for t in &spec.from {
        for key in t.schema.candidate_keys() {
            let key_cols = key.columns.iter().map(|&c| t.offset + c);
            if agree(r, r2, key_cols)? && !agree(r, r2, t.attr_range())? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Test the paper's condition (4) by enumeration over the given domains.
///
/// Returns `Ok(true)` iff for **every** pair of product tuples and every
/// host binding, the antecedents imply
/// `(r[A] =̇ r'[A]) ⇒ (r[Key(R) ⊕ Key(S)] =̇ r'[Key(R) ⊕ Key(S)])`,
/// where the key concatenation uses each table's primary (first
/// candidate) key, as in the theorem's statement.
pub fn condition_holds(spec: &BoundSpec, domains: &Domains, hosts: &HostDomains) -> Result<bool> {
    if spec.from.len() != domains.len() {
        return Err(Error::internal("one domain vector per FROM table"));
    }
    for t in &spec.from {
        if !t.schema.has_key() {
            return Err(Error::internal(
                "Theorem 1 requires a candidate key on every table",
            ));
        }
    }
    // Product tuples satisfying the (false-interpreted) table constraints.
    let per_table: Vec<Vec<Vec<Value>>> = (0..spec.from.len())
        .map(|t| checked_rows(spec, t, domains))
        .collect::<Result<_>>()?;
    let mut tuples: Vec<Vec<Value>> = vec![Vec::new()];
    for rows in &per_table {
        let mut next = Vec::with_capacity(tuples.len() * rows.len());
        for prefix in &tuples {
            for row in rows {
                let mut t = prefix.clone();
                t.extend(row.iter().cloned());
                next.push(t);
            }
        }
        tuples = next;
    }
    let proj: Vec<usize> = spec.projection.iter().map(|p| p.attr).collect();
    let key_attrs: Vec<usize> = spec
        .from
        .iter()
        .flat_map(|t| {
            t.schema
                .candidate_keys()
                .next()
                .expect("checked above")
                .columns
                .iter()
                .map(|&c| t.offset + c)
                .collect::<Vec<_>>()
        })
        .collect();

    for hv in all_host_bindings(hosts) {
        // Tuples passing the query predicate under this binding.
        let mut qualifying: Vec<&Vec<Value>> = Vec::new();
        for t in &tuples {
            let passes = match &spec.predicate {
                None => true,
                Some(p) => eval(p, t, &hv)?.false_interpreted(),
            };
            if passes {
                qualifying.push(t);
            }
        }
        for (i, r) in qualifying.iter().enumerate() {
            for r2 in &qualifying[i..] {
                if !key_dependencies_hold(spec, r, r2)? {
                    continue;
                }
                if agree(r, r2, proj.iter().copied())? && !agree(r, r2, key_attrs.iter().copied())?
                {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// The semantic side: does some valid instance with at most two rows per
/// table (sufficient by the necessity proof) make the `ALL` projection
/// produce duplicate rows?
pub fn duplicates_possible(
    spec: &BoundSpec,
    domains: &Domains,
    hosts: &HostDomains,
) -> Result<bool> {
    let per_table: Vec<Vec<Vec<Value>>> = (0..spec.from.len())
        .map(|t| checked_rows(spec, t, domains))
        .collect::<Result<_>>()?;
    // Valid ≤2-row instances per table: all pairs (i ≤ j, keys compatible).
    let mut instances_per_table: Vec<Vec<Vec<&Vec<Value>>>> = Vec::new();
    for (t, rows) in per_table.iter().enumerate() {
        let schema = &spec.from[t].schema;
        let mut instances: Vec<Vec<&Vec<Value>>> = Vec::new();
        for (i, a) in rows.iter().enumerate() {
            instances.push(vec![a]);
            'second: for b in &rows[i + 1..] {
                for key in schema.candidate_keys() {
                    if validate::key_conflict(&key.columns, a, b)? {
                        continue 'second;
                    }
                }
                instances.push(vec![a, b]);
            }
        }
        instances_per_table.push(instances);
    }

    let proj: Vec<usize> = spec.projection.iter().map(|p| p.attr).collect();
    let bindings = all_host_bindings(hosts);

    // Enumerate instance combinations.
    fn combos<'a>(per_table: &'a [Vec<Vec<&'a Vec<Value>>>]) -> Vec<Vec<&'a Vec<&'a Vec<Value>>>> {
        let mut out: Vec<Vec<&Vec<&Vec<Value>>>> = vec![Vec::new()];
        for table in per_table {
            let mut next = Vec::with_capacity(out.len() * table.len());
            for prefix in &out {
                for inst in table {
                    let mut c = prefix.clone();
                    c.push(inst);
                    next.push(c);
                }
            }
            out = next;
        }
        out
    }

    for combo in combos(&instances_per_table) {
        // The product of the chosen instances.
        let mut product: Vec<Vec<Value>> = vec![Vec::new()];
        for inst in &combo {
            let mut next = Vec::with_capacity(product.len() * inst.len());
            for prefix in &product {
                for row in inst.iter() {
                    let mut t = prefix.clone();
                    t.extend(row.iter().cloned());
                    next.push(t);
                }
            }
            product = next;
        }
        for hv in &bindings {
            let mut seen: Vec<Vec<Value>> = Vec::new();
            for tuple in &product {
                let passes = match &spec.predicate {
                    None => true,
                    Some(p) => eval(p, tuple, hv)?.false_interpreted(),
                };
                if !passes {
                    continue;
                }
                let projected: Vec<Value> = proj.iter().map(|&a| tuple[a].clone()).collect();
                if seen
                    .iter()
                    .any(|s| uniq_types::value::tuple_null_eq(s, &projected).unwrap_or(false))
                {
                    return Ok(true);
                }
                seen.push(projected);
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    fn setup(ddl: &str, sql: &str) -> BoundSpec {
        let mut db = uniq_catalog::Database::new();
        db.run_script(ddl).unwrap();
        bind_query(db.catalog(), &parse_query(sql).unwrap())
            .unwrap()
            .as_spec()
            .unwrap()
            .clone()
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn key_projection_satisfies_condition() {
        let spec = setup(
            "CREATE TABLE R (K INTEGER, A INTEGER, PRIMARY KEY (K))",
            "SELECT DISTINCT R.K FROM R",
        );
        let domains = vec![vec![ints(&[1, 2]), ints(&[5, 6])]];
        assert!(condition_holds(&spec, &domains, &vec![]).unwrap());
        assert!(!duplicates_possible(&spec, &domains, &vec![]).unwrap());
    }

    #[test]
    fn non_key_projection_fails_condition_and_duplicates_exist() {
        let spec = setup(
            "CREATE TABLE R (K INTEGER, A INTEGER, PRIMARY KEY (K))",
            "SELECT DISTINCT R.A FROM R",
        );
        let domains = vec![vec![ints(&[1, 2]), ints(&[5, 6])]];
        assert!(!condition_holds(&spec, &domains, &vec![]).unwrap());
        assert!(duplicates_possible(&spec, &domains, &vec![]).unwrap());
    }

    #[test]
    fn type1_binding_restores_uniqueness() {
        let spec = setup(
            "CREATE TABLE R (K INTEGER, A INTEGER, PRIMARY KEY (K))",
            "SELECT DISTINCT R.A FROM R WHERE R.K = 1",
        );
        let domains = vec![vec![ints(&[1, 2]), ints(&[5, 6])]];
        assert!(condition_holds(&spec, &domains, &vec![]).unwrap());
        assert!(!duplicates_possible(&spec, &domains, &vec![]).unwrap());
    }

    #[test]
    fn host_variable_binding_counts_as_constant() {
        let spec = setup(
            "CREATE TABLE R (K INTEGER, A INTEGER, PRIMARY KEY (K))",
            "SELECT DISTINCT R.A FROM R WHERE R.K = :H",
        );
        let domains = vec![vec![ints(&[1, 2]), ints(&[5, 6])]];
        let hosts = vec![("H".into(), ints(&[1, 2]))];
        assert!(condition_holds(&spec, &domains, &hosts).unwrap());
        assert!(!duplicates_possible(&spec, &domains, &hosts).unwrap());
    }

    #[test]
    fn check_constraint_can_make_condition_hold() {
        // CHECK pins K to 7: every qualifying row has the same key, so any
        // projection is duplicate-free. Algorithm 1 ignores checks and
        // answers NO; the exact condition answers YES — the gap §4.1
        // acknowledges.
        let spec = setup(
            "CREATE TABLE R (K INTEGER, A INTEGER, PRIMARY KEY (K), CHECK (K = 7))",
            "SELECT DISTINCT R.A FROM R",
        );
        let domains = vec![vec![ints(&[6, 7, 8]), ints(&[5, 6])]];
        assert!(condition_holds(&spec, &domains, &vec![]).unwrap());
        assert!(!duplicates_possible(&spec, &domains, &vec![]).unwrap());
        let alg1 =
            crate::algorithm1::algorithm1(&spec, &crate::algorithm1::Algorithm1Options::default());
        assert!(!alg1.unique, "Algorithm 1 ignores table constraints");
    }

    #[test]
    fn two_table_join_on_keys() {
        let ddl = "CREATE TABLE R (K INTEGER, A INTEGER, PRIMARY KEY (K));
                   CREATE TABLE S (J INTEGER, B INTEGER, PRIMARY KEY (J));";
        let both = |sql: &str| -> (bool, bool) {
            let spec = setup(ddl, sql);
            let domains = vec![
                vec![ints(&[1, 2]), ints(&[5, 6])],
                vec![ints(&[1, 2]), ints(&[5, 6])],
            ];
            (
                condition_holds(&spec, &domains, &vec![]).unwrap(),
                duplicates_possible(&spec, &domains, &vec![]).unwrap(),
            )
        };
        // Keys of both tables projected: unique.
        let (cond, dup) = both("SELECT DISTINCT R.K, S.J FROM R, S WHERE R.K = S.J");
        assert!(cond && !dup);
        // Only non-keys projected: duplicates possible.
        let (cond, dup) = both("SELECT DISTINCT R.A, S.B FROM R, S WHERE R.K = S.J");
        assert!(!cond && dup);
    }

    #[test]
    fn nullable_unique_key_with_null_domain() {
        // UNIQUE key with NULLs: =̇ treats NULL as a value, so projecting
        // the unique column is still duplicate-free.
        let spec = setup(
            "CREATE TABLE R (K INTEGER NOT NULL, U INTEGER, A INTEGER, \
             PRIMARY KEY (K), UNIQUE (U))",
            "SELECT DISTINCT R.U FROM R",
        );
        let mut u_domain = ints(&[1, 2]);
        u_domain.push(Value::Null);
        let domains = vec![vec![ints(&[1, 2]), u_domain, ints(&[9])]];
        // Projection is the UNIQUE candidate key U... but the theorem's
        // consequent uses the PRIMARY key K, which U determines through
        // the key dependency antecedent.
        assert!(condition_holds(&spec, &domains, &vec![]).unwrap());
        assert!(!duplicates_possible(&spec, &domains, &vec![]).unwrap());
    }

    #[test]
    fn subquery_predicates_are_rejected() {
        let db = uniq_catalog::sample::supplier_schema().unwrap();
        let bound = bind_query(
            db.catalog(),
            &parse_query(
                "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE EXISTS \
                 (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
            )
            .unwrap(),
        )
        .unwrap();
        let spec = bound.as_spec().unwrap();
        let domains = vec![vec![ints(&[1]); 5]];
        assert!(condition_holds(spec, &domains, &vec![]).is_err());
    }
}
