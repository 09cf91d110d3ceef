//! Row-level constraint validation.
//!
//! Everything the paper's theorems assume about a *valid instance* is
//! enforced here:
//!
//! * declared types and nullability;
//! * `CHECK` conditions, *true-interpreted* (`⌈·⌉`, paper Table 2): a row
//!   is rejected only when the condition evaluates to definitely false —
//!   an unknown outcome (from a `NULL`) satisfies the constraint, per SQL2;
//! * candidate-key uniqueness under the `=̇` comparison: two rows conflict
//!   when *every* key column pair is `null_eq`-equivalent, which yields the
//!   paper's §2.1 rule that an instance may hold at most one row whose
//!   single-column `UNIQUE` key is `NULL`.

use crate::table::TableSchema;
use uniq_sql::{CmpOp, Expr, Scalar};
use uniq_types::{Error, Result, Tri, Value};

/// Validate a row's shape, types and nullability against `schema`.
pub fn validate_shape(schema: &TableSchema, row: &[Value]) -> Result<()> {
    if row.len() != schema.arity() {
        return Err(Error::ConstraintViolation {
            table: schema.name.to_string(),
            message: format!(
                "row has {} values, table has {} columns",
                row.len(),
                schema.arity()
            ),
        });
    }
    for (col, v) in schema.columns.iter().zip(row) {
        if v.is_null() {
            if !col.nullable {
                return Err(Error::ConstraintViolation {
                    table: schema.name.to_string(),
                    message: format!("column {} is NOT NULL", col.name),
                });
            }
        } else if v.data_type() != Some(col.data_type) {
            return Err(Error::ConstraintViolation {
                table: schema.name.to_string(),
                message: format!("column {} expects {}, got {v}", col.name, col.data_type),
            });
        }
    }
    Ok(())
}

/// Validate a row against every `CHECK` constraint (true-interpreted).
pub fn validate_checks(schema: &TableSchema, row: &[Value]) -> Result<()> {
    for check in schema.checks() {
        let t = eval_check(schema, row, check)?;
        if !t.true_interpreted() {
            return Err(Error::ConstraintViolation {
                table: schema.name.to_string(),
                message: format!("CHECK ({check}) failed"),
            });
        }
    }
    Ok(())
}

/// Does `row` conflict with `existing` on candidate key `key_cols` under
/// the `=̇` comparison? (All key columns pairwise `null_eq`.)
pub fn key_conflict(key_cols: &[usize], row: &[Value], existing: &[Value]) -> Result<bool> {
    for &i in key_cols {
        if !row[i].null_eq(&existing[i])? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Validate key uniqueness of `row` against every stored row.
pub fn validate_keys<'a>(
    schema: &TableSchema,
    row: &[Value],
    existing: impl Iterator<Item = &'a [Value]>,
) -> Result<()> {
    let keys: Vec<_> = schema.candidate_keys().collect();
    if keys.is_empty() {
        return Ok(());
    }
    for old in existing {
        for key in &keys {
            if key_conflict(&key.columns, row, old)? {
                let desc: Vec<String> = key
                    .columns
                    .iter()
                    .map(|&i| format!("{}={}", schema.columns[i].name, row[i]))
                    .collect();
                return Err(Error::ConstraintViolation {
                    table: schema.name.to_string(),
                    message: format!(
                        "{} key violation on ({})",
                        if key.primary { "primary" } else { "unique" },
                        desc.join(", ")
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Evaluate a `CHECK` search condition on a single row of `schema`.
///
/// `CHECK` conditions may reference only this table's columns and literal
/// constants — no host variables, no subqueries (SQL2 restricts check
/// constraints to conditions testable on the row alone, and the paper uses
/// nothing more).
pub fn eval_check(schema: &TableSchema, row: &[Value], expr: &Expr) -> Result<Tri> {
    let scalar = |s: &Scalar| -> Result<Value> {
        match s {
            Scalar::Literal(v) => Ok(v.clone()),
            Scalar::Column(c) => {
                if let Some(q) = &c.qualifier {
                    if q.as_str() != schema.name.as_str() {
                        return Err(Error::bind(format!(
                            "CHECK on {} references foreign qualifier {q}",
                            schema.name
                        )));
                    }
                }
                let i = schema.column_position(&c.column)?;
                Ok(row[i].clone())
            }
            Scalar::HostVar(h) => Err(Error::bind(format!(
                "host variable :{h} not allowed in CHECK constraint"
            ))),
        }
    };
    match expr {
        Expr::Cmp { op, left, right } => op.eval(&scalar(left)?, &scalar(right)?),
        Expr::Between {
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
        Expr::InList {
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
        Expr::IsNull { scalar: s, negated } => {
            let is_null = scalar(s)?.is_null();
            Ok(Tri::from_bool(is_null != *negated))
        }
        Expr::And(a, b) => Ok(eval_check(schema, row, a)?.and(eval_check(schema, row, b)?)),
        Expr::Or(a, b) => Ok(eval_check(schema, row, a)?.or(eval_check(schema, row, b)?)),
        Expr::Not(a) => Ok(eval_check(schema, row, a)?.not()),
        Expr::Exists { .. } | Expr::InSubquery { .. } => Err(Error::bind(
            "subqueries are not allowed in CHECK constraints",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableSchema;
    use uniq_sql::{parse_statement, Statement};
    use uniq_types::Value;

    fn schema(sql: &str) -> TableSchema {
        match parse_statement(sql).unwrap() {
            Statement::CreateTable(ct) => TableSchema::from_ast(&ct).unwrap(),
            _ => panic!(),
        }
    }

    fn supplier() -> TableSchema {
        schema(
            "CREATE TABLE SUPPLIER (SNO INTEGER, SNAME VARCHAR, SCITY VARCHAR, \
             BUDGET INTEGER, STATUS VARCHAR, PRIMARY KEY (SNO), \
             CHECK (SNO BETWEEN 1 AND 499), \
             CHECK (SCITY IN ('Chicago', 'New York', 'Toronto')), \
             CHECK (BUDGET <> 0 OR STATUS = 'Inactive'))",
        )
    }

    fn row(sno: i64, scity: &str, budget: Option<i64>, status: &str) -> Vec<Value> {
        vec![
            Value::Int(sno),
            Value::str("name"),
            Value::str(scity),
            budget.map(Value::Int).unwrap_or(Value::Null),
            Value::str(status),
        ]
    }

    #[test]
    fn valid_row_passes() {
        let s = supplier();
        let r = row(10, "Toronto", Some(100), "Active");
        validate_shape(&s, &r).unwrap();
        validate_checks(&s, &r).unwrap();
    }

    #[test]
    fn out_of_range_sno_fails_between_check() {
        let s = supplier();
        assert!(validate_checks(&s, &row(500, "Toronto", Some(1), "A")).is_err());
        assert!(validate_checks(&s, &row(0, "Toronto", Some(1), "A")).is_err());
    }

    #[test]
    fn city_not_in_list_fails() {
        let s = supplier();
        assert!(validate_checks(&s, &row(10, "Ottawa", Some(1), "A")).is_err());
    }

    #[test]
    fn implication_constraint() {
        let s = supplier();
        // BUDGET = 0 requires STATUS = 'Inactive'.
        assert!(validate_checks(&s, &row(10, "Toronto", Some(0), "Active")).is_err());
        validate_checks(&s, &row(10, "Toronto", Some(0), "Inactive")).unwrap();
    }

    #[test]
    fn check_with_null_is_satisfied_true_interpreted() {
        let s = supplier();
        // NULL budget: BUDGET <> 0 is unknown, STATUS = 'Active' false →
        // overall unknown → passes (⌈·⌉).
        validate_checks(&s, &row(10, "Toronto", None, "Active")).unwrap();
    }

    #[test]
    fn not_null_enforced() {
        let s = supplier();
        let mut r = row(10, "Toronto", Some(1), "A");
        r[0] = Value::Null; // SNO is primary key → NOT NULL
        assert!(validate_shape(&s, &r).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = supplier();
        let mut r = row(10, "Toronto", Some(1), "A");
        r[0] = Value::str("not an int");
        assert!(validate_shape(&s, &r).is_err());
    }

    #[test]
    fn primary_key_uniqueness() {
        let s = supplier();
        let a = row(10, "Toronto", Some(1), "A");
        let b = row(10, "Chicago", Some(2), "B");
        let existing = [a.as_slice()];
        assert!(validate_keys(&s, &b, existing.iter().copied()).is_err());
        let c = row(11, "Chicago", Some(2), "B");
        validate_keys(&s, &c, existing.iter().copied()).unwrap();
    }

    #[test]
    fn unique_key_treats_null_as_special_value() {
        // Paper §2.1: only one PARTS row may have OEM-PNO = NULL.
        let s = schema(
            "CREATE TABLE PARTS (SNO INTEGER, PNO INTEGER, OEM-PNO INTEGER, \
             PRIMARY KEY (SNO, PNO), UNIQUE (OEM-PNO))",
        );
        let a = vec![Value::Int(1), Value::Int(1), Value::Null];
        let b = vec![Value::Int(1), Value::Int(2), Value::Null];
        let existing = [a.as_slice()];
        let err = validate_keys(&s, &b, existing.iter().copied()).unwrap_err();
        assert!(err.to_string().contains("unique key violation"), "{err}");
    }

    #[test]
    fn subquery_in_check_rejected() {
        let s = schema("CREATE TABLE T (A INTEGER)");
        let e = uniq_sql::parse_expr("EXISTS (SELECT * FROM T WHERE A = 1)").unwrap();
        assert!(eval_check(&s, &[Value::Int(1)], &e).is_err());
    }
}
