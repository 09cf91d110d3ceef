//! Rule 1 (§5.1): remove a redundant `DISTINCT`.
//!
//! A `SELECT DISTINCT` block whose result is provably duplicate-free
//! (Theorem 1) may drop duplicate elimination — and with it, typically, a
//! sort of the entire result. The rule consults both sufficient tests:
//! the paper's Algorithm 1 and the FD-closure test, which subsumes it
//! (see [`crate::analysis`]); YES from either suffices, since both are
//! sound, and [`UniquenessTest`] restricts the rule to one of them.

use crate::algorithm1::{algorithm1, Algorithm1Options};
use crate::analysis::unique_projection;
use crate::rules::{Justification, RewriteRule, RuleContext};
use uniq_plan::BoundSpec;
use uniq_sql::Distinct;

/// Which uniqueness test(s) a rewrite may consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UniquenessTest {
    /// Only the paper's Algorithm 1.
    Algorithm1,
    /// Only the FD-closure test.
    FdClosure,
    /// Either may answer YES (the default: strictly strongest).
    Both,
}

/// Decide whether `spec`'s result is provably duplicate-free under the
/// chosen test(s); returns the justification on success.
pub fn is_provably_unique(spec: &BoundSpec, test: UniquenessTest) -> Option<String> {
    if matches!(test, UniquenessTest::FdClosure | UniquenessTest::Both) {
        let r = unique_projection(spec);
        if r.unique {
            return Some(r.reason);
        }
    }
    if matches!(test, UniquenessTest::Algorithm1 | UniquenessTest::Both) {
        let out = algorithm1(spec, &Algorithm1Options::default());
        if out.unique {
            return Some("Algorithm 1 answers YES".into());
        }
    }
    None
}

/// A per-`optimize` memo of uniqueness-test verdicts.
///
/// The fixpoint pipeline asks [`is_provably_unique`] about the same
/// block repeatedly: several rules consult it within one pass (a
/// Corollary 1 merge and a Theorem 1 `DISTINCT` removal both test the
/// outer block), and every pass after a rewrite re-asks about blocks
/// the rewrite left untouched. Algorithm 1's CNF→DNF conversion makes
/// each ask potentially exponential in the predicate, so the pipeline
/// records each `(block, test)` verdict and answers repeats from the
/// memo. Keys compare with full structural equality (`BoundSpec:
/// PartialEq`), so a memo hit is exact — never a hash gamble.
#[derive(Debug, Default)]
pub struct UniquenessMemo {
    entries: Vec<(BoundSpec, UniquenessTest, Option<String>)>,
    /// Verdicts computed by running the underlying test(s).
    pub computed: u64,
    /// Verdicts answered from the memo.
    pub reused: u64,
}

impl UniquenessMemo {
    /// An empty memo.
    pub fn new() -> UniquenessMemo {
        UniquenessMemo::default()
    }

    /// Memoized [`is_provably_unique`].
    pub fn is_provably_unique(&mut self, spec: &BoundSpec, test: UniquenessTest) -> Option<String> {
        if let Some((_, _, verdict)) = self
            .entries
            .iter()
            .find(|(s, t, _)| *t == test && s == spec)
        {
            self.reused += 1;
            return verdict.clone();
        }
        let verdict = is_provably_unique(spec, test);
        self.computed += 1;
        self.entries.push((spec.clone(), test, verdict.clone()));
        verdict
    }
}

/// Rule 1: remove the `DISTINCT` of a block when Theorem 1 proves it
/// redundant. The single code path is [`RewriteRule::apply_spec`];
/// [`remove_redundant_distinct`] is a thin shim over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistinctRemoval;

impl RewriteRule for DistinctRemoval {
    fn name(&self) -> &'static str {
        "distinct-removal"
    }

    fn theorem(&self) -> &'static str {
        "Theorem 1"
    }

    fn apply_spec(
        &self,
        spec: &BoundSpec,
        cx: &mut RuleContext,
    ) -> Option<(BoundSpec, Justification)> {
        if spec.distinct != Distinct::Distinct {
            return None;
        }
        let reason = cx.is_provably_unique(spec)?;
        let mut rewritten = spec.clone();
        rewritten.distinct = Distinct::All;
        Some((
            rewritten,
            Justification::new(
                "Theorem 1",
                format!("DISTINCT is redundant (Theorem 1): {reason}"),
            ),
        ))
    }
}

/// Standalone form of [`DistinctRemoval`] (a shim over the one
/// context-taking code path, for callers outside the pipeline).
pub fn remove_redundant_distinct(
    spec: &BoundSpec,
    test: UniquenessTest,
) -> Option<(BoundSpec, String)> {
    let mut cx = RuleContext::new(test);
    DistinctRemoval
        .apply_spec(spec, &mut cx)
        .map(|(s, j)| (s, j.detail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_schema;
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    fn spec_of(sql: &str) -> BoundSpec {
        let db = supplier_schema().unwrap();
        bind_query(db.catalog(), &parse_query(sql).unwrap())
            .unwrap()
            .as_spec()
            .unwrap()
            .clone()
    }

    #[test]
    fn removes_distinct_on_example_1() {
        let spec = spec_of(
            "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let (rw, why) = remove_redundant_distinct(&spec, UniquenessTest::Both).unwrap();
        assert_eq!(rw.distinct, Distinct::All);
        assert!(why.contains("Theorem 1"), "{why}");
    }

    #[test]
    fn keeps_distinct_on_example_2() {
        let spec = spec_of(
            "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        assert!(remove_redundant_distinct(&spec, UniquenessTest::Both).is_none());
    }

    #[test]
    fn no_op_on_select_all() {
        let spec = spec_of("SELECT ALL S.SNO FROM SUPPLIER S");
        assert!(remove_redundant_distinct(&spec, UniquenessTest::Both).is_none());
    }

    #[test]
    fn fd_test_catches_what_algorithm_1_misses() {
        // No predicate, keys projected: Algorithm 1's line 10 gives up,
        // the FD closure does not.
        let spec = spec_of("SELECT DISTINCT S.SNO, S.SCITY FROM SUPPLIER S");
        assert!(remove_redundant_distinct(&spec, UniquenessTest::Algorithm1).is_none());
        assert!(remove_redundant_distinct(&spec, UniquenessTest::FdClosure).is_some());
        assert!(remove_redundant_distinct(&spec, UniquenessTest::Both).is_some());
    }

    #[test]
    fn memo_reuses_verdicts_per_block_and_test() {
        let spec = spec_of("SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 1");
        let mut memo = UniquenessMemo::new();
        let fresh = memo.is_provably_unique(&spec, UniquenessTest::Both);
        let replay = memo.is_provably_unique(&spec, UniquenessTest::Both);
        assert_eq!(fresh, replay);
        assert_eq!((memo.computed, memo.reused), (1, 1));
        // A different test selection is a distinct memo entry.
        memo.is_provably_unique(&spec, UniquenessTest::FdClosure);
        assert_eq!(memo.computed, 2);
        // A different block is too.
        let other = spec_of("SELECT DISTINCT S.SNO FROM SUPPLIER S");
        memo.is_provably_unique(&other, UniquenessTest::Both);
        assert_eq!(memo.computed, 3);
    }

    #[test]
    fn fd_test_subsumes_algorithm_1_on_transitive_key_inference() {
        // Binding PARTS' candidate key OEM-PNO determines P.SNO through
        // the key dependency, which binds SUPPLIER's key via the join
        // predicate. Algorithm 1's V has no key dependencies to close
        // over, so only the FD test answers YES.
        let spec = spec_of(
            "SELECT DISTINCT P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE P.OEM-PNO = :OEM AND S.SNO = P.SNO",
        );
        assert!(remove_redundant_distinct(&spec, UniquenessTest::Algorithm1).is_none());
        assert!(remove_redundant_distinct(&spec, UniquenessTest::FdClosure).is_some());
    }
}
