//! Answer checks and failure accounting.
//!
//! Every answer is reduced to an [`Answer`]: its row count plus a hash
//! that is order-insensitive (a multiset hash) unless the query's
//! `ORDER BY` fixes the order. Expected answers come from
//! `Session::query_unoptimized` — no rewrites, static executor — over
//! the same data the server loaded.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use uniq_catalog::Database;
use uniq_engine::Session;
use uniq_plan::HostVars;
use uniq_types::Value;

use crate::data::TABLES;
use crate::ops::{is_ordered, shape_sql, Op, Plan, Write, KEY_PINNED};

/// A result set reduced to what the checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    rows: usize,
    hash: u64,
}

fn row_hash(row: &[Value]) -> u64 {
    let mut hasher = DefaultHasher::new();
    row.hash(&mut hasher);
    hasher.finish()
}

impl Answer {
    /// Reduce `rows`; `ordered` makes the row sequence significant.
    pub fn of(rows: &[Vec<Value>], ordered: bool) -> Answer {
        let hash = if ordered {
            let mut hasher = DefaultHasher::new();
            for row in rows {
                row_hash(row).hash(&mut hasher);
            }
            hasher.finish()
        } else {
            rows.iter()
                .fold(0u64, |sum, row| sum.wrapping_add(row_hash(row)))
        };
        Answer {
            rows: rows.len(),
            hash,
        }
    }

    /// The answer to `sql` given `rows`.
    pub fn for_sql(sql: &str, rows: &[Vec<Value>]) -> Answer {
        Answer::of(rows, is_ordered(sql))
    }

    /// A different answer with as many rows: what a wrong row looks like.
    #[cfg(test)]
    pub fn corrupted(self) -> Answer {
        Answer {
            rows: self.rows,
            hash: self.hash ^ 1,
        }
    }
}

/// The reference evaluator: no rewrites, static executor.
pub struct Oracle {
    session: Session,
}

impl Oracle {
    /// An oracle over a copy of `db`.
    pub fn new(db: &Database) -> Oracle {
        Oracle {
            session: Session::new(db.clone()),
        }
    }

    /// The expected answer to `sql`.
    pub fn answer(&self, sql: &str) -> Result<Answer, String> {
        self.session
            .query_unoptimized(sql, &HostVars::new())
            .map(|out| Answer::for_sql(sql, &out.rows))
            .map_err(|e| format!("oracle: {sql}: {e}"))
    }

    /// Apply a write to the oracle's data.
    pub fn apply(&mut self, sql: &str) -> Result<(), String> {
        self.session
            .run_script(sql)
            .map_err(|e| format!("oracle: {sql}: {e}"))
    }

    /// Expected answers for many texts, split over two threads.
    pub fn answers(&self, texts: &[String]) -> Result<Vec<Answer>, String> {
        let half = texts.len().div_ceil(2);
        std::thread::scope(|scope| {
            let tail = scope.spawn(|| {
                texts[half..]
                    .iter()
                    .map(|t| self.answer(t))
                    .collect::<Result<Vec<_>, _>>()
            });
            let mut head = texts[..half]
                .iter()
                .map(|t| self.answer(t))
                .collect::<Result<Vec<_>, _>>()?;
            head.extend(tail.join().expect("oracle worker panicked")?);
            Ok(head)
        })
    }
}

/// Ops attempted and failed, with the first failures described.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops and end-of-run checks attempted.
    pub attempted: u64,
    /// Error frames, wrong answers, missing deltas and dropped
    /// subscriptions.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one failure.
    pub fn fail(&mut self, note: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    /// Compare an answer with the expected one; a mismatch fails.
    pub fn check(&mut self, sql: &str, got: Answer, want: Answer) {
        if got != want {
            self.fail(format!(
                "wrong answer ({} rows, want {}): {sql}",
                got.rows, want.rows
            ));
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What a timed op returned, kept for the checks after the timed phase.
#[derive(Debug, Clone, PartialEq)]
pub enum Logged {
    /// A read of `Plan::texts[i]` and its answer.
    Read(usize, Answer),
    /// A never-seen read of `SHAPES[shape]` with key `key`, and its
    /// answer.
    Adhoc {
        /// Index into `SHAPES`.
        shape: usize,
        /// The key literal.
        key: i64,
        /// What came back.
        answer: Answer,
    },
    /// An acknowledged write.
    Write(String),
}

impl Logged {
    /// The log entry for `op` answered with `answer` (a read) or
    /// acknowledged (a write).
    pub fn of(op: &Op, answer: Answer) -> Logged {
        match op {
            Op::Read(i) => Logged::Read(*i, answer),
            Op::Adhoc { shape, key, .. } => Logged::Adhoc {
                shape: *shape,
                key: *key,
                answer,
            },
            Op::Write(w) => Logged::Write(w.sql().to_string()),
        }
    }
}

/// Expected answers of never-seen reads, which only `oltp` sends, over
/// the unchanged data. A key-pinned shape (`SHAPES[..KEY_PINNED]`) can
/// only reach rows whose `SNO` is its key, so it is answered by
/// `query_unoptimized` over a copy holding just those rows — the full
/// static executor re-hashes all 20,000 parts per join, ~12 ms a text,
/// against ~10,000 never-seen texts a run. The other shapes go to the
/// full oracle.
fn check_adhoc(
    db: &Database,
    full: &Oracle,
    log: &[Logged],
    tally: &mut Tally,
) -> Result<(), String> {
    let mut pinned: HashMap<i64, Vec<(usize, Answer)>> = HashMap::new();
    let mut rest: Vec<(String, Answer)> = Vec::new();
    for entry in log {
        if let Logged::Adhoc { shape, key, answer } = entry {
            if *shape < KEY_PINNED {
                pinned.entry(*key).or_default().push((*shape, *answer));
            } else {
                rest.push((shape_sql(*shape, *key), *answer));
            }
        }
    }
    if !pinned.is_empty() {
        let mut empty = db.clone();
        let mut by_key: HashMap<(&str, i64), Vec<Vec<Value>>> = HashMap::new();
        for table in TABLES {
            let name = table.into();
            for row in db.rows(&name).map_err(|e| format!("{table}: {e}"))? {
                if let Value::Int(sno) = row[0] {
                    if pinned.contains_key(&sno) {
                        by_key.entry((table, sno)).or_default().push(row.clone());
                    }
                }
            }
            empty.truncate(&name).map_err(|e| format!("{table}: {e}"))?;
        }
        let mut keys: Vec<&i64> = pinned.keys().collect();
        keys.sort_unstable();
        for key in keys {
            let mut local = empty.clone();
            for table in TABLES {
                for row in by_key.remove(&(table, *key)).unwrap_or_default() {
                    local
                        .insert(&table.into(), row)
                        .map_err(|e| format!("{table}: {e}"))?;
                }
            }
            let oracle = Oracle::new(&local);
            for (shape, got) in &pinned[key] {
                let sql = shape_sql(*shape, *key);
                tally.check(&sql, *got, oracle.answer(&sql)?);
            }
        }
    }
    let texts: Vec<String> = rest.iter().map(|(sql, _)| sql.clone()).collect();
    for ((sql, got), want) in rest.iter().zip(full.answers(&texts)?) {
        tally.check(sql, *got, want);
    }
    Ok(())
}

/// Check the logged answers of a timed phase against the oracle over
/// `db`. Reads of the plan's texts are compared with `expected` until
/// the first write; from there (`write_subscribe`) a shadow replays the
/// writes in order and answers each read as of its place in the
/// sequence. Returns the shadow, which then holds the final state.
pub fn check_log(
    plan: &Plan,
    db: &Database,
    expected: &[Answer],
    log: &[Logged],
    tally: &mut Tally,
) -> Result<Oracle, String> {
    let mut oracle = Oracle::new(db);
    check_adhoc(db, &oracle, log, tally)?;
    // Answers of the plan's texts at the current point of the replay.
    let mut current: HashMap<usize, Answer> = expected.iter().copied().enumerate().collect();
    for entry in log {
        match entry {
            Logged::Read(i, got) => {
                let want = match current.get(i) {
                    Some(want) => *want,
                    None => {
                        let want = oracle.answer(&plan.texts[*i])?;
                        current.insert(*i, want);
                        want
                    }
                };
                tally.check(&plan.texts[*i], *got, want);
            }
            Logged::Write(sql) => {
                oracle.apply(sql)?;
                current.clear();
            }
            Logged::Adhoc { .. } => {}
        }
    }
    Ok(oracle)
}

/// Which subscribed views an insert changes, predicted from the data:
/// a part always adds a row to the set-tier view and bumps one count in
/// the recompute-tier view, and changes the counting-tier view only
/// with a `(colour, city)` pair it does not hold yet; a supplier
/// without parts changes none.
pub struct DeltaPredictor {
    cities: HashMap<i64, String>,
}

impl DeltaPredictor {
    /// A predictor over the generated suppliers.
    pub fn new(db: &Database) -> Result<DeltaPredictor, String> {
        let rows = db
            .rows(&"SUPPLIER".into())
            .map_err(|e| format!("suppliers: {e}"))?;
        let cities = rows
            .iter()
            .filter_map(|row| match (&row[0], &row[2]) {
                (Value::Int(sno), Value::Str(city)) => Some((*sno, city.clone())),
                _ => None,
            })
            .collect();
        Ok(DeltaPredictor { cities })
    }

    /// View slots (indexes into `VIEWS`) that `op` changes, given the
    /// counting-tier view's current rows.
    pub fn changed(&mut self, op: &Op, counting: &Multiset) -> Vec<usize> {
        match op {
            Op::Write(Write::Part { sno, color, .. }) => {
                let city = self.cities.get(sno).cloned().unwrap_or_default();
                let pair = vec![Value::str(*color), Value::Str(city)];
                if counting.contains(&pair) {
                    vec![0, 2]
                } else {
                    vec![0, 1, 2]
                }
            }
            Op::Write(Write::Supplier { sno, city, .. }) => {
                self.cities.insert(*sno, city.to_string());
                Vec::new()
            }
            Op::Read(_) | Op::Adhoc { .. } => Vec::new(),
        }
    }
}

/// A view's contents as row multiplicities.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Multiset(HashMap<Vec<Value>, i64>);

impl Multiset {
    /// The multiset of `rows`.
    pub fn of(rows: &[Vec<Value>]) -> Multiset {
        let mut set = Multiset::default();
        set.add(rows);
        set
    }

    /// Add `rows`.
    pub fn add(&mut self, rows: &[Vec<Value>]) {
        for row in rows {
            *self.0.entry(row.clone()).or_insert(0) += 1;
        }
    }

    /// Remove `rows`; `false` if one was not present.
    pub fn remove(&mut self, rows: &[Vec<Value>]) -> bool {
        let mut ok = true;
        for row in rows {
            match self.0.get_mut(row) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    self.0.remove(row);
                }
                None => ok = false,
            }
        }
        ok
    }

    /// Whether `row` is present.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.0.contains_key(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::ops::Workload;

    #[test]
    fn answers_compare_as_multisets_unless_ordered() {
        let a = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let b = vec![vec![Value::Int(2)], vec![Value::Int(1)]];
        assert_eq!(Answer::of(&a, false), Answer::of(&b, false));
        assert_ne!(Answer::of(&a, true), Answer::of(&b, true));
        let dup = vec![vec![Value::Int(1)], vec![Value::Int(1)]];
        assert_ne!(Answer::of(&a, false), Answer::of(&dup, false));
    }

    #[test]
    fn the_key_pinned_oracle_agrees_with_the_full_one() {
        let data = data::generate(9, 60).unwrap();
        let full = Oracle::new(&data.db);
        let mut log = Vec::new();
        for shape in 0..crate::ops::SHAPES.len() {
            for key in [1, 7, 30, 60, 61] {
                let answer = full.answer(&shape_sql(shape, key)).unwrap();
                log.push(Logged::Adhoc { shape, key, answer });
            }
        }
        let mut tally = Tally::default();
        check_adhoc(&data.db, &full, &log, &mut tally).unwrap();
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
    }

    #[test]
    fn a_corrupted_expected_answer_is_counted() {
        let data = data::generate(5, 60).unwrap();
        let plan = Plan::new(Workload::Oltp, 5, data.suppliers);
        let oracle = Oracle::new(&data.db);
        let mut expected = oracle.answers(&plan.texts).unwrap();
        let mut stream = plan.stream();
        let log: Vec<Logged> = (0..80)
            .map(|_| {
                let op = stream.next_op();
                let answer = match &op {
                    Op::Read(i) => expected[*i],
                    Op::Adhoc { sql, .. } => oracle.answer(sql).unwrap(),
                    Op::Write(_) => unreachable!("oltp sends no writes"),
                };
                Logged::of(&op, answer)
            })
            .collect();
        let mut clean = Tally::default();
        check_log(&plan, &data.db, &expected, &log, &mut clean).unwrap();
        assert_eq!(clean.failed, 0, "{:?}", clean.notes);

        let Some(Logged::Read(first, _)) = log.iter().find(|e| matches!(e, Logged::Read(..)))
        else {
            panic!("no read in the log");
        };
        let reads = log
            .iter()
            .filter(|e| matches!(e, Logged::Read(i, _) if i == first))
            .count() as u64;
        expected[*first] = expected[*first].corrupted();
        let mut tally = Tally::default();
        check_log(&plan, &data.db, &expected, &log, &mut tally).unwrap();
        assert_eq!(
            tally.failed, reads,
            "every read of the corrupted text fails"
        );

        let mut log = log;
        let adhoc = log
            .iter_mut()
            .find_map(|e| match e {
                Logged::Adhoc { answer, .. } => Some(answer),
                _ => None,
            })
            .unwrap();
        *adhoc = adhoc.corrupted();
        let mut tally = Tally::default();
        check_log(&plan, &data.db, &expected, &log, &mut tally).unwrap();
        assert_eq!(tally.failed, reads + 1, "a wrong ad hoc answer fails too");
    }

    #[test]
    fn the_shadow_replays_writes_before_reads() {
        let data = data::generate(5, 60).unwrap();
        let plan = Plan::new(Workload::WriteSubscribe, 5, data.suppliers);
        let mut shadow = Oracle::new(&data.db);
        let expected = shadow.answers(&plan.texts).unwrap();
        let mut stream = plan.stream();
        let mut log = Vec::new();
        for _ in 0..60 {
            let op = stream.next_op();
            let answer = match &op {
                Op::Read(i) => shadow.answer(&plan.texts[*i]).unwrap(),
                Op::Write(w) => {
                    shadow.apply(w.sql()).unwrap();
                    Answer::of(&[], false)
                }
                Op::Adhoc { .. } => unreachable!("write_subscribe sends no ad hoc reads"),
            };
            log.push(Logged::of(&op, answer));
        }
        let mut tally = Tally::default();
        check_log(&plan, &data.db, &expected, &log, &mut tally).unwrap();
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        // Answers as of the start are wrong once a write changed them.
        let stale: Vec<Logged> = log
            .iter()
            .map(|e| match e {
                Logged::Read(i, _) => Logged::Read(*i, expected[*i]),
                other => other.clone(),
            })
            .collect();
        let mut tally = Tally::default();
        check_log(&plan, &data.db, &expected, &stale, &mut tally).unwrap();
        assert!(tally.failed > 0, "reads that miss earlier writes must fail");
    }
}
