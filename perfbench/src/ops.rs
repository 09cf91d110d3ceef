//! The three workloads and their seeded op streams.
//!
//! Every stream is a sequence of fixed-composition blocks, shuffled by
//! the seed. A run stops only at a block boundary, so each run executes
//! the workload's op mix exactly, however long it lasts: the mix never
//! drifts with the run length or the seed.

use std::collections::{HashMap, VecDeque};
use uniq_workload::rng::SplitMix64;

use crate::data::PARTS_PER_SUPPLIER;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Index-served point reads: a hot set plus a never-repeating stream.
    Oltp,
    /// Whole-table joins, aggregates and set operations, all cached.
    Analytic,
    /// Inserts beside hot-set reads, with one subscription per IVM tier.
    WriteSubscribe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Oltp, Workload::Analytic, Workload::WriteSubscribe];

    /// The workload called `name` on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oltp => "oltp",
            Workload::Analytic => "analytic",
            Workload::WriteSubscribe => "write_subscribe",
        }
    }

    fn tag(self) -> u64 {
        match self {
            Workload::Oltp => 0x6f6c_7470,
            Workload::Analytic => 0x616e_616c,
            Workload::WriteSubscribe => 0x7772_6974,
        }
    }
}

/// Keys in the hot set; each is used with every shape.
pub const HOT_KEYS: usize = 32;

/// Never-seen texts draw their keys from `1..=ADHOC_KEYS × suppliers`,
/// so half of them match no supplier (a lookup of a missing key) and the
/// pool — every shape with every key outside the hot set — lasts 27,776
/// ops at full scale, over 20 s at the throughput of a 2-vCPU VM.
const ADHOC_KEYS: i64 = 2;

/// The seven index-served `oltp` shapes; `{k}` is a supplier key.
pub const SHAPES: [&str; 7] = [
    // Key point lookup.
    "SELECT S.SNO, S.SNAME, S.SCITY FROM SUPPLIER S WHERE S.SNO = {k}",
    // Key join.
    "SELECT S.SNAME, P.PNO, P.COLOR FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO AND S.SNO = {k}",
    // Redundant DISTINCT over a key join (Theorem 1).
    "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO AND S.SNO = {k}",
    // EXISTS on a key (Theorem 2).
    "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = {k} AND EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 2)",
    // DISTINCT with two EXISTS.
    "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = {k} AND EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 1) AND EXISTS \
     (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO AND A.ANO = 2)",
    // GROUP BY a key (elided).
    "SELECT S.SNO, P.PNO, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO AND S.SNO = {k} GROUP BY S.SNO, P.PNO",
    // ORDER BY key LIMIT 10 (early stop).
    "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO <= {k} ORDER BY S.SNO LIMIT 10",
];

/// `SHAPES[..KEY_PINNED]` pin every table they read to `S.SNO = {k}`
/// through key equalities, so only rows with that key can reach their
/// answers.
pub const KEY_PINNED: usize = 6;

/// The `analytic` statements. Every `ORDER BY` is a total order, so
/// `LIMIT` answers are exact.
pub const ANALYTIC: [&str; 8] = [
    // DISTINCT over a 2-way key join.
    "SELECT DISTINCT S.SCITY, P.COLOR FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
    // DISTINCT over a 3-way key join.
    "SELECT DISTINCT S.SCITY, P.COLOR, A.ACITY FROM SUPPLIER S, PARTS P, AGENTS A \
     WHERE S.SNO = P.SNO AND S.SNO = A.SNO",
    // GROUP BY over a join.
    "SELECT S.SCITY, P.COLOR, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO GROUP BY S.SCITY, P.COLOR",
    // INTERSECT ALL over a join block.
    "SELECT ALL P.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED' \
     INTERSECT ALL SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
    // EXCEPT ALL.
    "SELECT ALL P.SNO FROM PARTS P WHERE P.COLOR = 'RED' \
     EXCEPT ALL SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Hull'",
    // EXISTS semi-join.
    "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
    // COUNT(DISTINCT) with ORDER BY ... LIMIT.
    "SELECT S.SNO, COUNT(DISTINCT P.COLOR) AS C FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO GROUP BY S.SNO ORDER BY C DESC, S.SNO LIMIT 10",
    // A key join returning every part.
    "SELECT S.SNAME, P.PNO, P.COLOR FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
];

/// The `analytic` statement that appears twice in each block. With an
/// even number of equally weighted statements the median latency would
/// sit on the boundary between two statements and flip between them on
/// noise; nine slots put it inside one statement's samples.
const ANALYTIC_TWICE: usize = 7;

/// The `write_subscribe` subscriptions, one per IVM tier, in
/// registration order: `(tier, sql)`.
pub const VIEWS: [(&str, &str); 3] = [
    (
        "set",
        "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
    ),
    (
        "counting",
        "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO",
    ),
    (
        "recompute",
        "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
         WHERE S.SNO = P.SNO GROUP BY S.SCITY",
    ),
];

const CITIES: [&str; 3] = ["Chicago", "New York", "Toronto"];

/// First OEM part number handed to inserted parts, above every
/// generated one.
const FIRST_NEW_OEM: i64 = 9_000_000;

/// `SHAPES[shape]` with key `key`.
pub fn shape_sql(shape: usize, key: i64) -> String {
    SHAPES[shape].replace("{k}", &key.to_string())
}

/// Whether an answer to `sql` is compared in order.
pub fn is_ordered(sql: &str) -> bool {
    sql.contains("ORDER BY")
}

/// An insert and what it touches.
#[derive(Debug, Clone, PartialEq)]
pub enum Write {
    /// A part with a fresh `(SNO, PNO)` for supplier `sno`.
    Part {
        /// The statement.
        sql: String,
        /// Its supplier.
        sno: i64,
        /// Its colour.
        color: &'static str,
    },
    /// A supplier with a fresh key and no parts.
    Supplier {
        /// The statement.
        sql: String,
        /// Its key.
        sno: i64,
        /// Its city.
        city: &'static str,
    },
}

impl Write {
    /// The statement text.
    pub fn sql(&self) -> &str {
        match self {
            Write::Part { sql, .. } | Write::Supplier { sql, .. } => sql,
        }
    }
}

/// One client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A read of [`Plan::texts`]`[i]` (hot set or analytic statement).
    Read(usize),
    /// A read whose text was never sent before, so it must compile:
    /// `SHAPES[shape]` with key `key`.
    Adhoc {
        /// Index into `SHAPES`.
        shape: usize,
        /// The key literal.
        key: i64,
        /// The text.
        sql: String,
    },
    /// An insert.
    Write(Write),
}

impl Op {
    /// The SQL the op sends.
    pub fn sql<'a>(&'a self, plan: &'a Plan) -> &'a str {
        match self {
            Op::Read(i) => &plan.texts[*i],
            Op::Adhoc { sql, .. } => sql,
            Op::Write(w) => w.sql(),
        }
    }
}

/// What one run of a workload repeats: the texts its reads draw from.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Repeated read texts: the hot set (`oltp`, `write_subscribe`) or
    /// the analytic statements.
    pub texts: Vec<String>,
    /// Suppliers in the loaded data.
    pub suppliers: i64,
    hot_keys: Vec<i64>,
    /// Never-seen `(shape, key)` pairs (`oltp`), in the order they are
    /// sent.
    adhoc: Vec<(usize, i64)>,
    seed: u64,
}

/// Never-seen texts `oltp` sends during warm-up, before its hot set: as
/// many as the plan cache holds, so timing starts in the steady state in
/// which every never-seen text evicts a plan.
const FILL: usize = uniq_engine::plancache::DEFAULT_CAPACITY;

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

impl Plan {
    /// The plan of `workload` for `seed` over `suppliers` suppliers.
    pub fn new(workload: Workload, seed: u64, suppliers: i64) -> Plan {
        let mut rng = SplitMix64::seed_from_u64(seed ^ workload.tag().rotate_left(17));
        let mut keys: Vec<i64> = (1..=suppliers).collect();
        shuffle(&mut rng, &mut keys);
        keys.truncate(HOT_KEYS.min(keys.len()));
        keys.sort_unstable();
        let texts = match workload {
            Workload::Analytic => ANALYTIC.iter().map(|s| s.to_string()).collect(),
            Workload::Oltp | Workload::WriteSubscribe => (0..SHAPES.len())
                .flat_map(|shape| keys.iter().map(move |&k| shape_sql(shape, k)))
                .collect(),
        };
        let mut adhoc = Vec::new();
        if workload == Workload::Oltp {
            for key in 1..=ADHOC_KEYS * suppliers {
                if keys.binary_search(&key).is_err() {
                    adhoc.extend((0..SHAPES.len()).map(|shape| (shape, key)));
                }
            }
            shuffle(&mut rng, &mut adhoc);
        }
        Plan {
            workload,
            texts,
            suppliers,
            hot_keys: keys,
            adhoc,
            seed: rng.next_u64(),
        }
    }

    /// Never-seen texts sent during warm-up.
    fn fill(&self) -> usize {
        match self.workload {
            Workload::Oltp => FILL,
            Workload::Analytic | Workload::WriteSubscribe => 0,
        }
    }

    /// The `i`-th never-seen text. Past the last pair of the pool the
    /// texts move on to higher keys in order.
    fn adhoc(&self, i: usize) -> Op {
        let (shape, key) = match self.adhoc.get(i) {
            Some(&pair) => pair,
            None => {
                let past = (i - self.adhoc.len()) as i64;
                (
                    (past % SHAPES.len() as i64) as usize,
                    ADHOC_KEYS * self.suppliers + 1 + past / SHAPES.len() as i64,
                )
            }
        };
        Op::Adhoc {
            shape,
            key,
            sql: shape_sql(shape, key),
        }
    }

    /// The warm-up of every set-up: the never-seen texts that fill the
    /// plan cache (`oltp`), then every repeated text once.
    pub fn warm_up(&self) -> Vec<Op> {
        (0..self.fill())
            .map(|i| self.adhoc(i))
            .chain((0..self.texts.len()).map(Op::Read))
            .collect()
    }

    /// The op stream after warm-up; the same plan always yields the same
    /// sequence.
    pub fn stream(&self) -> OpStream<'_> {
        OpStream {
            plan: self,
            rng: SplitMix64::seed_from_u64(self.seed),
            block: VecDeque::new(),
            adhoc_next: self.fill(),
            next_sno: self.suppliers + 1,
            next_pno: HashMap::new(),
            next_oem: FIRST_NEW_OEM,
        }
    }
}

/// A workload's op sequence, generated block by block.
pub struct OpStream<'a> {
    plan: &'a Plan,
    rng: SplitMix64,
    block: VecDeque<Op>,
    adhoc_next: usize,
    next_sno: i64,
    next_pno: HashMap<i64, i64>,
    next_oem: i64,
}

impl OpStream<'_> {
    /// Whether the next op starts a block; runs stop only there.
    pub fn at_block_start(&self) -> bool {
        self.block.is_empty()
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            self.fill_block();
        }
        self.block
            .pop_front()
            .expect("a filled block is never empty")
    }

    fn hot(&mut self) -> Op {
        Op::Read(self.rng.gen_range(0..self.plan.texts.len()))
    }

    fn fill_block(&mut self) {
        match self.plan.workload {
            // Three hot reads and one never-seen read, in seeded order.
            Workload::Oltp => {
                let adhoc_at = self.rng.gen_range(0..4usize);
                for slot in 0..4 {
                    let op = if slot == adhoc_at {
                        self.adhoc()
                    } else {
                        self.hot()
                    };
                    self.block.push_back(op);
                }
            }
            Workload::Analytic => {
                let mut slots: Vec<usize> = (0..ANALYTIC.len()).collect();
                slots.push(ANALYTIC_TWICE);
                shuffle(&mut self.rng, &mut slots);
                self.block.extend(slots.into_iter().map(Op::Read));
            }
            // Writes and hot reads alternate, so every read follows a
            // write: four part inserts and one supplier insert, in seeded
            // order.
            Workload::WriteSubscribe => {
                let mut writes = [true, true, true, true, false];
                shuffle(&mut self.rng, &mut writes);
                for part in writes {
                    let write = if part { self.part() } else { self.supplier() };
                    self.block.push_back(Op::Write(write));
                    let read = self.hot();
                    self.block.push_back(read);
                }
            }
        }
    }

    /// The next never-seen text.
    fn adhoc(&mut self) -> Op {
        self.adhoc_next += 1;
        self.plan.adhoc(self.adhoc_next - 1)
    }

    /// A part for a hot-set supplier half the time, otherwise for any
    /// supplier, inserted ones included.
    fn part(&mut self) -> Write {
        let sno = if self.rng.gen_bool(0.5) {
            self.plan.hot_keys[self.rng.gen_range(0..self.plan.hot_keys.len())]
        } else {
            self.rng.gen_range(1..self.next_sno)
        };
        let generated = if sno <= self.plan.suppliers {
            PARTS_PER_SUPPLIER
        } else {
            0
        };
        let pno = self.next_pno.entry(sno).or_insert(generated);
        *pno += 1;
        let pno = *pno;
        self.next_oem += 1;
        let color = if self.rng.gen_bool(0.3) {
            "RED"
        } else {
            "GREEN"
        };
        Write::Part {
            sql: format!(
                "INSERT INTO PARTS VALUES ({sno}, {pno}, 'part{pno}', {}, '{color}')",
                self.next_oem
            ),
            sno,
            color,
        }
    }

    fn supplier(&mut self) -> Write {
        let sno = self.next_sno;
        self.next_sno += 1;
        let city = CITIES[self.rng.gen_range(0..CITIES.len())];
        let budget = self.rng.gen_range(1..100_000i64);
        Write::Supplier {
            sql: format!(
                "INSERT INTO SUPPLIER VALUES ({sno}, 'New{sno}', '{city}', {budget}, 'Active')"
            ),
            sno,
            city,
        }
    }
}

/// A digest of the first `ops` ops of `plan`'s stream.
pub fn sequence_digest(plan: &Plan, ops: usize) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let mut stream = plan.stream();
    for _ in 0..ops {
        stream.next_op().sql(plan).hash(&mut hasher);
    }
    hasher.finish()
}

/// The first `ops` ops of `plan`'s stream as tab-separated lines: op
/// index, kind, SQL.
pub fn sequence_tsv(plan: &Plan, ops: usize) -> String {
    let mut out = String::from("op\tkind\tsql\n");
    let mut stream = plan.stream();
    for i in 0..ops {
        let op = stream.next_op();
        let kind = match &op {
            Op::Read(_) => "read",
            Op::Adhoc { .. } => "adhoc",
            Op::Write(_) => "write",
        };
        out.push_str(&format!("{i}\t{kind}\t{}\n", op.sql(plan)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_sequence_and_seeds_differ() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7, 200);
            let b = Plan::new(workload, 7, 200);
            let c = Plan::new(workload, 8, 200);
            assert_eq!(sequence_digest(&a, 500), sequence_digest(&b, 500));
            assert_ne!(sequence_digest(&a, 500), sequence_digest(&c, 500));
        }
    }

    #[test]
    fn blocks_keep_the_mix() {
        let plan = Plan::new(Workload::Oltp, 1, 200);
        assert_eq!(plan.texts.len(), SHAPES.len() * HOT_KEYS);
        let mut stream = plan.stream();
        let ops: Vec<Op> = (0..400).map(|_| stream.next_op()).collect();
        assert!(stream.at_block_start());
        let adhoc: Vec<&Op> = ops
            .iter()
            .filter(|o| matches!(o, Op::Adhoc { .. }))
            .collect();
        assert_eq!(adhoc.len(), 100);
        let warm = plan.warm_up();
        let mut texts: Vec<&str> = adhoc
            .iter()
            .copied()
            .chain(warm.iter().filter(|o| matches!(o, Op::Adhoc { .. })))
            .map(|o| o.sql(&plan))
            .collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 100 + FILL, "never-seen texts never repeat");
        assert!(texts.iter().all(|t| !plan.texts.iter().any(|h| h == t)));

        let plan = Plan::new(Workload::WriteSubscribe, 1, 200);
        let mut stream = plan.stream();
        let ops: Vec<Op> = (0..100).map(|_| stream.next_op()).collect();
        assert!(ops
            .chunks(2)
            .all(|pair| matches!(pair, [Op::Write(_), Op::Read(_)])));
        let parts = ops
            .iter()
            .filter(|o| matches!(o, Op::Write(Write::Part { .. })))
            .count();
        let suppliers = ops
            .iter()
            .filter(|o| matches!(o, Op::Write(Write::Supplier { .. })))
            .count();
        assert_eq!((parts, suppliers), (40, 10));
    }
}
