//! The benchmark database: `uniq_workload::scaled_database` rendered as
//! one load script, and the oracle copy of the same data.
//!
//! `uniqd` receives the data over the wire as a single `Exec` script —
//! schema, one `INSERT` per row, then the indexes — and the answer
//! checker builds its oracle by running that very script in-process, so
//! both sides hold identical rows in identical order.

use uniq_catalog::Database;
use uniq_workload::{scaled_database, ScaleConfig, INDEX_DDL};

/// Suppliers at full scale: 2,000 `SUPPLIER`, 20,000 `PARTS` and 4,000
/// `AGENTS` rows.
pub const SUPPLIERS: usize = 2_000;

/// Parts per supplier in the generated data.
pub const PARTS_PER_SUPPLIER: i64 = 10;

/// The DDL of `uniq_workload::scaled_schema`. The generator builds its
/// schema in-process and does not export the text, so it is restated
/// here; [`generate`] rejects the script unless the catalog it builds
/// equals the generator's.
const SCHEMA_DDL: &str = "CREATE TABLE SUPPLIER (
   SNO INTEGER NOT NULL, SNAME VARCHAR, SCITY VARCHAR,
   BUDGET INTEGER, STATUS VARCHAR,
   PRIMARY KEY (SNO),
   CHECK (SCITY IN ('Chicago', 'New York', 'Toronto')),
   CHECK (BUDGET <> 0 OR STATUS = 'Inactive'));
 CREATE TABLE PARTS (
   SNO INTEGER NOT NULL, PNO INTEGER NOT NULL, PNAME VARCHAR,
   OEM-PNO INTEGER, COLOR VARCHAR,
   PRIMARY KEY (SNO, PNO), UNIQUE (OEM-PNO),
   FOREIGN KEY (SNO) REFERENCES SUPPLIER (SNO));
 CREATE TABLE AGENTS (
   SNO INTEGER NOT NULL, ANO INTEGER NOT NULL, ANAME VARCHAR,
   ACITY VARCHAR,
   PRIMARY KEY (SNO, ANO),
   FOREIGN KEY (SNO) REFERENCES SUPPLIER (SNO));
";

/// Join-column indexes beyond the generator's `INDEX_DDL`, so every
/// `oltp` shape is served by index probes.
const JOIN_INDEX_DDL: &str = "CREATE INDEX IDX_P_SNO ON PARTS (SNO);
 CREATE INDEX IDX_A_SNO ON AGENTS (SNO);
";

/// The generated tables, parents first.
pub const TABLES: [&str; 3] = ["SUPPLIER", "PARTS", "AGENTS"];

/// The generated data of one run.
pub struct Data {
    /// The whole load: schema, every row as an `INSERT`, indexes.
    pub script: String,
    /// Statements in `script`.
    pub statements: usize,
    /// The database `script` builds (the oracle's copy).
    pub db: Database,
    /// Suppliers generated (keys `1..=suppliers`).
    pub suppliers: i64,
}

/// Generate the database for `seed` at `suppliers` × 10 parts × 2
/// agents and render its load script.
pub fn generate(seed: u64, suppliers: usize) -> Result<Data, String> {
    let config = ScaleConfig {
        suppliers,
        parts_per_supplier: PARTS_PER_SUPPLIER as usize,
        agents_per_supplier: 2,
        seed,
        ..ScaleConfig::default()
    };
    let mut reference = scaled_database(&config).map_err(|e| format!("generate: {e}"))?;
    let mut script = String::with_capacity(suppliers * 1_000);
    script.push_str(SCHEMA_DDL);
    let mut statements = TABLES.len();
    for table in TABLES {
        let rows = reference
            .rows(&table.into())
            .map_err(|e| format!("generate: {e}"))?;
        for row in rows {
            let values: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            script.push_str(&format!(
                "INSERT INTO {table} VALUES ({});\n",
                values.join(", ")
            ));
        }
        statements += rows.len();
    }
    script.push_str(INDEX_DDL);
    script.push('\n');
    script.push_str(JOIN_INDEX_DDL);
    statements += INDEX_DDL.matches(';').count() + JOIN_INDEX_DDL.matches(';').count();

    let mut db = Database::new();
    db.run_script(&script)
        .map_err(|e| format!("load script: {e}"))?;
    reference
        .run_script(INDEX_DDL)
        .and_then(|()| reference.run_script(JOIN_INDEX_DDL))
        .map_err(|e| format!("generate: {e}"))?;
    if format!("{:?}", db.catalog()) != format!("{:?}", reference.catalog()) {
        return Err("load script schema differs from scaled_schema".into());
    }
    for table in TABLES {
        let name = table.into();
        if db.rows(&name).ok() != reference.rows(&name).ok() {
            return Err(format!(
                "load script rows differ from the generator in {table}"
            ));
        }
    }
    Ok(Data {
        script,
        statements,
        db,
        suppliers: suppliers as i64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_rebuilds_the_generator_database() {
        let data = generate(3, 50).unwrap();
        assert_eq!(data.db.row_count(&"PARTS".into()).unwrap(), 500);
        assert_eq!(data.db.row_count(&"AGENTS".into()).unwrap(), 100);
        // Schema (3) + rows (50 + 500 + 100) + indexes (2 + 2).
        assert_eq!(data.statements, 3 + 650 + 4);
    }
}
