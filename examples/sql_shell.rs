//! An interactive SQL shell over the supplier database.
//!
//! Run with: `cargo run --example sql_shell` and type SQL; every query is
//! parsed, analyzed, rewritten (showing which theorem fired) and
//! executed. Meta-commands:
//!
//! ```text
//! \d                         list tables
//! \set NAME value            bind a host variable (:NAME)
//! \explain SQL               show the rewrite trace and physical plan
//! \profile rel|nav|off       choose the optimizer profile
//! \analyze                   collect statistics and the column store:
//!                            cost-based planning, vectorized kernels
//! \q                         quit
//! ```

use std::io::{BufRead, Write};
use uniqueness::core::pipeline::OptimizerOptions;
use uniqueness::engine::Session;
use uniqueness::plan::HostVars;
use uniqueness::types::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = Session::sample()?;
    let mut hostvars = HostVars::new();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();

    println!("uniqueness SQL shell — Figure 1 supplier database loaded.");
    println!("Type SQL, or \\d, \\set NAME value, \\profile rel|nav|off, \\analyze, \\q.");
    loop {
        print!("sql> ");
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('\\') {
            let mut words = rest.split_whitespace();
            match words.next() {
                Some("q") | Some("quit") => break,
                Some("d") => {
                    for t in session.db.catalog().tables() {
                        let cols: Vec<String> = t
                            .columns
                            .iter()
                            .map(|c| format!("{} {}", c.name, c.data_type))
                            .collect();
                        println!("  {} ({})", t.name, cols.join(", "));
                    }
                }
                Some("set") => match (words.next(), words.next()) {
                    (Some(name), Some(value)) => {
                        let v: Value = match value.parse::<i64>() {
                            Ok(i) => Value::Int(i),
                            Err(_) => Value::str(value.trim_matches('\'')),
                        };
                        hostvars.set(name, v.clone());
                        println!("  :{} = {v}", name.to_uppercase());
                    }
                    _ => println!("usage: \\set NAME value"),
                },
                Some("explain") => {
                    let sql = rest.trim_start_matches("explain").trim();
                    match session.explain(sql) {
                        Ok(text) => print!("{text}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                Some("analyze") => {
                    session.analyze();
                    let stats = session.statistics().expect("just collected");
                    println!(
                        "  statistics and column store collected for {} table(s); \
                         cost-based planning on, covered blocks vectorized",
                        stats.len()
                    );
                }
                Some("profile") => match words.next() {
                    Some("rel") => {
                        session.optimizer = OptimizerOptions::relational();
                        println!("  profile: relational");
                    }
                    Some("nav") => {
                        session.optimizer = OptimizerOptions::navigational();
                        println!("  profile: navigational");
                    }
                    Some("off") => {
                        session.optimizer = OptimizerOptions::disabled();
                        println!("  profile: disabled");
                    }
                    _ => println!("usage: \\profile rel|nav|off"),
                },
                other => println!("unknown command \\{}", other.unwrap_or("")),
            }
            continue;
        }

        // DDL/DML go straight to the database; queries through the
        // optimizer + executor.
        let upper = line.to_ascii_uppercase();
        if upper.starts_with("CREATE") || upper.starts_with("INSERT") {
            match session.run_script(line) {
                Ok(()) => println!("ok"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        match session.query_with(line, &hostvars) {
            Ok(result) => {
                for step in &result.trace.steps {
                    println!("-- [{} / {}] {}", step.rule, step.theorem, step.why);
                    println!("-- {}", step.sql_after);
                }
                let header: Vec<String> = result.columns.iter().map(|c| c.to_string()).collect();
                println!("{}", header.join(" | "));
                for row in &result.rows {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("{}", cells.join(" | "));
                }
                let vec_note = if result.stats.vector_ops > 0 {
                    format!(", {} vector op(s)", result.stats.vector_ops)
                } else {
                    String::new()
                };
                println!(
                    "({} rows; {} scanned, {} sort(s), {} subquery eval(s){vec_note})",
                    result.rows.len(),
                    result.stats.rows_scanned,
                    result.stats.sorts,
                    result.stats.subquery_evals
                );
            }
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}
