//! `uniq-cli` — a one-shot client for `uniqd`.
//!
//! ```text
//! uniq-cli [--addr HOST:PORT] -e SQL        # SELECT … or DDL/DML
//! uniq-cli [--addr HOST:PORT] --explain SQL # rendered plan + proofs
//! uniq-cli [--addr HOST:PORT] --analyze     # collect statistics + column store
//! uniq-cli [--addr HOST:PORT] --stats       # server counters
//! uniq-cli [--addr HOST:PORT] --subscribe SQL --deltas N [--timeout-ms MS]
//! ```
//!
//! `-e` routes on the first keyword: `SELECT` goes over the `Query`
//! frame (rows print tab-separated), anything else over `Exec`. Exits
//! nonzero when the server answers with an `Error` frame.
//!
//! `--subscribe` registers an incrementally maintained view, prints
//! its initial contents, then blocks printing pushed deltas (`+` rows
//! entered the view, `-` rows left it) until `--deltas N` maintenance
//! rounds arrived (default 1) or `--timeout-ms` elapsed with no push
//! (default 10000), then unsubscribes. Exits nonzero on timeout —
//! which lets a script assert delta *delivery*, not just subscription.

use std::time::Duration;
use uniq_server::Client;
use uniq_types::Value;

fn usage() -> ! {
    eprintln!(
        "usage: uniq-cli [--addr HOST:PORT] (-e SQL | --explain SQL | --analyze | --stats \
         | --subscribe SQL [--deltas N] [--timeout-ms MS])"
    );
    std::process::exit(2);
}

enum Action {
    Eval(String),
    Explain(String),
    Analyze,
    Stats,
    Subscribe(String),
}

fn render(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
    }
}

fn main() {
    let mut addr = "127.0.0.1:4141".to_string();
    let mut action = None;
    let mut deltas: u64 = 1;
    let mut timeout = Duration::from_millis(10_000);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "-e" => action = Some(Action::Eval(args.next().unwrap_or_else(|| usage()))),
            "--explain" => action = Some(Action::Explain(args.next().unwrap_or_else(|| usage()))),
            "--analyze" => action = Some(Action::Analyze),
            "--stats" => action = Some(Action::Stats),
            "--subscribe" => {
                action = Some(Action::Subscribe(args.next().unwrap_or_else(|| usage())))
            }
            "--deltas" => {
                deltas = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--timeout-ms" => {
                timeout = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .map(Duration::from_millis)
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    let Some(action) = action else { usage() };

    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("uniq-cli: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    let outcome = match action {
        Action::Eval(sql) => {
            let is_select = sql.trim_start().to_ascii_uppercase().starts_with("SELECT");
            if is_select {
                client.query(&sql).map(|reply| {
                    println!("{}", reply.columns.join("\t"));
                    for row in &reply.rows {
                        let cells: Vec<String> = row.iter().map(render).collect();
                        println!("{}", cells.join("\t"));
                    }
                    eprintln!(
                        "({} row(s), plan {})",
                        reply.rows.len(),
                        if reply.cache_hit {
                            "cached"
                        } else {
                            "compiled"
                        }
                    );
                })
            } else {
                client.exec(&sql).map(|ack| println!("{ack}"))
            }
        }
        Action::Explain(sql) => client.explain(&sql).map(|text| println!("{text}")),
        Action::Analyze => client.analyze().map(|ack| println!("{ack}")),
        Action::Stats => client.stats().map(|entries| {
            for (name, value) in entries {
                println!("{name}\t{value}");
            }
        }),
        Action::Subscribe(sql) => client.subscribe(&sql).and_then(|sub| {
            println!("{}", sub.columns.join("\t"));
            for row in &sub.rows {
                let cells: Vec<String> = row.iter().map(render).collect();
                println!("{}", cells.join("\t"));
            }
            eprintln!(
                "(subscribed id={} mode={} proof={} with {} initial row(s))",
                sub.id,
                sub.mode,
                sub.proof,
                sub.rows.len()
            );
            let mut received = 0u64;
            while received < deltas {
                match client.recv_delta(timeout)? {
                    Some(event) => {
                        received += 1;
                        for row in &event.inserted {
                            let cells: Vec<String> = row.iter().map(render).collect();
                            println!("+\t{}", cells.join("\t"));
                        }
                        for row in &event.deleted {
                            let cells: Vec<String> = row.iter().map(render).collect();
                            println!("-\t{}", cells.join("\t"));
                        }
                        eprintln!(
                            "(delta {received}/{deltas}: +{} -{})",
                            event.inserted.len(),
                            event.deleted.len()
                        );
                    }
                    None => {
                        eprintln!(
                            "uniq-cli: no delta within {}ms ({received}/{deltas} received)",
                            timeout.as_millis()
                        );
                        std::process::exit(1);
                    }
                }
            }
            client.unsubscribe(sub.id).map(|ack| eprintln!("({ack})"))
        }),
    };

    if let Err(e) = outcome {
        eprintln!("uniq-cli: {e}");
        std::process::exit(1);
    }
}
