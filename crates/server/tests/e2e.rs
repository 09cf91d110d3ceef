//! End-to-end tests: a real `Server` on an ephemeral loopback port,
//! real `Client`s over TCP.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use uniq_engine::SharedEngine;
use uniq_server::server::FLUSH_BYTES;
use uniq_server::wire::encode_row_batch;
use uniq_server::{Client, ClientError, Frame, Server, ServerConfig, WireError, MAX_FRAME};
use uniq_types::Value;

fn sample_server(config: ServerConfig) -> Server {
    let engine = Arc::new(SharedEngine::sample().unwrap());
    Server::start(engine, ("127.0.0.1", 0), config).unwrap()
}

#[test]
fn query_roundtrip_over_the_wire() {
    let server = sample_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client
        .query("SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Toronto'")
        .unwrap();
    assert_eq!(reply.columns, vec!["SNO".to_string(), "SNAME".to_string()]);
    assert_eq!(reply.rows.len(), 2);
    assert!(reply
        .rows
        .contains(&vec![Value::Int(1), Value::Str("Acme".into())]));
    assert!(!reply.cache_hit);
}

#[test]
fn plans_are_shared_across_connections() {
    let server = sample_server(ServerConfig::default());
    let sql = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
               WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
    let mut first = Client::connect(server.local_addr()).unwrap();
    assert!(!first.query(sql).unwrap().cache_hit);
    // A *different* connection gets the plan the first one compiled.
    let mut second = Client::connect(server.local_addr()).unwrap();
    assert!(second.query(sql).unwrap().cache_hit);
    let stats = second.stats().unwrap();
    let get = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing stat {name}"))
            .1
    };
    assert!(get("cache.hits") >= 1);
    assert!(get("cache.hit_rate_bp") > 0, "shared hit rate > 0");
    assert_eq!(get("connections.active"), 2);
    assert!(get("connections.served") >= 2);
}

#[test]
fn writes_publish_snapshots_readers_see_on_next_query() {
    let server = sample_server(ServerConfig::default());
    let mut writer = Client::connect(server.local_addr()).unwrap();
    let mut reader = Client::connect(server.local_addr()).unwrap();
    let sql = "SELECT S.SNO FROM SUPPLIER S";
    assert_eq!(reader.query(sql).unwrap().rows.len(), 5);
    let ack = writer
        .exec("INSERT INTO SUPPLIER VALUES (9, 'Carver', 'Toronto', 100, 'Active');")
        .unwrap();
    assert!(ack.contains("1 statement"), "{ack}");
    let after = reader.query(sql).unwrap();
    assert_eq!(after.rows.len(), 6, "fresh snapshot sees the write");
    assert!(after.cache_hit, "INSERT does not invalidate cached plans");
    let depth = writer
        .stats()
        .unwrap()
        .into_iter()
        .find(|(n, _)| n == "snapshot.depth")
        .unwrap()
        .1;
    assert_eq!(depth, 1);
}

#[test]
fn explain_over_the_wire_carries_proofs() {
    let server = sample_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = client
        .explain(
            "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        )
        .unwrap();
    assert!(text.contains("distinct-removal"), "{text}");
    assert!(text.contains("proof=✓"), "{text}");
}

#[test]
fn sql_errors_keep_the_connection_usable() {
    let server = sample_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.query("SELECT Q.X FROM NO_SUCH_TABLE Q") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("NO_SUCH_TABLE"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Same connection still serves.
    assert_eq!(
        client
            .query("SELECT S.SNO FROM SUPPLIER S")
            .unwrap()
            .rows
            .len(),
        5
    );
    // Failed DDL answers with the engine's message, connection intact.
    assert!(matches!(
        client.exec("INSERT INTO SUPPLIER VALUES (1, 'Dup', 'Toronto', 1, 'Active');"),
        Err(ClientError::Server(_))
    ));
    assert!(client.analyze().unwrap().contains("statistics"));
}

#[test]
fn large_results_stream_in_batches() {
    // 100 rows fit in one reply buffer; 10,000 rows pass the flush
    // bound, so the handler writes the answer out in pieces.
    for n in [100, 10_000] {
        let engine = Arc::new(SharedEngine::new(uniq_catalog::Database::new()));
        engine
            .execute("CREATE TABLE N (A INTEGER, PRIMARY KEY (A));")
            .unwrap();
        let values: Vec<String> = (0..n).map(|i| format!("({i})")).collect();
        engine
            .execute(&format!("INSERT INTO N VALUES {};", values.join(", ")))
            .unwrap();
        // batch_rows=7 forces ⌈n/7⌉ RowBatch frames (15 for 100 rows).
        let config = ServerConfig {
            batch_rows: 7,
            ..ServerConfig::default()
        };
        let server = Server::start(engine, ("127.0.0.1", 0), config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reply = client.query("SELECT N.A FROM N ORDER BY N.A").unwrap();
        let expected: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i)]).collect();
        assert_eq!(reply.rows, expected, "every row arrives, in order");
        let mut encoded = Vec::new();
        encode_row_batch(&mut encoded, &reply.rows, true);
        assert_eq!(
            encoded.len() > FLUSH_BYTES,
            n > 100,
            "{n} rows encode to {} bytes",
            encoded.len()
        );
    }
}

#[test]
fn admission_refuses_connections_over_capacity() {
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = sample_server(config);
    let mut admitted = Client::connect(server.local_addr()).unwrap();
    admitted.query("SELECT S.SNO FROM SUPPLIER S").unwrap();
    // Second connection: refused with an Error frame, no request needed.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    match Frame::read_from(&mut raw) {
        Ok(Frame::Error { message }) => assert!(message.contains("capacity"), "{message}"),
        other => panic!("expected refusal, got {other:?}"),
    }
    drop(raw);
    // The admitted connection is unaffected...
    admitted.query("SELECT S.SNO FROM SUPPLIER S").unwrap();
    drop(admitted);
    // ...and once it leaves, the slot frees up (poll briefly: the
    // server notices the EOF asynchronously).
    let mut ok = false;
    for _ in 0..100 {
        let mut retry = match Client::connect(server.local_addr()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        if retry.query("SELECT S.SNO FROM SUPPLIER S").is_ok() {
            ok = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(ok, "slot was never released");
}

#[test]
fn oversized_frame_gets_protocol_error_then_close() {
    let server = sample_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
    match Frame::read_from(&mut raw) {
        Ok(Frame::Error { message }) => assert!(message.contains("exceeds cap"), "{message}"),
        other => panic!("expected protocol error frame, got {other:?}"),
    }
    // Connection is closed after a framing violation.
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap(), 0, "server closed the stream");
}

#[test]
fn unknown_opcode_gets_protocol_error() {
    let server = sample_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&1u32.to_le_bytes()).unwrap();
    raw.write_all(&[0x7E]).unwrap();
    match Frame::read_from(&mut raw) {
        Ok(Frame::Error { message }) => assert!(message.contains("unknown opcode"), "{message}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn response_opcode_from_client_is_rejected() {
    let server = sample_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    Frame::Ack {
        message: "i am not a server".into(),
    }
    .write_to(&mut raw)
    .unwrap();
    match Frame::read_from(&mut raw) {
        Ok(Frame::Error { message }) => {
            assert!(message.contains("response frame"), "{message}")
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn truncated_request_just_closes() {
    // A client that dies mid-frame must not wedge a handler thread in a
    // visible way: the next connection still gets served.
    let server = sample_server(ServerConfig::default());
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0x01, 0x02]).unwrap(); // 98 bytes never arrive
    } // dropped: EOF mid-frame on the server side
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        client
            .query("SELECT S.SNO FROM SUPPLIER S")
            .unwrap()
            .rows
            .len(),
        5
    );
}

#[test]
fn analyze_enables_cost_based_plans_for_every_connection() {
    let server = sample_server(ServerConfig::default());
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    a.analyze().unwrap();
    let text = b
        .explain("SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO")
        .unwrap();
    // After ANALYZE the one plan section is the cost-based plan the
    // engine runs.
    assert!(!text.contains("Physical plan:"), "{text}");
    let section = text
        .split("Cost-based plan (est/act rows):")
        .nth(1)
        .unwrap_or_else(|| panic!("cost-based planning active across connections: {text}"));
    for line in section.lines().filter(|l| !l.trim().is_empty()) {
        assert!(line.contains("est=") && line.contains("act="), "{line}");
    }
}

#[test]
fn stats_count_queries_per_connection_and_in_total() {
    let server = sample_server(ServerConfig::default());
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    let sql = "SELECT S.SNO FROM SUPPLIER S";
    for (client, queries) in [(&mut a, 3), (&mut b, 2)] {
        for _ in 0..queries {
            client.query(sql).unwrap();
        }
        client.explain(sql).unwrap();
    }
    for (client, queries) in [(&mut a, 3), (&mut b, 2)] {
        let stats = client.stats().unwrap();
        let get = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("queries.connection"), queries, "EXPLAIN is not a query");
        assert_eq!(get("queries.total"), 5);
    }
}

/// The standard subscription under test: set-tier (PARTS' key (SNO,
/// PNO) survives the projection, so Algorithm 1 + the proof checker
/// license the refcount-free path).
const SUB_SQL: &str = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";

#[test]
fn subscribe_streams_initial_rows_then_pushes_deltas() {
    let server = sample_server(ServerConfig::default());
    let mut subscriber = Client::connect(server.local_addr()).unwrap();
    let sub = subscriber.subscribe(SUB_SQL).unwrap();
    assert_eq!(sub.columns, vec!["SNO".to_string(), "PNO".to_string()]);
    assert_eq!(sub.mode, "set", "key-covered join gets the set tier");
    assert_eq!(
        sub.proof, "✓",
        "refcount-free path is *proved*, not assumed"
    );
    assert!(!sub.rows.is_empty(), "initial contents stream on subscribe");

    // A *different* connection's write reaches this subscriber as a push.
    let mut writer = Client::connect(server.local_addr()).unwrap();
    writer
        .exec("INSERT INTO PARTS VALUES (1, 99, 'Widget', 180, 'RED');")
        .unwrap();
    let event = subscriber
        .recv_delta(std::time::Duration::from_secs(5))
        .unwrap()
        .expect("delta pushed after writer publish");
    assert_eq!(event.id, sub.id);
    assert_eq!(event.inserted, vec![vec![Value::Int(1), Value::Int(99)]]);
    assert!(event.deleted.is_empty());
}

#[test]
fn two_subscribers_each_receive_the_push() {
    let server = sample_server(ServerConfig::default());
    let mut first = Client::connect(server.local_addr()).unwrap();
    let mut second = Client::connect(server.local_addr()).unwrap();
    let a = first.subscribe(SUB_SQL).unwrap();
    let b = second.subscribe(SUB_SQL).unwrap();
    assert_ne!(a.id, b.id, "registry ids are per-subscription");
    let mut writer = Client::connect(server.local_addr()).unwrap();
    writer
        .exec("INSERT INTO PARTS VALUES (2, 77, 'Gear', 181, 'BLUE');")
        .unwrap();
    for (client, sub_id) in [(&mut first, a.id), (&mut second, b.id)] {
        let event = client
            .recv_delta(std::time::Duration::from_secs(5))
            .unwrap()
            .expect("each subscriber gets its own push");
        assert_eq!(event.id, sub_id);
        assert_eq!(event.inserted, vec![vec![Value::Int(2), Value::Int(77)]]);
    }
}

#[test]
fn pushed_deltas_interleave_with_requests_on_the_same_connection() {
    let server = sample_server(ServerConfig::default());
    let mut subscriber = Client::connect(server.local_addr()).unwrap();
    subscriber.subscribe(SUB_SQL).unwrap();
    let mut writer = Client::connect(server.local_addr()).unwrap();
    writer
        .exec("INSERT INTO PARTS VALUES (3, 55, 'Bolt', 182, 'RED');")
        .unwrap();
    // The push is already queued to this connection; a solicited
    // request/response must still work, parking the delta...
    let reply = subscriber.query("SELECT S.SNO FROM SUPPLIER S").unwrap();
    assert_eq!(reply.rows.len(), 5);
    // ...where recv_delta finds it afterwards.
    let event = subscriber
        .recv_delta(std::time::Duration::from_secs(5))
        .unwrap()
        .expect("interleaved delta was buffered, not lost");
    assert_eq!(event.inserted, vec![vec![Value::Int(3), Value::Int(55)]]);
}

#[test]
fn own_write_delta_is_parked_before_exec_returns() {
    // The delta this connection's own INSERT causes is queued before the
    // INSERT is acknowledged, so it must be on the wire ahead of the Ack.
    let server = sample_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sub = client.subscribe(SUB_SQL).unwrap();
    client
        .exec("INSERT INTO PARTS VALUES (1, 98, 'Nut', 185, 'RED');")
        .unwrap();
    let event = client
        .recv_delta(Duration::from_millis(1))
        .unwrap()
        .expect("delta written ahead of the Ack, parked by exec");
    assert_eq!(event.id, sub.id);
    assert_eq!(event.inserted, vec![vec![Value::Int(1), Value::Int(98)]]);

    // The same order, read frame by frame off a raw socket.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    Frame::Subscribe {
        sql: SUB_SQL.into(),
    }
    .write_to(&mut raw)
    .unwrap();
    loop {
        match Frame::read_from(&mut raw).unwrap() {
            Frame::RowBatch { last: true, .. } => break,
            Frame::Subscribed { .. } | Frame::RowBatch { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    Frame::Exec {
        sql: "INSERT INTO PARTS VALUES (1, 97, 'Cog', 186, 'RED');".into(),
    }
    .write_to(&mut raw)
    .unwrap();
    let first = Frame::read_from(&mut raw).unwrap();
    assert!(matches!(first, Frame::ViewDelta { .. }), "{first:?}");
    let second = Frame::read_from(&mut raw).unwrap();
    assert!(matches!(second, Frame::Ack { .. }), "{second:?}");
}

#[test]
fn pushes_between_reply_pieces_keep_frames_whole() {
    // A subscriber reads answers long enough to be written in several
    // pieces while another connection's writes push deltas to it. A
    // push may land between two pieces of an answer, never inside a
    // frame, and every push arrives once, in order.
    let engine = Arc::new(SharedEngine::new(uniq_catalog::Database::new()));
    engine
        .execute(
            "CREATE TABLE N (A INTEGER, PRIMARY KEY (A)); \
             CREATE TABLE W (K INTEGER, PRIMARY KEY (K));",
        )
        .unwrap();
    let values: Vec<String> = (0..10_000).map(|i| format!("({i})")).collect();
    engine
        .execute(&format!("INSERT INTO N VALUES {};", values.join(", ")))
        .unwrap();
    // A queue deep enough for every write, so no push is refused while
    // the handler holds the socket for an answer.
    let config = ServerConfig {
        write_queue: 1024,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, ("127.0.0.1", 0), config).unwrap();
    let addr = server.local_addr();
    let mut subscriber = Client::connect(addr).unwrap();
    let sub = subscriber.subscribe("SELECT W.K FROM W").unwrap();
    let expected: Vec<Vec<Value>> = (0..10_000).map(|i| vec![Value::Int(i)]).collect();
    const WRITES: i64 = 200;
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut writer = Client::connect(addr).unwrap();
            start.wait();
            for k in 0..WRITES {
                writer
                    .exec(&format!("INSERT INTO W VALUES ({k});"))
                    .unwrap();
            }
            done.store(true, Ordering::Release);
        });
        start.wait();
        let mut answers = 0;
        while answers < 3 || !done.load(Ordering::Acquire) {
            let reply = subscriber.query("SELECT N.A FROM N ORDER BY N.A").unwrap();
            assert!(reply.rows == expected, "answer {answers} corrupted");
            answers += 1;
        }
    });
    for k in 0..WRITES {
        let event = subscriber
            .recv_delta(Duration::from_secs(5))
            .unwrap()
            .expect("every delta delivered");
        assert_eq!(event.id, sub.id);
        assert_eq!(event.inserted, vec![vec![Value::Int(k)]]);
    }
}

#[test]
fn wedged_subscriber_is_dropped_without_stalling_writers() {
    // Every INSERT into W adds 32 view rows of ~500 bytes, so a
    // subscriber that stops reading fills its socket buffers and then
    // its push queue within a few hundred writes.
    let engine = Arc::new(SharedEngine::new(uniq_catalog::Database::new()));
    engine
        .execute(
            "CREATE TABLE W (K INTEGER, G INTEGER, PRIMARY KEY (K)); \
             CREATE TABLE B (X INTEGER, G INTEGER, PAD VARCHAR(600), PRIMARY KEY (X));",
        )
        .unwrap();
    let pad = "p".repeat(500);
    let rows: Vec<String> = (0..32).map(|x| format!("({x}, 1, '{pad}')")).collect();
    engine
        .execute(&format!("INSERT INTO B VALUES {};", rows.join(", ")))
        .unwrap();
    let server = Server::start(engine, ("127.0.0.1", 0), ServerConfig::default()).unwrap();
    let mut wedged = Client::connect(server.local_addr()).unwrap();
    wedged
        .subscribe("SELECT W.K, B.X, B.PAD FROM W, B WHERE W.G = B.G")
        .unwrap();
    // From here on `wedged` never reads its socket.
    let mut writer = Client::connect(server.local_addr()).unwrap();
    for k in 0..2_000 {
        let t = Instant::now();
        writer
            .exec(&format!("INSERT INTO W VALUES ({k}, 1);"))
            .unwrap();
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "INSERT {k} waited on the wedged subscriber"
        );
    }
    let stats = writer.stats().unwrap();
    let dropped = stats.iter().find(|(n, _)| n == "subs.dropped").unwrap().1;
    assert!(dropped >= 1, "the wedged subscription was dropped");
    let mut third = Client::connect(server.local_addr()).unwrap();
    let reply = third.query("SELECT W.K FROM W WHERE W.K = 1999").unwrap();
    assert_eq!(reply.rows, vec![vec![Value::Int(1999)]]);
    drop(wedged);
}

#[test]
fn client_decodes_frames_that_arrive_together_one_at_a_time() {
    // A scripted server: two pushes in one write, then one answer.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let scripted = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut burst = Vec::new();
        for id in [1, 2] {
            Frame::ViewDelta {
                id,
                inserted: vec![vec![Value::Int(id as i64)]],
                deleted: vec![],
            }
            .encode_into(&mut burst);
        }
        socket.write_all(&burst).unwrap();
        let request = Frame::read_from(&mut socket).unwrap();
        assert!(matches!(request, Frame::Query { .. }), "{request:?}");
        let mut answer = Frame::RowHeader {
            columns: vec!["A".into()],
            cache_hit: true,
        }
        .encode();
        Frame::RowBatch {
            rows: vec![vec![Value::Int(7)]],
            last: true,
        }
        .encode_into(&mut answer);
        socket.write_all(&answer).unwrap();
    });
    let mut client = Client::connect(addr).unwrap();
    let first = client
        .recv_delta(Duration::from_secs(5))
        .unwrap()
        .expect("first push");
    let second = client
        .recv_delta(Duration::from_millis(1))
        .unwrap()
        .expect("second push, decoded from the same read");
    assert_eq!((first.id, second.id), (1, 2));
    assert_eq!(second.inserted, vec![vec![Value::Int(2)]]);
    assert!(
        client
            .recv_delta(Duration::from_millis(20))
            .unwrap()
            .is_none(),
        "a quiet connection times out cleanly"
    );
    let reply = client.query("SELECT T.A FROM T").unwrap();
    assert_eq!(reply.rows, vec![vec![Value::Int(7)]]);
    assert!(reply.cache_hit);
    scripted.join().unwrap();
}

#[test]
fn unsubscribe_stops_pushes_and_stats_count_subscriptions() {
    let server = sample_server(ServerConfig::default());
    let mut subscriber = Client::connect(server.local_addr()).unwrap();
    let sub = subscriber.subscribe(SUB_SQL).unwrap();
    let mut writer = Client::connect(server.local_addr()).unwrap();
    writer
        .exec("INSERT INTO PARTS VALUES (4, 33, 'Cam', 183, 'GREEN');")
        .unwrap();
    assert!(subscriber
        .recv_delta(std::time::Duration::from_secs(5))
        .unwrap()
        .is_some());
    let stats = writer.stats().unwrap();
    let get = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing stat {name}"))
            .1
    };
    assert_eq!(get("subs.active"), 1);
    assert!(get("subs.deltas_pushed") >= 1);
    assert!(get("subs.delta_rows") >= 1);
    assert!(get("subs.view_updates") >= 1);

    let ack = subscriber.unsubscribe(sub.id).unwrap();
    assert!(ack.contains("dropped"), "{ack}");
    writer
        .exec("INSERT INTO PARTS VALUES (5, 11, 'Pin', 184, 'RED');")
        .unwrap();
    assert!(
        subscriber
            .recv_delta(std::time::Duration::from_millis(200))
            .unwrap()
            .is_none(),
        "no pushes after unsubscribe"
    );
    assert!(matches!(
        subscriber.unsubscribe(sub.id),
        Err(ClientError::Server(_))
    ));
}

#[test]
fn closing_a_connection_tears_its_subscriptions_down() {
    let server = sample_server(ServerConfig::default());
    {
        let mut subscriber = Client::connect(server.local_addr()).unwrap();
        subscriber.subscribe(SUB_SQL).unwrap();
        assert_eq!(server.engine().stats().subs.active, 1);
    } // dropped: server sees EOF
    let mut probe = Client::connect(server.local_addr()).unwrap();
    let mut cleaned = false;
    for _ in 0..100 {
        let active = probe
            .stats()
            .unwrap()
            .into_iter()
            .find(|(n, _)| n == "subs.active")
            .unwrap()
            .1;
        if active == 0 {
            cleaned = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(cleaned, "connection close must unsubscribe its views");
}

#[test]
fn wire_error_is_not_a_server_refusal() {
    // ClientError::Server is reserved for Error frames; a vanished
    // server surfaces as a Wire error.
    let server = sample_server(ServerConfig::default());
    let addr = server.local_addr();
    drop(server);
    match Client::connect(addr) {
        Err(ClientError::Wire(WireError::Io(_))) => {}
        Ok(mut c) => {
            // The listener may accept queued connections during
            // shutdown; the next call must fail with a Wire error.
            assert!(matches!(
                c.query("SELECT S.SNO FROM SUPPLIER S"),
                Err(ClientError::Wire(_))
            ));
        }
        Err(other) => panic!("expected wire error, got {other:?}"),
    }
}
