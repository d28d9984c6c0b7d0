//! End-to-end tests of the readiness-driven event core over real
//! loopback sockets: pipelining with out-of-order responses matched by
//! id, cache hits answered on the loop without overtaking queued work,
//! the `batch` request kind over the wire, graceful drain, cache
//! persistence, the connection limit, many connections over several
//! loops, running out of file descriptors, lines that are not UTF-8, and
//! scrapes beside an idle scrape connection.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use samm_serve::client::Client;
use samm_serve::json::{self, Json};
use samm_serve::{start, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

#[test]
fn pipelined_requests_are_answered_out_of_order_by_id() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();

    // Fire the whole pipeline before reading anything: a heavy cold
    // enumeration first, cheap requests behind it. With two workers the
    // cheap answers may overtake the heavy one — the protocol contract
    // is that responses are matched by id, not by order.
    let requests: Vec<(String, String)> = vec![
        (
            "slow".to_owned(),
            r#"{"kind":"enumerate","test":"IRIW","model":"Weak","id":"slow"}"#.to_owned(),
        ),
        (
            "m1".to_owned(),
            r#"{"kind":"metrics","id":"m1"}"#.to_owned(),
        ),
        (
            "c1".to_owned(),
            r#"{"kind":"certify","test":"SB","model":"TSO","id":"c1"}"#.to_owned(),
        ),
        (
            "m2".to_owned(),
            r#"{"kind":"metrics","id":"m2"}"#.to_owned(),
        ),
    ];
    for (_, line) in &requests {
        client.send_raw(line).unwrap();
    }
    let mut by_id: HashMap<String, Json> = HashMap::new();
    for _ in &requests {
        let response = client.read_response().unwrap();
        let id = response
            .get("id")
            .and_then(Json::as_str)
            .expect("every response carries its id")
            .to_owned();
        by_id.insert(id, response);
    }
    // Every pipelined request was answered exactly once, correctly.
    for (id, _) in &requests {
        let response = by_id.get(id).unwrap_or_else(|| panic!("no response {id}"));
        assert!(ok(response), "{id} -> {response}");
    }
    assert_eq!(
        by_id["slow"].get("kind").and_then(Json::as_str),
        Some("enumerate")
    );
    assert_eq!(
        by_id["c1"].get("kind").and_then(Json::as_str),
        Some("certify")
    );
    handle.shutdown().unwrap();
}

#[test]
fn batch_round_trips_over_the_wire() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let response = client
        .request_raw(
            r#"{"kind":"batch","requests":[
                {"kind":"enumerate","test":"SB","model":"TSO","id":"b0"},
                {"kind":"enumerate","test":"SB"},
                {"kind":"enumerate","test":"SB","model":"TSO","id":"b2"}
            ]}"#
            .replace('\n', " ")
            .as_str(),
        )
        .unwrap();
    assert!(ok(&response), "{response}");
    assert_eq!(response.get("count").and_then(Json::as_u64), Some(3));
    assert_eq!(response.get("failed").and_then(Json::as_u64), Some(1));
    let responses = response.get("responses").and_then(Json::as_arr).unwrap();
    assert_eq!(responses[0].get("id").and_then(Json::as_str), Some("b0"));
    assert!(ok(&responses[0]));
    assert!(!ok(&responses[1]), "malformed slot fails alone");
    // The duplicate is answered from the cache warmed by slot 0.
    assert_eq!(
        responses[2].get("cache_hit").and_then(Json::as_bool),
        Some(true)
    );
    handle.shutdown().unwrap();
}

#[test]
fn wire_shutdown_drains_and_persists_the_cache() {
    let dir = std::env::temp_dir().join(format!("samm-event-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.samm");

    let handle = start(ServerConfig {
        persist_path: Some(path.clone()),
        ..test_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let cold = client
        .request_raw(r#"{"kind":"enumerate","test":"MP","model":"TSO"}"#)
        .unwrap();
    assert!(ok(&cold), "{cold}");
    let bye = client.request_raw(r#"{"kind":"shutdown"}"#).unwrap();
    assert!(ok(&bye), "{bye}");
    handle.join().unwrap();
    assert!(path.exists(), "drain must persist the cache");

    // A restarted event server answers from the persisted cache.
    let handle = start(ServerConfig {
        persist_path: Some(path.clone()),
        ..test_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let warm = client
        .request_raw(r#"{"kind":"enumerate","test":"MP","model":"TSO"}"#)
        .unwrap();
    assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(cold.get("outcomes"), warm.get("outcomes"));
    drop(client);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persist file from format version 1 (keyed by the full policy) is
/// refused line by line at start: each refusal is counted in the handle,
/// `metrics` and the exposition, and none of its answers is served. The
/// version 1 lines here reuse the current keys and carry a wrong answer,
/// so only the version check stands between them and a client.
#[test]
fn version_1_persist_lines_are_refused_and_counted() {
    let dir = std::env::temp_dir().join(format!("samm-persist-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.samm");
    let config = || ServerConfig {
        persist_path: Some(path.clone()),
        ..test_config()
    };
    let sb = r#"{"kind":"enumerate","test":"SB","model":"SC"}"#;
    let mp = r#"{"kind":"enumerate","test":"MP","model":"SC"}"#;

    let handle = start(config()).unwrap();
    assert_eq!(handle.persisted_lines(), None, "no file yet");
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let cold_sb = client.request_raw(sb).unwrap();
    assert!(ok(&cold_sb), "{cold_sb}");
    assert!(ok(&client.request_raw(mp).unwrap()));
    drop(client);
    handle.shutdown().unwrap();
    let current = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = current.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines.iter().all(|l| l.starts_with("2|")), "{current}");

    // Every line rewritten as version 1 with a wrong outcome set, plus
    // the current MP line.
    let mp_fp = samm_core::fingerprint::query_fingerprint(
        &samm_litmus::catalog::mp().test.program,
        &samm_core::policy::Policy::sequential_consistency(),
        &samm_core::enumerate::EnumConfig::builder()
            .keep_executions(false)
            .observe(true)
            .build(),
    )
    .to_string();
    let mut file = String::new();
    for line in &lines {
        let fields: Vec<&str> = line.split('|').collect();
        file.push_str(&format!(
            "1|{}|{}|{}|7/7\n",
            fields[1], fields[2], fields[3]
        ));
    }
    let mp_line = lines.iter().find(|l| l.contains(&mp_fp)).unwrap();
    file.push_str(&format!("{mp_line}\n"));
    std::fs::write(&path, file).unwrap();

    let handle = start(config()).unwrap();
    assert_eq!(handle.persisted_lines(), Some((1, 2)));
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let metrics = client.request_raw(r#"{"kind":"metrics"}"#).unwrap();
    let persist = metrics
        .get("telemetry")
        .and_then(|t| t.get("persist_lines"))
        .unwrap();
    assert_eq!(persist.get("loaded").and_then(Json::as_u64), Some(1));
    assert_eq!(persist.get("refused").and_then(Json::as_u64), Some(2));
    let prom = client.request_raw(r#"{"kind":"metrics_prom"}"#).unwrap();
    let text = prom.get("text").and_then(Json::as_str).unwrap();
    assert!(
        text.contains("samm_persist_lines_total{result=\"loaded\"} 1\n"),
        "{text}"
    );
    assert!(
        text.contains("samm_persist_lines_total{result=\"refused\"} 2\n"),
        "{text}"
    );
    let sb_again = client.request_raw(sb).unwrap();
    assert_eq!(
        sb_again.get("cache_hit").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(sb_again.get("outcomes"), cold_sb.get("outcomes"));
    let mp_again = client.request_raw(mp).unwrap();
    assert_eq!(
        mp_again.get("cache_hit").and_then(Json::as_bool),
        Some(true)
    );
    drop(client);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `samm_loop_connections` sample of every loop, scraped over HTTP
/// so the scrape itself holds no loop connection.
fn loop_connections(prom: SocketAddr) -> Vec<u64> {
    let mut stream = TcpStream::connect(prom).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw.lines()
        .filter_map(|line| line.strip_prefix("samm_loop_connections{"))
        .map(|rest| rest.rsplit(' ').next().unwrap().parse().unwrap())
        .collect()
}

#[test]
fn many_connections_over_two_loops_are_served_and_released() {
    let handle = start(ServerConfig {
        event_loops: 2,
        prom_addr: Some("127.0.0.1:0".to_owned()),
        ..test_config()
    })
    .unwrap();
    let prom = handle.prom_addr().unwrap();
    // Enough connections that each loop's poll set holds a hundred.
    let mut clients: Vec<Client> = (0..200)
        .map(|_| Client::connect(handle.addr(), TIMEOUT).unwrap())
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let response = client
            .request_raw(r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#)
            .unwrap();
        assert!(ok(&response), "client {i}: {response}");
        // The first answer warmed the shared cache for everyone.
        if i > 0 {
            assert_eq!(
                response.get("cache_hit").and_then(Json::as_bool),
                Some(true),
                "client {i}"
            );
        }
    }
    assert_eq!(loop_connections(prom), [100, 100]);
    drop(clients);
    // Every registration goes when its client does.
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let open = loop_connections(prom);
        if open == [0, 0] {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connections still open: {open:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown().unwrap();
}

/// Kills the child process when dropped, so a failing test leaves no
/// server behind.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A server with few file descriptors keeps serving the connections it
/// has: its default connection cap sits below the descriptor limit, so
/// a flood past the cap is answered `overloaded` (an `accept` that still
/// fails with `EMFILE` pauses the accept path until the next tick), and
/// a new connection is served once the flood is gone.
#[test]
fn running_out_of_descriptors_does_not_stall_open_connections() {
    let child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 64 && exec "$0" --addr 127.0.0.1:0 --workers 1"#)
        .arg(env!("CARGO_BIN_EXE_samm-serve"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut server = KillOnDrop(child);
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    let mut first = RawConn::connect(addr);
    assert!(ok(&first.request(&enumerate_line("SB", "TSO", "a"))));
    // More connections than the server has descriptors left: the
    // kernel completes them all, the server can accept only some.
    let flood: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect_timeout(&addr, TIMEOUT).unwrap())
        .collect();
    let answer = first.request(&enumerate_line("SB", "TSO", "b"));
    assert!(ok(&answer), "{answer}");
    // The default connection cap sits below the descriptor limit, so
    // the server takes the flood in arrival order up to its cap and
    // answers every later connection `overloaded`: none is left
    // waiting unanswered in the backlog.
    let open = wire_connections(&mut first) - 1;
    assert!((1..64).contains(&open), "{open} flood connections open");
    for (i, conn) in flood.iter().enumerate().skip(open) {
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        conn.set_read_timeout(Some(TIMEOUT)).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let error = json::parse(line.trim_end()).unwrap();
        assert_eq!(
            error
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded"),
            "flood connection {i}: {line:?}"
        );
    }
    // The connections it took are served.
    for (i, conn) in flood.iter().take(open).enumerate() {
        let mut raw = RawConn::from_stream(conn.try_clone().unwrap());
        let answer = raw.request(&enumerate_line("SB", "TSO", &format!("f{i}")));
        assert!(ok(&answer), "flood connection {i}: {answer}");
    }
    let metrics = first.request(r#"{"kind":"metrics"}"#);
    assert_eq!(
        metrics.get("overloaded").and_then(Json::as_u64),
        Some((flood.len() - open) as u64),
        "{metrics}"
    );
    drop(flood);
    // Wait for the server to see the flood go before connecting again.
    let deadline = Instant::now() + TIMEOUT;
    while wire_connections(&mut first) > 1 {
        assert!(Instant::now() < deadline, "flood connections still open");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut late = RawConn::connect(addr);
    let answer = late.request(&enumerate_line("MP", "TSO", "c"));
    assert!(ok(&answer), "{answer}");
}

/// Open connections over every loop, read from the exposition a
/// `metrics_prom` request returns over `conn`.
fn wire_connections(conn: &mut RawConn) -> usize {
    let prom = conn.request(r#"{"kind":"metrics_prom"}"#);
    prom.get("text")
        .and_then(Json::as_str)
        .unwrap()
        .lines()
        .filter_map(|line| line.strip_prefix("samm_loop_connections{"))
        .map(|rest| rest.rsplit(' ').next().unwrap().parse::<usize>().unwrap())
        .sum()
}

/// An idle connection to the Prometheus listener delays no other
/// client's scrape: each is answered well inside the 2 s a scrape
/// connection may take to send its request.
#[test]
fn an_idle_scrape_connection_does_not_stall_other_scrapes() {
    let handle = start(ServerConfig {
        prom_addr: Some("127.0.0.1:0".to_owned()),
        ..test_config()
    })
    .unwrap();
    let prom = handle.prom_addr().unwrap();
    let idle = TcpStream::connect(prom).unwrap();
    // A second client that sent half a request head and stopped.
    let mut trickle = TcpStream::connect(prom).unwrap();
    trickle.write_all(b"GET /metrics HTTP/1.0\r\n").unwrap();
    for _ in 0..3 {
        let started = Instant::now();
        let open = loop_connections(prom);
        let took = started.elapsed();
        assert_eq!(open, [0]);
        assert!(
            took < Duration::from_millis(500),
            "scrape took {took:?} beside idle scrape connections"
        );
    }
    drop((idle, trickle));
    handle.shutdown().unwrap();
}

#[test]
fn max_connections_rejects_with_the_overloaded_error() {
    let handle = start(ServerConfig {
        max_connections: 2,
        ..test_config()
    })
    .unwrap();
    let mut a = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let mut b = Client::connect(handle.addr(), TIMEOUT).unwrap();
    assert!(ok(&a.request_raw(r#"{"kind":"metrics"}"#).unwrap()));
    assert!(ok(&b.request_raw(r#"{"kind":"metrics"}"#).unwrap()));
    // The third connection is rejected with the structured error.
    let mut rejected = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let overloaded = rejected.read_response().unwrap();
    assert_eq!(
        overloaded
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("overloaded"),
        "{overloaded}"
    );
    let retry = overloaded
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_u64);
    assert!(retry.is_some(), "{overloaded}");
    // Freeing a slot lets new connections in again.
    drop(a);
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let metrics = c.request_raw(r#"{"kind":"metrics"}"#).unwrap();
    assert!(ok(&metrics), "{metrics}");
    assert_eq!(metrics.get("overloaded").and_then(Json::as_u64), Some(1));
    drop(b);
    drop(c);
    handle.shutdown().unwrap();
}

/// One raw connection: every burst leaves in a single `write`, and
/// answers are read back as raw lines.
struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> RawConn {
        RawConn::from_stream(TcpStream::connect(addr).unwrap())
    }

    fn from_stream(stream: TcpStream) -> RawConn {
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        RawConn { stream, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).unwrap() > 0, "closed");
        line.truncate(line.trim_end().len());
        line
    }

    fn request(&mut self, line: &str) -> Json {
        self.send(format!("{line}\n").as_bytes());
        json::parse(&self.read_line()).unwrap()
    }

    /// Requests this server's one event loop has answered itself.
    fn loop_answered(&mut self) -> u64 {
        let metrics = self.request(r#"{"kind":"metrics"}"#);
        let answered = metrics
            .get("telemetry")
            .and_then(|t| t.get("loop_answered"))
            .and_then(Json::as_arr)
            .expect("metrics report the per-loop inline answers");
        assert_eq!(answered.len(), 1);
        answered[0].as_u64().unwrap()
    }
}

fn enumerate_line(test: &str, model: &str, id: &str) -> String {
    format!(r#"{{"kind":"enumerate","test":"{test}","model":"{model}","id":"{id}"}}"#)
}

/// With one worker the job queue answers in order, and a cache hit the
/// loop answers itself must not overtake a miss queued ahead of it: a
/// pipelined cold, warm, cold, warm burst comes back in request order.
/// A warm hit sent once the burst has drained is answered on the loop,
/// with the bytes a worker's hit carries.
#[test]
fn inline_hits_never_overtake_queued_misses() {
    let handle = start(ServerConfig {
        workers: 1,
        ..test_config()
    })
    .unwrap();
    let mut conn = RawConn::connect(handle.addr());
    for (test, model) in [("SB", "TSO"), ("MP", "TSO")] {
        let cold = conn.request(&enumerate_line(test, model, "warm-up"));
        assert_eq!(cold.get("cache_hit"), Some(&Json::Bool(false)), "{cold}");
    }
    let burst = [
        enumerate_line("IRIW", "Weak", "cold-1"),
        enumerate_line("SB", "TSO", "hit-1"),
        enumerate_line("WRC", "Weak", "cold-2"),
        enumerate_line("MP", "TSO", "hit-2"),
    ];
    conn.send(format!("{}\n", burst.join("\n")).as_bytes());
    let answers: Vec<String> = burst.iter().map(|_| conn.read_line()).collect();
    let order: Vec<(String, bool)> = answers
        .iter()
        .map(|line| {
            let answer = json::parse(line).unwrap();
            assert!(ok(&answer), "{answer}");
            (
                answer.get("id").and_then(Json::as_str).unwrap().to_owned(),
                answer.get("cache_hit").and_then(Json::as_bool).unwrap(),
            )
        })
        .collect();
    assert_eq!(
        order,
        [
            ("cold-1".to_owned(), false),
            ("hit-1".to_owned(), true),
            ("cold-2".to_owned(), false),
            ("hit-2".to_owned(), true),
        ]
    );

    let before = conn.loop_answered();
    conn.send(format!("{}\n", enumerate_line("SB", "TSO", "hit-1")).as_bytes());
    let inline = conn.read_line();
    assert_eq!(conn.loop_answered(), before + 1, "answered on the loop");
    assert_eq!(
        inline, answers[1],
        "an inline hit is a worker hit on the wire"
    );
    handle.shutdown().unwrap();
}

/// A line that is not UTF-8 is answered with the structured `malformed`
/// error, counted as a request and an error; its bytes are never echoed
/// back altered.
#[test]
fn invalid_utf8_lines_are_malformed_over_the_wire() {
    let handle = start(test_config()).unwrap();
    let mut conn = RawConn::connect(handle.addr());
    conn.send(b"{\"kind\":\"enumerate\",\"test\":\"SB\",\"model\":\"TSO\",\"id\":\"a\xffb\"}\n");
    let line = conn.read_line();
    assert!(!line.contains('\u{fffd}'), "{line}");
    let answer = json::parse(&line).unwrap();
    assert!(!ok(&answer), "{answer}");
    let error = answer.get("error").unwrap();
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("malformed"));
    assert!(
        error
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("invalid UTF-8")),
        "{answer}"
    );
    let metrics = conn.request(r#"{"kind":"metrics"}"#);
    assert_eq!(metrics.get("requests").and_then(Json::as_u64), Some(1));
    assert_eq!(metrics.get("errors").and_then(Json::as_u64), Some(1));
    handle.shutdown().unwrap();
}

/// A client that pipelines warm lines and never reads its answers is
/// pushed back: once its pending output passes the high-water mark the
/// server takes no further lines and stops reading the socket, instead
/// of buffering every answer. Once the client reads, every line is
/// answered.
#[test]
fn unread_answers_push_back_on_a_pipelining_client() {
    let handle = start(test_config()).unwrap();
    let mut conn = RawConn::connect(handle.addr());
    let line = enumerate_line("IRIW", "Weak", "flood");
    conn.request(&line);
    conn.send(format!("{line}\n").as_bytes());
    let answer_bytes = conn.read_line().len() + 1;
    // Answers worth 64 MiB: far beyond what the socket buffers on the
    // way can hold.
    let lines = (64 << 20) / answer_bytes + 1;
    let mut observer = RawConn::connect(handle.addr());
    let before = observer.loop_answered();
    let flood = format!("{line}\n").repeat(lines);
    let mut writer = conn.stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || writer.write_all(flood.as_bytes()));

    let mut answered = before;
    loop {
        std::thread::sleep(Duration::from_millis(250));
        let now = observer.loop_answered();
        if now == answered {
            break;
        }
        answered = now;
    }
    let buffered = (answered - before) as usize * answer_bytes;
    assert!(
        buffered < 24 << 20,
        "{} of {lines} unread answers ({buffered} bytes) were taken",
        answered - before
    );

    for _ in 0..lines {
        let answer = conn.read_line();
        assert!(answer.contains(r#""cache_hit":true"#), "{answer}");
    }
    sender.join().unwrap().unwrap();
    assert_eq!(observer.loop_answered(), before + lines as u64);
    handle.shutdown().unwrap();
}
