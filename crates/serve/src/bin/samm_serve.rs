//! `samm-serve` — host the litmus-query service.
//!
//! ```text
//! samm-serve [--addr HOST:PORT] [--workers N]
//!            [--event-loops N] [--max-connections N] [--max-pipeline N]
//!            [--poller epoll|poll] [--cluster FILE --node ID]
//!            [--read-timeout-secs N] [--budget N]
//!            [--cache-shards N] [--cache-capacity N] [--persist PATH]
//!            [--prom-addr HOST:PORT] [--trace-log PATH]
//!            [--trace-log-max-bytes N] [--slow-ms N] [--no-observe]
//! ```
//!
//! `--trace-log` writes every finished span as one JSONL line;
//! `--slow-ms N` keeps only spans of at least N ms, which turns the
//! trace log into a slow-request log (default 0: every span).
//!
//! The event-loop core multiplexes connections over a readiness poller
//! (pipelining, `batch` envelopes, cluster mode) and answers fresh
//! queries with the pruned engine. Prints `listening on <addr>` once
//! bound (and
//! `prometheus on <addr>` when `--prom-addr` was given), then serves
//! until a client sends `{"kind":"shutdown"}`; the process drains
//! in-flight work, persists the cache when `--persist` was given, and
//! exits 0.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use samm_serve::cluster::ClusterConfig;
use samm_serve::sys::PollerKind;
use samm_serve::ServerConfig;

fn usage() -> ! {
    eprintln!(
        "usage: samm-serve [--addr HOST:PORT] [--workers N]\n\
         \x20                 [--event-loops N] [--max-connections N] [--max-pipeline N]\n\
         \x20                 [--poller epoll|poll] [--cluster FILE --node ID]\n\
         \x20                 [--read-timeout-secs N] [--budget N]\n\
         \x20                 [--cache-shards N] [--cache-capacity N] [--persist PATH]\n\
         \x20                 [--prom-addr HOST:PORT] [--trace-log PATH]\n\
         \x20                 [--trace-log-max-bytes N] [--slow-ms N] [--no-observe]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("samm-serve: {flag} needs a numeric argument");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut cluster_file: Option<PathBuf> = None;
    let mut node_id: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => usage(),
            },
            "--workers" => config.workers = parse_num("--workers", args.next()),
            "--event-loops" => config.event_loops = parse_num("--event-loops", args.next()),
            "--max-connections" => {
                config.max_connections = parse_num("--max-connections", args.next());
            }
            "--max-pipeline" => config.max_pipeline = parse_num("--max-pipeline", args.next()),
            "--poller" => match args.next().and_then(|p| PollerKind::parse(&p)) {
                Some(kind) => config.poller = kind,
                None => {
                    eprintln!("samm-serve: --poller needs 'epoll' or 'poll'");
                    usage();
                }
            },
            "--cluster" => match args.next() {
                Some(path) => cluster_file = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--node" => match args.next() {
                Some(id) => node_id = Some(id),
                None => usage(),
            },
            "--read-timeout-secs" => {
                config.read_timeout =
                    Duration::from_secs(parse_num("--read-timeout-secs", args.next()));
            }
            "--budget" => config.budget = Some(parse_num("--budget", args.next())),
            "--cache-shards" => config.cache_shards = parse_num("--cache-shards", args.next()),
            "--cache-capacity" => {
                config.cache_capacity = parse_num("--cache-capacity", args.next());
            }
            "--persist" => match args.next() {
                Some(path) => config.persist_path = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--prom-addr" => match args.next() {
                Some(addr) => config.prom_addr = Some(addr),
                None => usage(),
            },
            "--slow-ms" => {
                config.slow_threshold = Duration::from_millis(parse_num("--slow-ms", args.next()));
            }
            "--trace-log" => match args.next() {
                Some(path) => config.trace_log = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--trace-log-max-bytes" => {
                config.trace_log_max_bytes = parse_num("--trace-log-max-bytes", args.next());
            }
            "--no-observe" => config.observe = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("samm-serve: unknown argument '{other}'");
                usage();
            }
        }
    }

    match (&cluster_file, &node_id) {
        (Some(path), Some(id)) => match ClusterConfig::from_file(path, id) {
            Ok(cluster) => config.cluster = Some(cluster),
            Err(e) => {
                eprintln!("samm-serve: bad cluster topology: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => {}
        _ => {
            eprintln!("samm-serve: --cluster and --node must be given together");
            usage();
        }
    }

    let poller = config.poller;
    let node = config
        .cluster
        .as_ref()
        .map(|c| c.nodes[c.self_index].id.clone());
    let handle = match samm_serve::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("samm-serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &node {
        Some(id) => println!(
            "listening on {} (event core, {}, cluster node {id})",
            handle.addr(),
            poller.name()
        ),
        None => println!(
            "listening on {} (event core, {})",
            handle.addr(),
            poller.name()
        ),
    }
    if let Some(prom) = handle.prom_addr() {
        println!("prometheus on {prom}");
    }
    match handle.join() {
        Ok(()) => {
            println!("drained; bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("samm-serve: shutdown error: {e}");
            ExitCode::FAILURE
        }
    }
}
