//! A `samm-serve` child process and the probes read from it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use samm_serve::json::Json;
use samm_serve::Client;

/// Socket timeout of every benchmark connection.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// Flags every workload starts the server with: one handler worker and
/// one event loop, since the load is one closed-loop connection and the
/// run is pinned to one core.
const COMMON_FLAGS: [&str; 6] = [
    "--addr",
    "127.0.0.1:0",
    "--workers",
    "1",
    "--event-loops",
    "1",
];

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const TICKS_PER_SEC: u64 = 100;

/// The server's cache counters from a `metrics` response.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
}

impl std::ops::Sub for CacheCounters {
    type Output = CacheCounters;
    fn sub(self, before: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            insertions: self.insertions - before.insertions,
            evictions: self.evictions - before.evictions,
        }
    }
}

/// The `samm-serve` executable: built into the same target directory as
/// this benchmark, so it sits next to it.
///
/// # Errors
///
/// A message naming the missing path and how to build it.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let path = exe.with_file_name("samm-serve");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "samm-serve not found at {}: build it into the same target directory \
             (`cargo build --release -p samm-serve`), as run.sh does",
            path.display()
        ))
    }
}

/// A running server. Dropping it kills the process if it was not shut
/// down, and always waits for it to end.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Kept open until the child has exited, so its last `println!`
    /// never meets a closed pipe.
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin` with the common flags plus `flags` and waits for its
    /// `listening on <addr>` line.
    ///
    /// # Errors
    ///
    /// Spawn failures, and a server that exits or prints something else
    /// first.
    pub fn spawn(bin: &Path, flags: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(COMMON_FLAGS)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let addr = stdout
            .read_line(&mut first)
            .ok()
            .and_then(|_| first.strip_prefix("listening on "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            child,
            stdout: Some(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err(format!("samm-serve did not report its address: {first:?}")),
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr, TIMEOUT).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The cache counters of a `metrics` request.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses.
    pub fn cache_counters(&self) -> Result<CacheCounters, String> {
        let response = self
            .connect()?
            .request_raw(r#"{"kind":"metrics"}"#)
            .map_err(|e| format!("metrics: {e}"))?;
        let cache = response.get("cache").ok_or("metrics without cache")?;
        let field = |key: &str| {
            cache
                .get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("metrics cache without {key}"))
        };
        Ok(CacheCounters {
            hits: field("hits")?,
            misses: field("misses")?,
            insertions: field("insertions")?,
            evictions: field("evictions")?,
        })
    }

    /// User plus system CPU time of the server so far, in microseconds.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed `/proc/<pid>/stat`.
    pub fn cpu_us(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (tick(11), tick(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) as f64 * 1e6 / TICKS_PER_SEC as f64),
            _ => Err(format!("{path}: no utime/stime")),
        }
    }

    /// Peak resident set size (`VmHWM`) so far, in MB.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or(format!("{path}: no VmHWM"))
    }

    /// Sends `{"kind":"shutdown"}` and waits for the process to exit.
    ///
    /// # Errors
    ///
    /// A refused shutdown, or a server that had to be killed or exited
    /// non-zero.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| {
                c.request_raw(r#"{"kind":"shutdown"}"#)
                    .map_err(|e| format!("shutdown: {e}"))
            })
            .and_then(|r| match r.get("ok").and_then(Json::as_bool) {
                Some(true) => Ok(()),
                _ => Err(format!("shutdown refused: {r}")),
            });
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("samm-serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for samm-serve: {e}")),
            }
        }
        asked.and(Err("samm-serve did not exit after shutdown".to_owned()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.stdout.take();
    }
}
