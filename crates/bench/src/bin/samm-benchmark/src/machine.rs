//! The machine a run measures on: pinning to one CPU, and a gauge of
//! how fast that CPU runs at the moment.
//!
//! On a few vCPUs of a shared host, the same work takes up to half as
//! long again from one second to the next, and the slowdown hits kernel
//! round trips, syscalls and allocation-heavy compute alike. So the load
//! is interleaved with short probes of fixed work that is part of the
//! benchmark and never changes with the program ([`Gauge`]), and every
//! timing is scaled by the slowdown the probes measured around it. The
//! probes call nothing of the program, so a change to the program moves
//! the scaled timings and not the slowdown.

use std::collections::HashSet;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::workload::Rng;

/// A probe's duration on the machine the benchmark was sized on, when
/// it ran undisturbed; a probe taking this long means a slowdown of 1.
const REFERENCE_PROBE_NS: f64 = 2.5e6;
/// Loopback round trips per probe.
const ROUND_TRIPS: usize = 200;
/// Message size of a round trip, about one request line.
const MESSAGE: usize = 64;
/// Sort-and-hash rounds per probe.
const ROUNDS: usize = 8;
/// Values per round.
const VALUES: usize = 4096;

/// `cpu_set_t` of glibc and musl: 1024 bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
}

/// Pins the calling thread, and every thread and process it starts
/// afterwards, to the highest CPU it may run on. Client, server and
/// probes then share one core: a wake-up is a local context switch
/// instead of an interrupt to a vCPU that may be descheduled, and the
/// probes measure the core the work runs on.
///
/// # Errors
///
/// A failing affinity call.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut set = CpuSet([0; 16]);
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a live, writable `cpu_set_t` of `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t` of `size` bytes.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Measures the machine's slowdown with probes of fixed work: loopback
/// round trips to an echo thread (the syscalls and wake-ups of a
/// request) and drawing, sorting and hashing numbers (the allocation and
/// hashing of an enumeration).
#[derive(Debug)]
pub struct Gauge {
    near: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Gauge {
    /// Connects to a new echo thread over loopback TCP.
    ///
    /// # Errors
    ///
    /// Loopback socket failures.
    pub fn start() -> Result<Gauge, String> {
        let connect = || -> std::io::Result<(TcpStream, TcpStream)> {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let near = TcpStream::connect(listener.local_addr()?)?;
            let (far, _) = listener.accept()?;
            near.set_nodelay(true)?;
            far.set_nodelay(true)?;
            Ok((near, far))
        };
        let (near, mut far) = connect().map_err(|e| format!("gauge: {e}"))?;
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; MESSAGE];
            // Ends when the gauge shuts its side down.
            while far.read_exact(&mut buf).is_ok() && far.write_all(&buf).is_ok() {}
        });
        Ok(Gauge {
            near,
            echo: Some(echo),
        })
    }

    /// Runs one probe and returns the slowdown it measured: its duration
    /// over [`REFERENCE_PROBE_NS`].
    ///
    /// # Errors
    ///
    /// A failed round trip.
    pub fn probe(&mut self) -> Result<f64, String> {
        let started = Instant::now();
        let mut buf = [7u8; MESSAGE];
        for _ in 0..ROUND_TRIPS {
            self.near
                .write_all(&buf)
                .and_then(|()| self.near.read_exact(&mut buf))
                .map_err(|e| format!("gauge: {e}"))?;
        }
        black_box(churn());
        Ok(started.elapsed().as_nanos() as f64 / REFERENCE_PROBE_NS)
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        let _ = self.near.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// [`ROUNDS`] of drawing, sorting and hashing [`VALUES`] numbers.
fn churn() -> u64 {
    let mut rng = Rng::new(1);
    let mut acc = 0;
    for _ in 0..ROUNDS {
        let mut values: Vec<u64> = (0..VALUES).map(|_| rng.next_u64() % 100_000).collect();
        values.sort_unstable();
        let set: HashSet<u64> = values.iter().copied().collect();
        acc ^= set.len() as u64 ^ values[VALUES / 2];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_a_slowdown_and_drop_ends_the_echo_thread() {
        let mut gauge = Gauge::start().unwrap();
        for _ in 0..3 {
            let slowdown = gauge.probe().unwrap();
            assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
        }
        // Drop shuts the socket down and joins the echo thread; a thread
        // left blocked on it would hang the test here.
        drop(gauge);
    }
}
