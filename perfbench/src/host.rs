//! Host-facing helpers (Linux, glibc): CPU pinning, the malloc arena
//! setting, peak memory, and the reference kernels whose times scale the
//! measured ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::c_int;
use std::sync::OnceLock;
use std::time::Instant;

extern "C" {
    fn sched_getcpu() -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// glibc's `mallopt` parameter for the number of malloc arenas.
const M_ARENA_MAX: c_int = -8;

/// Make every thread allocate from one malloc arena. With glibc's default
/// per-thread arenas, `live_tcp`'s server threads made the peak resident
/// set of identical runs range from 56 to 65 MB; with one arena it repeats
/// within 1 %.
pub fn single_malloc_arena() -> Result<(), String> {
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called before
    // the benchmark spawns any thread.
    match unsafe { mallopt(M_ARENA_MAX, 1) } {
        1 => Ok(()),
        _ => Err("mallopt(M_ARENA_MAX, 1) failed".into()),
    }
}

/// Bits in the affinity mask handed to the kernel (glibc's `CPU_SETSIZE`).
const CPU_SET_BITS: usize = 1024;

/// Restrict the calling thread, and every thread it spawns afterwards, to
/// the CPU it is running on. The live workload's round trips then cost a
/// context switch on one CPU rather than a wake-up on another, whose
/// latency depends on what the host is doing (on a 2-vCPU guest it was
/// seen to double loopback round trips, 16 µs to 31 µs, between runs).
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the calling
    // thread's state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    if cpu >= CPU_SET_BITS {
        return Err(format!("CPU {cpu} is outside the affinity mask"));
    }
    let mut mask = [0u64; CPU_SET_BITS / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, laid out as the kernel's `cpu_set_t` bitmap; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The process's peak resident set (VmHWM) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Typical duration of [`reference_seconds`] on the machine the benchmark
/// was built on; scaled times are expressed at this speed.
pub const REFERENCE_NOMINAL_S: f64 = 2.0e-3;

/// Entries of the reference kernel's table (16 MiB of `u64`).
const TABLE_LEN: usize = 1 << 21;

/// Time one run of a fixed kernel that never changes with the program:
/// 8,192 inserts into a `BTreeMap` and 65,536 scattered reads from a
/// 16 MiB table — allocation, pointer chasing and cache misses, like the
/// simulator. The benchmark runs it just before each timed unit; dividing
/// the unit's time by it cancels the host's slow spells, during which the
/// same work took up to 1.8 times as long.
pub fn reference_seconds() -> f64 {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..TABLE_LEN as u64).collect());
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..8192u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 16_384, i);
        for k in 0..8 {
            acc = acc.wrapping_add(table[(x >> (k * 3)) as usize % TABLE_LEN]);
        }
    }
    black_box(map.values().sum::<u64>() ^ acc);
    t0.elapsed().as_secs_f64()
}

/// Round trips timed by [`loopback_reference_seconds`].
const ECHO_ROUND_TRIPS: usize = 200;

/// Typical duration of [`loopback_reference_seconds`] on the machine the
/// benchmark was built on.
pub const LOOPBACK_NOMINAL_S: f64 = 3.0e-3;

/// Time 200 round trips of an 8-byte message to an echo thread over
/// loopback TCP, using only the standard library: the reference for
/// `live_tcp`, whose time is mostly round trips and whose host slow spells
/// the memory kernel of [`reference_seconds`] does not track.
pub fn loopback_reference_seconds() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut buf = [0u8; 8];
            for _ in 0..ECHO_ROUND_TRIPS {
                conn.read_exact(&mut buf)?;
                conn.write_all(&buf)?;
            }
            Ok(())
        });
        let timed = || -> std::io::Result<f64> {
            let mut conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            let mut buf = [0u8; 8];
            let t0 = Instant::now();
            for i in 0..ECHO_ROUND_TRIPS as u64 {
                conn.write_all(&i.to_le_bytes())?;
                conn.read_exact(&mut buf)?;
            }
            Ok(t0.elapsed().as_secs_f64())
        };
        let out = timed();
        let served = echo
            .join()
            .map_err(|_| std::io::Error::other("echo thread panicked"))?;
        served.and(out)
    })
}
