//! Process and host readings: CPU time, peak RSS, context switches, steal
//! time and per-thread CPU. Linux only (`/proc` and `getrusage`).

use std::path::Path;

/// Mirror of `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
/// (`ru_maxrss` .. `ru_nivcsw`).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Move the calling thread to `SCHED_IDLE`: it runs only when no other
/// thread wants its core, and yields to a waking thread at once.
pub fn sched_idle() {
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread; `param` is a live value with
    // the C `struct sched_param` layout, and SCHED_IDLE takes priority 0.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    assert_eq!(rc, 0, "sched_setscheduler(SCHED_IDLE) failed");
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value with the C `struct timespec`
    // layout on 64-bit Linux, and the clock id is valid.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Let the calling thread's sleeps end within 1 µs of their deadline
/// instead of the default 50 µs timer slack, so a load generator sends on
/// time.
pub fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches only
    // the calling thread's timer slack; the unused arguments are ignored.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
    assert_eq!(rc, 0, "prctl(PR_SET_TIMERSLACK) failed");
}

/// One `getrusage(RUSAGE_SELF)` reading.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU seconds of every thread, live or exited.
    pub cpu_s: f64,
    /// Involuntary context switches.
    pub nivcsw: u64,
}

pub fn usage() -> Usage {
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value whose layout matches the C
    // `struct rusage` on 64-bit Linux; RUSAGE_SELF (0) is a valid selector.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    Usage {
        cpu_s: tv(ru.utime) + tv(ru.stime),
        nivcsw: ru.longs[13] as u64,
    }
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("/proc/self/status reports the field")
}

/// Peak resident set since the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Restart peak-RSS tracking from the current resident set (writing 5 to
/// `/proc/self/clear_refs`), so the peak covers what follows and not the
/// input generation before it. Returns the resident set at the reset, MiB.
pub fn reset_peak_rss() -> f64 {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset peak RSS via /proc/self/clear_refs");
    status_mb("VmRSS:")
}

/// Aggregate CPU ticks from the first line of `/proc/stat`:
/// `(steal, total)`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Share of all CPU time the hypervisor stole between two readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Nanoseconds the named thread of this process has run on a CPU, from
/// `/proc/self/task/*/schedstat`; `None` when no live thread has that name.
/// The kernel keeps the first 15 bytes of a thread name.
pub fn thread_cpu_ns(name: &str) -> Option<u64> {
    let comm_name = &name.as_bytes()[..name.len().min(15)];
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end().as_bytes() == comm_name {
            let sched = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            return sched.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checked-out revision when run from a git work tree, else "unknown".
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        let path = Path::new(".git").join(reference);
        if let Ok(rev) = std::fs::read_to_string(path) {
            return rev.trim().to_string();
        }
        return "unknown".to_string();
    }
    if head.is_empty() {
        "unknown".to_string()
    } else {
        head.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_reads_plausible_values() {
        let u = usage();
        assert!(u.cpu_s >= 0.0);
        let now = reset_peak_rss();
        assert!(now > 0.0 && peak_rss_mb() >= now * 0.5);
        let ticks = cpu_ticks();
        assert!(ticks.1 >= ticks.0);
    }

    #[test]
    fn thread_cpu_finds_a_named_thread() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::Builder::new()
            .name("perfbench-probe-thread".into())
            .spawn(move || {
                ready_tx.send(()).expect("signal ready");
                rx.recv().expect("wait for release");
            })
            .expect("spawn probe thread");
        ready_rx.recv().expect("probe started");
        assert!(thread_cpu_ns("perfbench-probe-thread").is_some());
        tx.send(()).expect("release probe");
        t.join().expect("probe thread");
        assert!(thread_cpu_ns("no-such-thread-name").is_none());
    }
}
