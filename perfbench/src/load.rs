//! Load generation: a seeded Poisson schedule driven open-loop, and a
//! closed-loop saturation phase.
//!
//! Open loop: request `i` is due at a fixed offset from the phase start and
//! its latency runs from that due time to the reply, however late the
//! sender got to it. A stall therefore shows in every request that fell due
//! while it lasted (no coordinated omission). Request `i` always goes to
//! sender `i % senders`, so the requests one sender issues keep their
//! schedule order; workloads rely on that to keep per-id write order fixed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Offsets (seconds from phase start) of a Poisson arrival process at
/// `rate` per second over `seconds`.
pub fn poisson_offsets(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "poisson_offsets: rate and length must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival gap by inversion; 1 - u lies in (0, 1].
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// What happened to one scheduled request. Times are nanoseconds from the
/// phase start.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl Outcome {
    /// Latency a client sees: due time to reply.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator sent it.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Drive `ops` (due offsets in seconds, ascending) open-loop over `senders`
/// threads. `send(sender, index)` issues request `index` and reports
/// whether it succeeded. Returns one outcome per request, in index order,
/// and the CPU seconds the idle spinners used.
///
/// While the phase runs, one `SCHED_IDLE` spinner per core keeps every
/// core from halting. On a virtual machine a halted core must be woken
/// through the hypervisor, which charges each request several host
/// scheduling delays (seen as steal) that move from run to run; with the
/// cores busy, a wake-up is an in-guest switch, and the spinner yields the
/// core to any waking thread at once. Their CPU time is returned so
/// callers can leave it out of per-request CPU.
pub fn open_loop<F>(due: &[f64], senders: usize, send: F) -> (Vec<Outcome>, f64)
where
    F: Fn(usize, usize) -> bool + Sync,
{
    assert!(senders > 0, "open_loop needs a sender");
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let at = |ns: u64| start + Duration::from_nanos(ns);
    let ns_since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let (per_sender, spin_cpu) = std::thread::scope(|scope| {
        let spinners: Vec<_> = (0..crate::host::nproc())
            .map(|_| {
                let stop = &stop;
                scope.spawn(move || {
                    crate::host::sched_idle();
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    crate::host::thread_cpu_s()
                })
            })
            .collect();
        let handles: Vec<_> = (0..senders)
            .map(|s| {
                let send = &send;
                scope.spawn(move || {
                    crate::host::tight_timer_slack();
                    let mut out = Vec::with_capacity(due.len() / senders + 1);
                    for i in (s..due.len()).step_by(senders) {
                        let due_ns = (due[i] * 1e9) as u64;
                        let now = Instant::now();
                        if now < at(due_ns) {
                            std::thread::sleep(at(due_ns) - now);
                        }
                        let sent_ns = ns_since(Instant::now()).max(due_ns);
                        let ok = send(s, i);
                        let done_ns = ns_since(Instant::now());
                        out.push((
                            i,
                            Outcome {
                                due_ns,
                                sent_ns,
                                done_ns,
                                ok,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        let per_sender: Vec<Vec<(usize, Outcome)>> = handles
            .into_iter()
            .map(|h| h.join().expect("load sender panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        let spin_cpu: f64 = spinners
            .into_iter()
            .map(|h| h.join().expect("idle spinner panicked"))
            .sum();
        (per_sender, spin_cpu)
    });
    let mut all: Vec<(usize, Outcome)> = per_sender.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    (all.into_iter().map(|(_, o)| o).collect(), spin_cpu)
}

/// Closed loop: every sender issues its share of `0..limit` back to back
/// (sender `s` takes `s, s + senders, ...`, as in [`open_loop`]) until
/// `seconds` have passed (`None`: until the share is done). Returns, per
/// request issued in index order, whether it succeeded, plus the phase's
/// wall time.
pub fn saturate<F>(
    limit: usize,
    senders: usize,
    seconds: Option<f64>,
    send: F,
) -> (Vec<(usize, bool)>, f64)
where
    F: Fn(usize, usize) -> bool + Sync,
{
    let start = Instant::now();
    let stop = seconds.map(|s| start + Duration::from_secs_f64(s));
    let per_sender: Vec<Vec<(usize, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|s| {
                let send = &send;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in (s..limit).step_by(senders) {
                        if stop.is_some_and(|stop| Instant::now() >= stop) {
                            break;
                        }
                        out.push((i, send(s, i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load sender panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut all: Vec<(usize, bool)> = per_sender.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    (all, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_and_determinism() {
        let a = poisson_offsets(2000.0, 2.0, 7);
        assert_eq!(a, poisson_offsets(2000.0, 2.0, 7));
        assert_ne!(a, poisson_offsets(2000.0, 2.0, 8));
        assert!((3800..4200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    /// A 60 ms stall in one request is charged to every request that fell
    /// due while it lasted, measured from each one's due time.
    #[test]
    fn stall_is_charged_to_every_request_due_during_it() {
        let due: Vec<f64> = (0..40).map(|i| i as f64 * 0.002).collect();
        let stalled = 5;
        let (out, _) = open_loop(&due, 1, |_, i| {
            if i == stalled {
                std::thread::sleep(Duration::from_millis(60));
            }
            true
        });
        let stall_end = out[stalled].done_ns;
        let mut charged = 0;
        for (i, o) in out.iter().enumerate().skip(stalled + 1) {
            assert_eq!(o.latency_ns(), o.done_ns - o.due_ns);
            if o.due_ns < stall_end {
                charged += 1;
                assert!(
                    o.latency_ns() >= stall_end - o.due_ns,
                    "request {i} due during the stall was not charged for it"
                );
                assert!(o.lateness_ns() > 0);
            }
        }
        // 60 ms at one request per 2 ms: about 30 requests fell due in it.
        assert!(
            charged >= 25,
            "only {charged} requests fell due during the stall"
        );
    }

    #[test]
    fn saturate_keeps_sender_stride() {
        let (done, wall) = saturate(1000, 2, Some(0.05), |s, i| {
            assert_eq!(i % 2, s);
            std::thread::sleep(Duration::from_micros(200));
            true
        });
        assert!(wall >= 0.05);
        assert!(!done.is_empty() && done.iter().all(|&(_, ok)| ok));
        assert!(done.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
