//! Load generation for the serve workloads: the seeded query stream, the
//! open-loop schedule, the two loops, and answer verification.
//!
//! Open loop models independent users: requests are due on a fixed schedule
//! whatever the server does, and each is timed from the instant it was
//! *due*, so a stall charges every request it delays. Closed loop models
//! callers that wait for their reply: it measures capacity at a fixed
//! number of clients.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dgnn_serve::Query;

use crate::http;
use crate::stats::percentile;
use crate::zipf::{Rng, Zipf};

/// A send that starts this long after it was due counts as late.
pub const LATE_AFTER: Duration = Duration::from_micros(500);
/// Every `VERIFY_EVERY`-th reply of each sender is kept and checked against
/// the engine after the timed window.
pub const VERIFY_EVERY: usize = 32;

/// What the clients of one workload ask for.
#[derive(Debug, Clone)]
pub struct Mix {
    pub zipf: Zipf,
    pub ks: &'static [usize],
    /// `exclude_seen=true` on half the requests (else never).
    pub exclude_seen_half: bool,
}

impl Mix {
    pub fn draw(&self, rng: &mut Rng) -> Query {
        let user = self.zipf.sample(rng) as u32;
        let k = self.ks[rng.below(self.ks.len())];
        let exclude_seen = self.exclude_seen_half && rng.next_u64() >> 63 == 1;
        Query {
            user,
            k,
            exclude_seen,
        }
    }
}

pub fn target(q: &Query) -> String {
    format!(
        "/recommend?user={}&k={}&exclude_seen={}",
        q.user, q.k, q.exclude_seen
    )
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    pub due: Duration,
    pub query: Query,
}

/// `n` requests due at `rate` per second from time zero. Sender `i` of `s`
/// takes requests `i, i+s, i+2s, …`: fixed interleaved schedules.
pub fn open_schedule(n: usize, rate: f64, mix: &Mix, rng: &mut Rng) -> Vec<Scheduled> {
    (0..n)
        .map(|j| Scheduled {
            due: Duration::from_secs_f64(j as f64 / rate),
            query: mix.draw(rng),
        })
        .collect()
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub query: Query,
    pub due: Duration,
    pub started: Duration,
    pub ended: Duration,
    /// `None` on a transport error.
    pub status: Option<u16>,
    /// The served item list, kept for every [`VERIFY_EVERY`]-th reply.
    pub kept_items: Option<Vec<u32>>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.status == Some(200)
    }

    pub fn latency_ms(&self) -> f64 {
        (self.ended - self.due).as_secs_f64() * 1e3
    }

    pub fn lateness_ms(&self) -> f64 {
        (self.started - self.due).as_secs_f64() * 1e3
    }

    pub fn late(&self) -> bool {
        self.started - self.due > LATE_AFTER
    }
}

/// Sends `query` now and records what came back; `keep` retains the served
/// item list for verification.
pub fn fire(addr: SocketAddr, origin: Instant, due: Duration, query: Query, keep: bool) -> Sample {
    let started = origin.elapsed().max(due);
    let reply = http::get(addr, &target(&query));
    let ended = origin.elapsed();
    let (status, kept_items) = match reply {
        // A 200 whose body does not parse is kept as an empty list, which
        // verification then reports as a wrong answer.
        Ok((status, body)) => (
            Some(status),
            keep.then(|| http::items_of(&body).unwrap_or_default()),
        ),
        Err(_) => (None, None),
    };
    Sample {
        query,
        due,
        started,
        ended,
        status,
        kept_items,
    }
}

/// Runs the schedule over `senders` threads and returns every sample
/// (grouped by sender).
pub fn run_open(addr: SocketAddr, schedule: &[Scheduled], senders: usize) -> Vec<Sample> {
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|s| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for req in schedule.iter().skip(s).step_by(senders) {
                        if let Some(wait) = req.due.checked_sub(origin.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let keep = out.len() % VERIFY_EVERY == 0;
                        out.push(fire(addr, origin, req.due, req.query, keep));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop sender panicked"))
            .collect()
    })
}

/// `clients` threads each send their next request only after the previous
/// reply, for `duration`. Returns the samples and the elapsed wall time.
pub fn run_closed(
    addr: SocketAddr,
    clients: usize,
    duration: Duration,
    mix: &Mix,
    rng: &Rng,
) -> (Vec<Sample>, f64) {
    let origin = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut rng = rng.fork(c as u64);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while origin.elapsed() < duration {
                        let query = mix.draw(&mut rng);
                        out.push(fire(
                            addr,
                            origin,
                            origin.elapsed(),
                            query,
                            out.len() % VERIFY_EVERY == 0,
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    (samples, origin.elapsed().as_secs_f64())
}

/// The `q` latency percentile of each `window` of an open-loop schedule (by
/// due time, so a window holds the same requests on every run), in schedule
/// order. The median over windows is the tail of a typical stretch of the
/// run: at 200 requests/s one half-second freeze of a shared host delays 100
/// requests, which is the whole-run p95 of 2,000 but only one window here.
pub fn window_percentiles(samples: &[Sample], window: Duration, q: f64) -> Vec<f64> {
    let mut by_window = std::collections::BTreeMap::<u128, Vec<f64>>::new();
    for s in samples {
        by_window
            .entry(s.due.as_nanos() / window.as_nanos())
            .or_default()
            .push(s.latency_ms());
    }
    by_window.values().map(|v| percentile(v, q)).collect()
}

/// OK replies per second in each of the equal windows, about `window`
/// long, that a closed-loop phase of `duration` splits into (by end time;
/// replies that end after `duration` belong to no window).
pub fn window_rates(samples: &[Sample], window: Duration, duration: Duration) -> Vec<f64> {
    let n = ((duration.as_secs_f64() / window.as_secs_f64()) as usize).max(1);
    let width = duration.as_secs_f64() / n as f64;
    let mut counts = vec![0u64; n];
    for s in samples.iter().filter(|s| s.ok()) {
        if let Some(c) = counts.get_mut((s.ended.as_secs_f64() / width) as usize) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// Counts of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Non-200, transport error, or a verified answer that differs.
    pub failed: u64,
    pub verified: u64,
    pub late: u64,
}

impl std::ops::Add for Tally {
    type Output = Tally;

    fn add(self, t: Tally) -> Tally {
        Tally {
            sent: self.sent + t.sent,
            ok: self.ok + t.ok,
            failed: self.failed + t.failed,
            verified: self.verified + t.verified,
            late: self.late + t.late,
        }
    }
}

/// Tallies `samples`, checking every kept reply against `expected` (the
/// direct engine's answer for that query; `None` if the engine refuses it).
pub fn tally(samples: &[Sample], expected: impl Fn(&Query) -> Option<Vec<u32>>) -> Tally {
    let mut t = Tally::default();
    for s in samples {
        t.sent += 1;
        t.late += u64::from(s.late());
        let mut good = s.ok();
        if let (true, Some(served)) = (good, &s.kept_items) {
            t.verified += 1;
            good = expected(&s.query).as_ref() == Some(served);
        }
        if good {
            t.ok += 1;
        } else {
            t.failed += 1;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            zipf: Zipf::new(500, 1.1),
            ks: &[5, 10, 15],
            exclude_seen_half: true,
        }
    }

    fn sample(
        user: u32,
        due_ms: u64,
        started_ms: u64,
        ended_ms: u64,
        items: Option<Vec<u32>>,
    ) -> Sample {
        Sample {
            query: Query {
                user,
                k: 2,
                exclude_seen: false,
            },
            due: Duration::from_millis(due_ms),
            started: Duration::from_millis(started_ms),
            ended: Duration::from_millis(ended_ms),
            status: Some(200),
            kept_items: items,
        }
    }

    #[test]
    fn same_seed_same_schedule_with_monotone_due_times() {
        let a = open_schedule(400, 200.0, &mix(), &mut Rng::new(11));
        let b = open_schedule(400, 200.0, &mix(), &mut Rng::new(11));
        let c = open_schedule(400, 200.0, &mix(), &mut Rng::new(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].due < w[1].due));
        assert_eq!(a[0].due, Duration::ZERO);
        assert_eq!(a[200].due, Duration::from_secs(1));
        // The mix covers every k and both exclude_seen settings.
        for k in [5, 10, 15] {
            assert!(a.iter().any(|r| r.query.k == k));
        }
        let excl = a.iter().filter(|r| r.query.exclude_seen).count();
        assert!((120..280).contains(&excl), "exclude_seen on {excl}/400");
        assert_eq!(
            target(&Query {
                user: 3,
                k: 5,
                exclude_seen: true
            }),
            "/recommend?user=3&k=5&exclude_seen=true"
        );
    }

    #[test]
    fn latency_runs_from_due_time_and_lateness_is_counted() {
        // Due at 10 ms, sent at 13 ms (3 ms late), answered at 15 ms.
        let late = sample(0, 10, 13, 15, None);
        assert_eq!(late.latency_ms(), 5.0);
        assert_eq!(late.lateness_ms(), 3.0);
        assert!(late.late());
        let on_time = sample(0, 10, 10, 12, None);
        assert!(!on_time.late());
        let t = tally(&[late, on_time], |_| None);
        assert_eq!(
            t,
            Tally {
                sent: 2,
                ok: 2,
                failed: 0,
                verified: 0,
                late: 1
            }
        );
    }

    #[test]
    fn windows_confine_a_stall_to_the_requests_it_delayed() {
        // 3 windows of 1 s at 10 requests/s, each answered in 2 ms, except
        // that a freeze at 1.0 s holds the next three until 1.35 s.
        let mut samples: Vec<Sample> = (0..30u64)
            .map(|j| sample(0, j * 100, j * 100, j * 100 + 2, None))
            .collect();
        for s in &mut samples[10..13] {
            s.ended = Duration::from_millis(1350);
        }
        let tails = window_percentiles(&samples, Duration::from_secs(1), 1.0);
        assert_eq!(tails, vec![2.0, 350.0, 2.0]);
        // By end time: 10 replies in the first second, 10 in the second
        // (the delayed three included), 10 in the third; none after 3 s.
        let second = Duration::from_secs(1);
        assert_eq!(
            window_rates(&samples, second, Duration::from_secs(3)),
            vec![10.0, 10.0, 10.0]
        );
        // A failed reply is not counted, and a phase shorter than a window
        // is one window of its own length.
        samples[0].status = Some(503);
        assert_eq!(
            window_rates(&samples, second, Duration::from_millis(500)),
            vec![8.0]
        );
    }

    #[test]
    fn a_wrong_or_failed_answer_is_counted_as_failed() {
        let expected = |q: &Query| Some(vec![q.user, q.user + 1]);
        let mut samples = vec![
            sample(1, 0, 0, 1, Some(vec![1, 2])),
            sample(2, 0, 0, 1, None),
            sample(3, 0, 0, 1, Some(vec![3, 4])),
        ];
        assert_eq!(
            tally(&samples, expected),
            Tally {
                sent: 3,
                ok: 3,
                failed: 0,
                verified: 2,
                late: 0
            }
        );
        // Corrupt one sampled answer: verification is live.
        samples[2].kept_items = Some(vec![3, 5]);
        assert_eq!(tally(&samples, expected).failed, 1);
        // A non-200 and a transport error fail without being verified.
        samples[0].status = Some(503);
        samples[1].status = None;
        let t = tally(&samples, expected);
        assert_eq!((t.failed, t.ok, t.verified), (3, 0, 1));
    }
}
