//! The open-loop schedule and the ladder's pass/fail rule, kept free of I/O
//! so they can be tested without a server.

use crate::stats::Summary;

/// Latency limit on the tail percentile of a rung, microseconds.
pub const LIMIT_US: f64 = 5_000.0;

/// A request sent more than this long after it was due is the generator's
/// failure to keep the schedule, not the server's to answer: on a shared
/// host the generator's own thread is sometimes stalled for milliseconds.
pub const ON_TIME_US: f64 = 1_000.0;

/// A rung whose generator sent more than this share of requests late did
/// not offer the rate it claims, and counts as a miss.
pub const MAX_LATE_SHARE: f64 = 0.05;

/// When request `k` of a rung offered at `rate` req/s is due, in
/// nanoseconds after the rung's start: evenly spaced arrivals, independent
/// of how the server (or the generator) is doing.
pub fn due_ns(k: u64, rate: u32) -> u64 {
    k * 1_000_000_000 / rate as u64
}

/// Number of requests a rung of `seconds` at `rate` offers.
pub fn rung_requests(rate: u32, seconds: f64) -> u64 {
    (rate as f64 * seconds).round().max(1.0) as u64
}

/// One open-loop request's timestamps, nanoseconds after the rung's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Sample {
    /// Latency is timed from when the request was *due*, not from when it
    /// was sent: a stall that delays later sends is charged to them.
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }

    /// How late the generator sent it.
    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Whether the backlog grew over a rung: mean requests outstanding in the
/// last quarter of the rung against the first quarter. A server keeping up
/// holds a steady handful; one falling behind gains `(rate - capacity)`
/// per second.
pub fn backlog_growing(first_quarter_mean: f64, last_quarter_mean: f64) -> bool {
    last_quarter_mean > first_quarter_mean + 8.0
}

/// What one rung produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: u32,
    /// Latency from the due time, every request.
    pub latency: Summary,
    /// The same, over the requests the generator sent on time: what the
    /// limit is judged on.
    pub on_time: Summary,
    pub failures: u64,
    pub backlog_growing: bool,
}

impl Rung {
    pub fn new(rate: u32, samples: &[Sample], failures: u64, backlog_growing: bool) -> Rung {
        let all: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
        let on_time: Vec<f64> =
            samples.iter().filter(|s| s.late_us() <= ON_TIME_US).map(Sample::latency_us).collect();
        Rung {
            rate,
            latency: crate::stats::summarize(&all),
            on_time: crate::stats::summarize(&on_time),
            failures,
            backlog_growing,
        }
    }

    /// Share of requests the generator sent late.
    pub fn late_share(&self) -> f64 {
        if self.latency.n == 0 {
            1.0
        } else {
            1.0 - self.on_time.n as f64 / self.latency.n as f64
        }
    }

    /// A rung meets the limit when the tail latency of the requests sent on
    /// time is within it, nothing failed or was refused, the backlog is not
    /// growing, and the generator kept its schedule.
    pub fn ok(&self) -> bool {
        self.on_time.n > 0
            && self.on_time.tail <= LIMIT_US
            && self.failures == 0
            && !self.backlog_growing
            && self.late_share() <= MAX_LATE_SHARE
    }
}

/// The highest rate that met the limit, given the rungs run in ascending
/// order up to and including the first miss; 0 if the first rung missed.
pub fn max_rate_ok(rungs: &[Rung]) -> u32 {
    rungs.iter().take_while(|r| r.ok()).map(|r| r.rate).last().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_evenly_spaced() {
        assert_eq!(due_ns(0, 250), 0);
        assert_eq!(due_ns(1, 250), 4_000_000);
        assert_eq!(due_ns(250, 250), 1_000_000_000);
        assert_eq!(due_ns(3, 4000), 750_000);
        assert_eq!(rung_requests(250, 7.2), 1800);
        assert_eq!(rung_requests(4000, 0.0001), 1);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 4 ms, but the generator was stalled until 7 ms; the reply
        // came 1 ms after the send. The client waited 4 ms, not 1.
        let s = Sample { due_ns: 4_000_000, sent_ns: 7_000_000, done_ns: 8_000_000 };
        assert_eq!(s.latency_us(), 4_000.0);
        assert_eq!(s.late_us(), 3_000.0);
        // A server stall charges every request that was due during it, even
        // though each is answered quickly once sent.
        let stall_end = 50_000_000u64;
        let lat: Vec<f64> = (0..10)
            .map(|k| {
                let due = due_ns(k, 250);
                let sent = due.max(stall_end);
                Sample { due_ns: due, sent_ns: sent, done_ns: sent + 1_000_000 }.latency_us()
            })
            .collect();
        assert_eq!(lat[0], 51_000.0);
        assert_eq!(lat[9], 51_000.0 - 36_000.0);
    }

    fn rung(rate: u32, tail_us: f64, failures: u64, growing: bool) -> Rung {
        let done = (tail_us * 1e3) as u64;
        let samples = vec![Sample { due_ns: 0, sent_ns: 50_000, done_ns: done }; 1000];
        Rung::new(rate, &samples, failures, growing)
    }

    #[test]
    fn the_limit_is_judged_on_requests_sent_on_time() {
        // 2% of requests were sent 13 ms late (a stalled generator) and so
        // took 14 ms from their due time; the server answered all in 1.2 ms.
        let mut samples = vec![Sample { due_ns: 0, sent_ns: 50_000, done_ns: 1_250_000 }; 980];
        samples.extend(vec![Sample { due_ns: 0, sent_ns: 13_000_000, done_ns: 14_200_000 }; 20]);
        let r = Rung::new(250, &samples, 0, false);
        assert_eq!(r.latency.tail, 14_200.0, "the reported tail still counts them");
        assert_eq!(r.on_time.tail, 1_250.0);
        assert!((r.late_share() - 0.02).abs() < 1e-12);
        assert!(r.ok());
        // A generator that misses its schedule for 10% of requests did not
        // offer the rate: a miss, whatever the latencies.
        samples.extend(vec![Sample { due_ns: 0, sent_ns: 13_000_000, done_ns: 14_200_000 }; 100]);
        assert!(!Rung::new(250, &samples, 0, false).ok());
        // A slow server is still a slow server.
        let slow = vec![Sample { due_ns: 0, sent_ns: 50_000, done_ns: 6_000_000 }; 1000];
        assert!(!Rung::new(250, &slow, 0, false).ok());
    }

    #[test]
    fn ladder_stops_at_the_first_miss() {
        let ok = |rate| rung(rate, 1_200.0, 0, false);
        assert_eq!(max_rate_ok(&[ok(250), ok(500), rung(1000, 80_000.0, 0, true)]), 500);
        assert_eq!(max_rate_ok(&[rung(250, 6_000.0, 0, false)]), 0);
        assert_eq!(max_rate_ok(&[ok(250), rung(500, 1_200.0, 1, false), ok(1000)]), 250);
        assert_eq!(max_rate_ok(&[ok(250), rung(500, 1_200.0, 0, true)]), 250);
        assert_eq!(max_rate_ok(&[ok(250), ok(500), ok(1000), ok(2000), ok(4000)]), 4000);
        assert!(!backlog_growing(2.0, 9.0));
        assert!(backlog_growing(2.0, 11.0));
    }
}
