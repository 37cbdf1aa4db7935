//! Latency samples, the percentile rule, and open-loop due-time timing.

use std::time::{Duration, Instant};

/// Per-mille ranks of the percentiles the benchmark reports, highest first.
const LADDER: [u32; 4] = [999, 990, 900, 500];

/// Latency samples in milliseconds. A failed or refused operation stays in
/// the sample as `f64::INFINITY`: it missed every latency limit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    /// Records one completed operation.
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Records one failed or refused operation.
    pub fn push_failed(&mut self) {
        self.ms.push(f64::INFINITY);
    }

    /// Merges another thread's samples.
    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// Sample count, failures included.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// The nearest-rank percentile `permille`/1000, or `None` when fewer
    /// than ten samples lie beyond it.
    pub fn percentile(&self, permille: u32) -> Option<f64> {
        let n = self.ms.len();
        if !supported(permille, n) {
            return None;
        }
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank(permille, n) - 1])
    }

    /// The highest percentile on the ladder (p99.9, p99, p90, p50) with at
    /// least ten samples beyond it, as `(permille, value)`.
    pub fn tail(&self) -> Option<(u32, f64)> {
        LADDER.iter().find_map(|&pm| self.percentile(pm).map(|v| (pm, v)))
    }
}

/// 1-based nearest rank of percentile `permille` among `n` samples.
fn rank(permille: u32, n: usize) -> usize {
    (n * permille as usize).div_ceil(1000).max(1)
}

/// Whether at least ten of `n` samples lie beyond the percentile.
fn supported(permille: u32, n: usize) -> bool {
    n > 0 && n - rank(permille, n) >= 10
}

/// A percentile label: 990 → "p99", 999 → "p99.9".
pub fn label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// Where an open loop reads and waits for time, as offsets from its start.
pub trait Clock {
    /// Time since the loop started.
    fn now(&self) -> Duration;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&self, t: Duration);
}

/// The real clock.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// One open-loop request as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// From the time it was due to the time it completed, in ms.
    pub latency_ms: f64,
    /// From the time it was due to the time it was sent, in ms.
    pub late_ms: f64,
    /// False when the operation failed or was refused.
    pub ok: bool,
}

/// Runs a fixed-rate open loop: request `i` is due at `i * interval`, and
/// each is timed from when it was due, so a stalled call charges its
/// lateness to every request queued behind it. `op(i)` sends request `i`
/// and returns whether it succeeded, or `None` when it has no more inputs.
/// Requests due at or after `until` are not sent.
pub fn run_open_loop<C: Clock>(
    clock: &C,
    interval: Duration,
    until: Duration,
    mut op: impl FnMut(u64) -> Option<bool>,
) -> Vec<Request> {
    let mut out = Vec::new();
    for index in 0.. {
        let due = interval * index as u32;
        if due >= until {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let Some(ok) = op(index) else { break };
        let done = clock.now();
        out.push(Request { latency_ms: ms(done - due), late_ms: ms(sent - due), ok });
    }
    out
}

/// Median over the whole seconds of a phase of the work completed in each
/// second. `done` holds `(completion time since the phase began, amount)`;
/// work completed after the last whole second is left out. A slow second
/// (a burst of CPU steal on a shared host) moves this less than it moves
/// the phase's mean rate.
pub fn median_rate(done: &[(Duration, u64)], seconds: u64) -> f64 {
    let mut per_second = vec![0u64; seconds.max(1) as usize];
    for (at, amount) in done {
        if let Some(slot) = per_second.get_mut(at.as_secs() as usize) {
            *slot += amount;
        }
    }
    let rates: Vec<f64> = per_second.iter().map(|&n| n as f64).collect();
    median(&rates)
}

/// A duration in fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a non-empty list of values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert!(supported(990, 1000));
        assert!(!supported(990, 999));
        assert!(supported(999, 10_000));
        assert!(!supported(999, 9_999));
        assert!(supported(500, 20));
        assert!(!supported(500, 19));
        assert!(!supported(500, 0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = samples((1..=1000).map(f64::from));
        assert_eq!(s.percentile(500), Some(500.0));
        assert_eq!(s.percentile(990), Some(990.0));
        assert_eq!(s.percentile(999), None);
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(samples((1..=10_000).map(f64::from)).tail(), Some((999, 9990.0)));
        assert_eq!(samples((1..=1000).map(f64::from)).tail(), Some((990, 990.0)));
        assert_eq!(samples((1..=150).map(f64::from)).tail(), Some((900, 135.0)));
        assert_eq!(samples((1..=30).map(f64::from)).tail(), Some((500, 15.0)));
        assert_eq!(samples((1..=19).map(f64::from)).tail(), None);
        assert_eq!(label(999), "p99.9");
        assert_eq!(label(990), "p99");
    }

    #[test]
    fn failures_stay_in_the_sample_as_missing_the_limit() {
        let mut s = samples((1..=990).map(f64::from));
        for _ in 0..10 {
            s.push_failed();
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.percentile(990), Some(990.0));
        s.push_failed();
        // One more failure pushes the p99 rank onto a failed operation.
        assert_eq!(s.percentile(990), Some(f64::INFINITY));
    }

    /// Simulated time: sleeping jumps forward, operations advance it by
    /// their service time.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn a_stalled_call_charges_its_lateness_to_later_requests() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let service_ms = [1u64, 45, 1, 1, 1, 1, 1, 1];
        let requests =
            run_open_loop(&clock, Duration::from_millis(10), Duration::from_millis(80), |i| {
                clock.0.set(clock.0.get() + Duration::from_millis(service_ms[i as usize]));
                Some(true)
            });
        let latency: Vec<f64> = requests.iter().map(|r| r.latency_ms).collect();
        let late: Vec<f64> = requests.iter().map(|r| r.late_ms).collect();
        // Request 1 (due 10) runs to 55. Requests 2..5 were due at 20..50
        // but could only be sent once it finished: each is charged the
        // wait. Request 6 (due 60) is back on schedule.
        assert_eq!(latency, vec![1.0, 45.0, 36.0, 27.0, 18.0, 9.0, 1.0, 1.0]);
        assert_eq!(late, vec![0.0, 0.0, 35.0, 26.0, 17.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn open_loop_stops_at_the_deadline_or_when_inputs_run_out() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let all =
            run_open_loop(&clock, Duration::from_millis(10), Duration::from_millis(35), |_| {
                Some(false)
            });
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|r| !r.ok));
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let few = run_open_loop(&clock, Duration::from_millis(10), Duration::from_secs(1), |i| {
            (i < 3).then_some(true)
        });
        assert_eq!(few.len(), 3);
    }

    #[test]
    fn median_rate_ignores_one_slow_second() {
        let s = Duration::from_secs;
        let mut done: Vec<(Duration, u64)> = (0..3).map(|i| (s(i) + s(1) / 2, 100)).collect();
        done.push((s(1) + s(1) / 4, 100));
        done.push((s(3), 5)); // after the last whole second: left out
                              // Seconds hold 100, 200, 100: the median second did 100.
        assert_eq!(median_rate(&done, 3), 100.0);
        assert_eq!(median_rate(&[(s(0), 7)], 1), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
