//! Pure statistics used by every workload: order statistics, the
//! reportable tail percentile, the open-loop backlog test, and the rate
//! ladder's rung choice. Everything here is deterministic and unit-tested.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by nearest rank; `NaN` when
/// empty. `sorted` must be in ascending order.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `xs` (the mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles a timing may be reported at, lowest first.
const REPORTABLE: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest reportable percentile that leaves at least ten samples
/// beyond it, for a sample of `n` (`None` for fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    REPORTABLE
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A one-line summary of a timing sample: count, median, and the highest
/// percentile with at least ten samples beyond it.
pub fn describe(name: &str, unit: &str, samples: &mut [f64]) -> String {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let p50 = quantile(samples, 0.5);
    match tail_percentile(n) {
        Some(p) if p > 50.0 => format!(
            "{name}: n={n} p50={p50:.4}{unit} p{p}={:.4}{unit}",
            quantile(samples, p / 100.0)
        ),
        _ => format!("{name}: n={n} p50={p50:.4}{unit}"),
    }
}

/// Whether an open-loop run's unacknowledged backlog grew: `samples` are
/// the backlog (lines sent minus lines acknowledged) at evenly spaced
/// instants over the sending window. The backlog grows when the mean of
/// the last quarter exceeds twice the mean of the first quarter plus
/// `slack` lines (the backlog a healthy server carries at that rate).
pub fn backlog_grows(samples: &[u64], slack: f64) -> bool {
    let q = (samples.len() / 4).max(1);
    if samples.len() < 2 * q {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    mean(&samples[samples.len() - q..]) > 2.0 * mean(&samples[..q]) + slack
}

/// What one ladder rung measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate in lines per second.
    pub rate: f64,
    /// Acknowledgement latency p99 in milliseconds.
    pub ack_p99_ms: f64,
    /// Lines shed by the server.
    pub shed: usize,
    /// Lines sent that never got an acknowledgement, plus other
    /// correctness violations.
    pub failed: usize,
    /// Whether the unacknowledged backlog grew over the rung.
    pub backlog_grew: bool,
}

impl Rung {
    /// The rung meets the service limit: p99 within `limit_ms`, nothing
    /// shed or failed, and no growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.ack_p99_ms <= limit_ms && self.shed == 0 && self.failed == 0 && !self.backlog_grew
    }
}

/// Rung `k` of the fixed geometric rate grid `base · ratio^k`.
pub fn grid_rate(base: f64, ratio: f64, k: u32) -> f64 {
    base * ratio.powi(k as i32)
}

/// The rate ladder's walk, an up-down staircase on the fixed grid: from
/// rung 0 it climbs `first_step` rungs at a time while rungs pass; every
/// reversal (a failure after a pass, or a pass after a failure) halves
/// the step, down to one rung; a pass moves up by the step and a failure
/// down. The walk settles around the rung that passes half the time.
/// Given the outcomes so far (in visiting order), returns the next rung
/// and the step in force when it is visited.
pub fn staircase(passed: &[bool], first_step: u32, max_k: u32) -> (u32, u32) {
    let (mut k, mut step) = (0u32, first_step.max(1));
    let mut prev = None;
    for &pass in passed {
        if prev.is_some_and(|p| p != pass) {
            step = (step / 2).max(1);
        }
        k = if pass {
            (k + step).min(max_k)
        } else {
            k.saturating_sub(step)
        };
        prev = Some(pass);
    }
    (k, step)
}

/// One visited rung: its rate, the staircase step it was visited at, and
/// whether it passed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Visit {
    pub rate: f64,
    pub step: u32,
    pub passed: bool,
}

/// The staircase's answer: the median rate of the rungs visited at step
/// one, once the walk has settled. Before it settles, the median of the
/// rungs from the first failure on; with no failure at all, the highest
/// rate visited.
pub fn staircase_rate(visits: &[Visit]) -> f64 {
    let settled: Vec<f64> = visits
        .iter()
        .filter(|v| v.step == 1)
        .map(|v| v.rate)
        .collect();
    if !settled.is_empty() {
        return median(&settled);
    }
    match visits.iter().position(|v| !v.passed) {
        Some(i) => median(&visits[i..].iter().map(|v| v.rate).collect::<Vec<_>>()),
        None => visits.iter().map(|v| v.rate).fold(f64::NAN, f64::max),
    }
}

/// Whether `name` is a valid metric name: non-empty, at most 64
/// characters of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(5_000_000), Some(99.99));
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            describe("x", "ms", &mut xs),
            "x: n=1000 p50=500.0000ms p99=990.0000ms"
        );
    }

    #[test]
    fn backlog_growth_needs_a_sustained_rise() {
        assert!(!backlog_grows(&[5, 6, 5, 7, 6, 5, 6, 5], 8.0));
        assert!(!backlog_grows(&[5, 6, 8, 10, 12, 14, 16, 18], 16.0));
        assert!(backlog_grows(&[5, 20, 60, 120, 200, 300, 400, 500], 16.0));
        assert!(!backlog_grows(&[], 0.0));
    }

    #[test]
    fn rung_passes_only_within_every_limit() {
        let ok = Rung {
            rate: 1000.0,
            ack_p99_ms: 3.0,
            shed: 0,
            failed: 0,
            backlog_grew: false,
        };
        assert!(ok.passes(50.0));
        assert!(!Rung {
            ack_p99_ms: 51.0,
            ..ok
        }
        .passes(50.0));
        assert!(!Rung { shed: 1, ..ok }.passes(50.0));
        assert!(!Rung { failed: 1, ..ok }.passes(50.0));
        assert!(!Rung {
            backlog_grew: true,
            ..ok
        }
        .passes(50.0));
    }

    /// Walks `n` rungs against a server that passes every rung up to
    /// `knee` (rate = rung number).
    fn walk(knee: u32, n: usize, max_k: u32) -> Vec<Visit> {
        let mut passed = Vec::new();
        let mut visits = Vec::new();
        for _ in 0..n {
            let (k, step) = staircase(&passed, 8, max_k);
            passed.push(k <= knee);
            visits.push(Visit {
                rate: f64::from(k),
                step,
                passed: k <= knee,
            });
        }
        visits
    }

    #[test]
    fn staircase_settles_at_the_knee() {
        for knee in 0..60 {
            let visits = walk(knee, 24, 110);
            // Coarse steps up, then single rungs around the knee.
            assert_eq!(visits[1].rate, 8.0);
            let settled: Vec<_> = visits.iter().filter(|v| v.step == 1).collect();
            assert!(settled.len() >= 8, "knee {knee}: {visits:?}");
            assert!(settled
                .iter()
                .all(|v| (v.rate - f64::from(knee)).abs() <= 1.0));
            let r = staircase_rate(&visits);
            assert!((r - f64::from(knee)).abs() <= 1.0, "knee {knee}: {r}");
        }
        // The grid tops out: the walk stays at the top rung.
        let visits = walk(200, 20, 40);
        assert_eq!(visits.last().unwrap().rate, 40.0);
        assert_eq!(staircase_rate(&visits), 40.0);
    }

    #[test]
    fn staircase_halves_its_step_at_each_reversal() {
        assert_eq!(staircase(&[], 8, 99), (0, 8));
        assert_eq!(staircase(&[true, true], 8, 99), (16, 8));
        assert_eq!(staircase(&[true, true, false], 8, 99), (12, 4));
        assert_eq!(staircase(&[true, true, false, true], 8, 99), (14, 2));
        assert_eq!(staircase(&[true, true, false, true, false], 8, 99), (13, 1));
        // Failing from the first rung on: the walk stays at rung 0.
        assert_eq!(staircase(&[false, false], 8, 99), (0, 8));
        assert_eq!(grid_rate(1000.0, 2.0, 3), 8000.0);
    }

    #[test]
    fn staircase_answer_before_it_settles() {
        let v = |rate, step, passed| Visit { rate, step, passed };
        // The rungs from the first failure on: their median.
        assert_eq!(
            staircase_rate(&[
                v(1.0, 8, true),
                v(9.0, 8, false),
                v(5.0, 4, true),
                v(7.0, 2, false)
            ]),
            7.0
        );
        // Only passes: the highest rate.
        assert_eq!(staircase_rate(&[v(1.0, 8, true), v(9.0, 8, true)]), 9.0);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("core.decide_p50_us"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
