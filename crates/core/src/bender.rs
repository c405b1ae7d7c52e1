//! Single-machine *stretch-so-far EDF* machinery (Bender et al. \[3\], \[4\]).
//!
//! On one machine with preemption, when every considered job is already
//! released, earliest-deadline-first is feasibility-optimal and
//! feasibility of a deadline set has a closed form: sort by deadline and
//! check the prefix sums of remaining processing times,
//! `Σ_{d_j ≤ d_i} p_j ≤ d_i − now` for all `i`.
//!
//! For a target stretch `S`, deadlines are `d_i = r_i + S · t_i^min` where
//! `t_i^min` is the best dedicated-platform time of the job (the paper's
//! edge-cloud correction: the denominator accounts for a potential cloud
//! execution even when scheduling locally). The minimum feasible `S` is
//! found by binary search to a relative precision `ε` — exactly the
//! mechanism SSF-EDF (§V-D) and Edge-Only (§V-A) build on.

use mmsec_platform::JobId;
use mmsec_sim::time::approx;
use mmsec_sim::Time;

/// A released job as seen by the single-machine scheduler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReleasedJob {
    /// Job identity (carried through for reporting).
    pub id: JobId,
    /// Release date `r_i`.
    pub release: Time,
    /// *Remaining* processing time on this machine.
    pub proc_time: f64,
    /// Best dedicated-platform time `min(t^e_i, t^c_i)` (stretch denominator).
    pub min_time: f64,
}

/// Deadline of a job under target stretch `s`.
#[inline]
pub fn deadline(job: &ReleasedJob, s: f64) -> Time {
    job.release + Time::new(s * job.min_time)
}

/// Feasibility of target stretch `s` at time `now` for already-released
/// jobs on one machine with preemptive EDF (exact). `order` is scratch
/// space, reused across calls so a probe allocates nothing once warm.
pub fn edf_feasible(
    now: Time,
    jobs: &[ReleasedJob],
    s: f64,
    order: &mut Vec<(f64, usize)>,
) -> bool {
    order.clear();
    order.extend(
        jobs.iter()
            .enumerate()
            .map(|(i, j)| (deadline(j, s).seconds(), i)),
    );
    // Equal deadlines keep the input order, as a stable sort would: the
    // prefix sums below then add up in the same order.
    order.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
    let mut load = 0.0;
    for &(d, i) in order.iter() {
        load += jobs[i].proc_time;
        if !approx::le(now.seconds() + load, d) {
            return false;
        }
    }
    true
}

/// Largest stretch already *forced* at `now`: even if some job ran alone
/// and immediately, its stretch would be at least this.
pub fn forced_stretch(now: Time, jobs: &[ReleasedJob]) -> f64 {
    jobs.iter()
        .map(|j| (now.seconds() + j.proc_time - j.release.seconds()) / j.min_time)
        .fold(1.0, f64::max)
}

/// Minimum feasible target stretch at `now` for the released jobs, to
/// relative precision `eps_rel` (binary search; paper §V-D). `order` is
/// the probes' scratch space (see [`edf_feasible`]).
pub fn optimal_stretch_so_far(
    now: Time,
    jobs: &[ReleasedJob],
    eps_rel: f64,
    order: &mut Vec<(f64, usize)>,
) -> f64 {
    assert!(eps_rel > 0.0);
    if jobs.is_empty() {
        return 1.0;
    }
    let mut lo = forced_stretch(now, jobs);
    if edf_feasible(now, jobs, lo, order) {
        return lo;
    }
    // Find a feasible upper bound by doubling.
    let mut hi = lo.max(1.0) * 2.0;
    let mut doubles = 0;
    while !edf_feasible(now, jobs, hi, order) {
        hi *= 2.0;
        doubles += 1;
        assert!(
            doubles < 128,
            "no feasible stretch found (inconsistent input)"
        );
    }
    // Binary search [lo, hi).
    while hi - lo > eps_rel * lo {
        let mid = 0.5 * (lo + hi);
        if edf_feasible(now, jobs, mid, order) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Jobs sorted by EDF priority under target stretch `s` (ties by id for
/// determinism).
pub fn edf_order(jobs: &[ReleasedJob], s: f64) -> Vec<ReleasedJob> {
    let mut sorted = jobs.to_vec();
    sorted.sort_by(|a, b| {
        deadline(a, s)
            .cmp(&deadline(b, s))
            .then_with(|| a.id.cmp(&b.id))
    });
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, release: f64, proc_time: f64, min_time: f64) -> ReleasedJob {
        ReleasedJob {
            id: JobId(id),
            release: Time::new(release),
            proc_time,
            min_time,
        }
    }

    #[test]
    fn single_job_stretch_one() {
        let jobs = [job(0, 0.0, 4.0, 4.0)];
        assert!(edf_feasible(Time::ZERO, &jobs, 1.0, &mut Vec::new()));
        let s = optimal_stretch_so_far(Time::ZERO, &jobs, 1e-9, &mut Vec::new());
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn intro_example_optimal_order() {
        // 1-hour and 10-hour jobs released together on one unit-speed
        // machine: optimal max-stretch is 1.1 (short job first).
        let jobs = [job(0, 0.0, 1.0, 1.0), job(1, 0.0, 10.0, 10.0)];
        assert!(edf_feasible(Time::ZERO, &jobs, 1.1, &mut Vec::new()));
        assert!(!edf_feasible(Time::ZERO, &jobs, 1.05, &mut Vec::new()));
        let s = optimal_stretch_so_far(Time::ZERO, &jobs, 1e-6, &mut Vec::new());
        assert!((s - 1.1).abs() < 1e-4, "s = {s}");
        // EDF order at the optimum runs the short job first.
        let order = edf_order(&jobs, s);
        assert_eq!(order[0].id, JobId(0));
    }

    #[test]
    fn forced_stretch_accounts_elapsed_time() {
        // Job released at 0, 1 unit remaining, at now = 9: stretch ≥ 10.
        let jobs = [job(0, 0.0, 1.0, 1.0)];
        let f = forced_stretch(Time::new(9.0), &jobs);
        assert!((f - 10.0).abs() < 1e-12);
        let s = optimal_stretch_so_far(Time::new(9.0), &jobs, 1e-9, &mut Vec::new());
        assert!((s - 10.0).abs() < 1e-6);
    }

    #[test]
    fn denominator_may_differ_from_processing() {
        // Edge-cloud correction: a job processed in 6 locally but with
        // min_time 4 (cloud would take 4) has stretch ≥ 1.5 locally.
        let jobs = [job(0, 0.0, 6.0, 4.0)];
        let s = optimal_stretch_so_far(Time::ZERO, &jobs, 1e-9, &mut Vec::new());
        assert!((s - 1.5).abs() < 1e-6);
    }

    #[test]
    fn three_jobs_same_length() {
        // Three unit jobs released together: completions 1, 2, 3 → optimal
        // max stretch 3.
        let jobs = [
            job(0, 0.0, 1.0, 1.0),
            job(1, 0.0, 1.0, 1.0),
            job(2, 0.0, 1.0, 1.0),
        ];
        let s = optimal_stretch_so_far(Time::ZERO, &jobs, 1e-6, &mut Vec::new());
        assert!((s - 3.0).abs() < 1e-3, "s = {s}");
    }

    #[test]
    fn binary_search_converges_from_infeasible_lower_bound() {
        // Staggered releases where the forced bound is loose.
        let jobs = [
            job(0, 0.0, 5.0, 5.0),
            job(1, 1.0, 1.0, 1.0),
            job(2, 2.0, 2.0, 2.0),
        ];
        let s = optimal_stretch_so_far(Time::new(3.0), &jobs, 1e-6, &mut Vec::new());
        assert!(edf_feasible(Time::new(3.0), &jobs, s, &mut Vec::new()));
        assert!(!edf_feasible(
            Time::new(3.0),
            &jobs,
            s * 0.98,
            &mut Vec::new()
        ));
    }

    #[test]
    fn edf_order_breaks_ties_by_id() {
        let jobs = [job(1, 0.0, 1.0, 2.0), job(0, 0.0, 1.0, 2.0)];
        let order = edf_order(&jobs, 1.0);
        assert_eq!(order[0].id, JobId(0));
        assert_eq!(order[1].id, JobId(1));
    }

    #[test]
    fn empty_job_set() {
        assert_eq!(
            optimal_stretch_so_far(Time::ZERO, &[], 1e-3, &mut Vec::new()),
            1.0
        );
        assert!(edf_feasible(Time::ZERO, &[], 1.0, &mut Vec::new()));
        assert_eq!(forced_stretch(Time::ZERO, &[]), 1.0);
    }
}
