//! Property tests: whatever an (arbitrarily misbehaved) policy does, the
//! engine must only ever produce schedules satisfying every §III-B
//! constraint.

use mmsec_platform::{
    validate_with, CloudId, DirectiveBuffer, EdgeId, EngineOptions, Instance, Job, JobId,
    OnlineScheduler, PendingSet, PlatformSpec, SimView, Simulation, Target, ValidateOptions,
};
use mmsec_sim::seed::SplitMix64;
use proptest::prelude::*;

/// A chaos-monkey policy: pseudo-random priority order, pseudo-random
/// targets, occasional retargets (triggering re-executions), occasional
/// omissions (pausing jobs).
struct ChaosPolicy {
    rng: SplitMix64,
    num_cloud: usize,
    retarget_prob: f64,
    omit_prob: f64,
}

impl OnlineScheduler for ChaosPolicy {
    fn name(&self) -> String {
        "chaos".into()
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        let mut jobs: Vec<_> = view.pending_jobs().collect();
        // Fisher-Yates shuffle with the deterministic stream.
        for i in (1..jobs.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            jobs.swap(i, j);
        }
        for id in jobs {
            if self.rng.next_f64() < self.omit_prob {
                continue;
            }
            let target = match view.jobs.committed[id.0] {
                Some(t) if self.rng.next_f64() >= self.retarget_prob => t,
                _ => self.random_target(),
            };
            out.push(id, target);
        }
    }
}

impl ChaosPolicy {
    fn random_target(&mut self) -> Target {
        if self.num_cloud == 0 || self.rng.next_f64() < 0.4 {
            Target::Edge
        } else {
            Target::Cloud(CloudId((self.rng.next_u64() as usize) % self.num_cloud))
        }
    }
}

/// FIFO policy that sends everything to the edge — guaranteed to finish.
struct EdgeFifo;
impl OnlineScheduler for EdgeFifo {
    fn name(&self) -> String {
        "edge-fifo".into()
    }
    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        for j in view.pending_jobs() {
            out.push(j, Target::Edge);
        }
    }
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        1usize..4, // edge units
        0usize..3, // cloud processors
        prop::collection::vec(
            (
                0.0f64..20.0,
                0.1f64..8.0,
                0.0f64..6.0,
                0.0f64..6.0,
                0usize..4,
            ),
            1..10,
        ),
        prop::collection::vec(0.05f64..1.0, 1..4), // edge speeds
    )
        .prop_map(|(ne, nc, raw_jobs, speeds)| {
            let mut edge_speeds = speeds;
            edge_speeds.resize(ne, 0.5);
            let spec = PlatformSpec::builder()
                .edges(edge_speeds)
                .cloud_pool(nc)
                .build();
            let jobs = raw_jobs
                .into_iter()
                .map(|(r, w, up, dn, o)| Job::new(EdgeId(o % ne), r, w, up, dn))
                .collect();
            Instance::new(spec, jobs).expect("generated instance valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chaos policy with bounded retargeting: if the run finishes, the
    /// schedule is valid. (Unbounded retargeting can livelock, which the
    /// engine reports as an error rather than producing garbage.)
    #[test]
    fn chaos_runs_always_validate(inst in arb_instance(), seed in any::<u64>()) {
        let mut policy = ChaosPolicy {
            rng: SplitMix64::new(seed),
            num_cloud: inst.spec.num_cloud(),
            retarget_prob: 0.05,
            omit_prob: 0.2,
        };
        match Simulation::of(&inst).policy(&mut policy).run() {
            Ok(out) => {
                prop_assert!(out.schedule.all_finished());
                if let Err(violations) = mmsec_platform::validate(&inst, &out.schedule) {
                    return Err(TestCaseError::fail(format!("violations: {violations:?}")));
                }
                // Stretch is well-defined and ≥ 1 for every job.
                let report = mmsec_platform::StretchReport::new(&inst, &out.schedule);
                for (i, &s) in report.stretches.iter().enumerate() {
                    prop_assert!(s >= 1.0 - 1e-9, "job {i} has stretch {s} < 1");
                }
            }
            Err(e) => {
                // A chaotic policy may stall or livelock; both are
                // reported errors, never invalid schedules.
                let _ = e;
            }
        }
    }

    /// The deterministic edge-FIFO policy always completes with a valid
    /// schedule, no re-executions, and no communications.
    #[test]
    fn edge_fifo_always_completes(inst in arb_instance()) {
        let out = Simulation::of(&inst).policy(&mut EdgeFifo).run().unwrap();
        prop_assert!(out.schedule.all_finished());
        prop_assert_eq!(out.stats.restarts, 0);
        prop_assert!(mmsec_platform::validate(&inst, &out.schedule).is_ok());
        for i in 0..inst.num_jobs() {
            prop_assert!(out.schedule.up(i).is_empty());
            prop_assert!(out.schedule.dn(i).is_empty());
        }
    }

    /// Infinite-port runs complete and validate once port checks are
    /// disabled. (Note: per-job completions are NOT necessarily ≤ the
    /// strict one-port ones — removing contention shifts decision events
    /// and triggers classic list-scheduling anomalies, which is precisely
    /// why the ablation A2 is measured rather than assumed.)
    #[test]
    fn infinite_ports_runs_validate(inst in arb_instance(), seed in any::<u64>()) {
        prop_assume!(inst.spec.num_cloud() > 0);
        struct CloudFifo { k: usize }
        impl OnlineScheduler for CloudFifo {
            fn name(&self) -> String { "cloud-fifo".into() }
            fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
                for j in view.pending_jobs() {
                    out.push(j, Target::Cloud(CloudId(j.0 % self.k)));
                }
            }
        }
        let k = inst.spec.num_cloud();
        let _ = seed;
        let strict = Simulation::of(&inst).policy(&mut CloudFifo { k }).run().unwrap();
        let loose = Simulation::of(&inst).policy(&mut CloudFifo { k }).options(EngineOptions { infinite_ports: true, ..EngineOptions::default() }).run()
        .unwrap();
        let opts = ValidateOptions { check_ports: false, ..ValidateOptions::default() };
        prop_assert!(validate_with(&inst, &loose.schedule, opts).is_ok());
        prop_assert!(loose.schedule.all_finished());
        prop_assert!(strict.schedule.all_finished());
        prop_assert!(mmsec_platform::validate(&inst, &strict.schedule).is_ok());
    }

    /// The incrementally maintained [`PendingSet`] stays identical to a
    /// brute-force rescan of the job states after *every* event of an
    /// arbitrary release/completion sequence — the invariant the engine
    /// relies on when it swaps the per-event O(n) scan for incremental
    /// insert/remove.
    #[test]
    fn pending_set_matches_brute_force_rescan(inst in arb_instance(), seed in any::<u64>()) {
        use mmsec_platform::JobState;

        let n = inst.num_jobs();
        let mut rng = SplitMix64::new(seed);
        let mut states = vec![JobState::default(); n];
        let mut pending = PendingSet::new();

        // Drive an arbitrary-but-legal event sequence: each step either
        // releases an unreleased job or completes a pending one, mirroring
        // exactly the two transitions the engine performs (release fires →
        // insert; completion in step 7 → remove). 2n steps exhaust all
        // jobs' lifecycles.
        for _ in 0..2 * n {
            let releasable: Vec<JobId> = (0..n)
                .map(JobId)
                .filter(|id| !states[id.0].released)
                .collect();
            let completable: Vec<JobId> = (0..n)
                .map(JobId)
                .filter(|id| states[id.0].active())
                .collect();
            let release_step = !releasable.is_empty()
                && (completable.is_empty() || rng.next_u64() % 2 == 0);
            if release_step {
                let id = releasable[(rng.next_u64() as usize) % releasable.len()];
                states[id.0].released = true;
                pending.insert(inst.job(id).release, id);
            } else if !completable.is_empty() {
                let id = completable[(rng.next_u64() as usize) % completable.len()];
                states[id.0].finished = true;
                pending.remove(inst.job(id).release, id);
            }

            // The incremental set must equal the brute-force rescan…
            let rescan = PendingSet::from_states(&inst, &states);
            prop_assert_eq!(&pending, &rescan);
            // …and iterate in (release, id) order.
            let mut expected: Vec<(mmsec_sim::Time, JobId)> = (0..n)
                .map(JobId)
                .filter(|id| states[id.0].active())
                .map(|id| (inst.job(id).release, id))
                .collect();
            expected.sort();
            let got: Vec<JobId> = pending.iter().collect();
            let expected_ids: Vec<JobId> = expected.into_iter().map(|(_, id)| id).collect();
            prop_assert_eq!(got, expected_ids);
        }
        // Every lifecycle exhausted: nothing is pending.
        prop_assert!(pending.is_empty());
    }
}
