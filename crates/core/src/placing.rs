//! Shared placement machinery for the event-driven heuristics.
//!
//! Greedy (§V-B) and SRPT (§V-C) both repeat, at every event: *among jobs
//! that can start right now on some free resource, pick the best (job,
//! resource) pair, claim the resources, and iterate*. [`RoundState`]
//! tracks one such decision round:
//!
//! * a boolean map of resources already claimed *for this instant* (a job
//!   can only be activated if its first phase's resources are free), and
//! * a [`Projection`] of earliest-free times that accounts for the
//!   *durations* of everything claimed earlier in the round — so that a
//!   completion estimate on cloud `k` reflects the work already queued on
//!   `k` this round. Without this, all of a homogeneous cloud's
//!   processors look identical and every job piles onto the first one.

use mmsec_platform::projection::{Forecast, Projection};
use mmsec_platform::resource::{ResourceId, ResourceMap};
use mmsec_platform::{CloudId, Job, JobId, JobState, Phase, SimView, Target};
use mmsec_sim::time::approx;
use mmsec_sim::Time;
use std::cell::Cell;

/// Phase the job would run first if placed on `target` *now*: the current
/// phase when continuing on its committed target, the first non-empty
/// phase when (re)starting fresh.
pub fn first_phase(view: &SimView<'_>, id: JobId, target: Target) -> Option<Phase> {
    let jobs = view.jobs;
    let job = view.job(id);
    if jobs.committed[id.0] == Some(target) {
        return jobs.current_phase(id.0, job, target);
    }
    match target {
        Target::Edge => approx::positive(job.work).then_some(Phase::Compute),
        Target::Cloud(_) => {
            if approx::positive(job.up) {
                Some(Phase::Uplink)
            } else if approx::positive(job.work) {
                Some(Phase::Compute)
            } else if approx::positive(job.dn) {
                Some(Phase::Downlink)
            } else {
                None
            }
        }
    }
}

/// Cross-job interference scope of one claim, recorded so later pops can
/// repair a cached [`StartOption`] against only what the claim actually
/// wrote (see [`RoundState::refresh_option`]).
///
/// Outside its own origin edge, a claim writes exactly two places: the
/// profiles/busy marks of its target cloud (`cloud`), and the backlog of
/// the cloud CPU it retired its committed contribution from
/// (`retired_cloud`). Both `None` means the claim was edge-confined — its
/// entire write set (busy mark, profile move, dirt, and retirement) sat
/// on `EdgeCpu(origin)`.
#[derive(Clone, Copy, Debug)]
struct ClaimScope {
    /// Origin edge of the claimed job.
    origin: usize,
    /// Cloud whose profiles (and busy marks) the claim moved; `None` for
    /// an edge claim.
    cloud: Option<CloudId>,
    /// Cloud CPU whose backlog the claim retired — the claimed job had
    /// committed cloud progress; `None` when the retirement was absent or
    /// sat on the claimant's own edge CPU.
    retired_cloud: Option<CloudId>,
}

/// A placement option that can start immediately.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StartOption {
    /// Where the job would run.
    pub target: Target,
    /// Completion estimate from the round's projection (accounts for
    /// everything claimed earlier in the round; from-scratch volumes when
    /// `target` differs from the committed resource).
    pub completion: Time,
    /// First phase the job would run on `target` — cached so
    /// [`RoundState::claim_option`] skips the `first_phase` recompute.
    pub(crate) phase: Phase,
    /// The winning candidate's full forecast — cached so claiming applies
    /// the already-computed reservations instead of forecasting again.
    pub(crate) forecast: Forecast,
}

/// State of one decision round (one event).
///
/// Two layers of occupancy information:
///
/// * the **projection** holds only what has been *claimed* this round —
///   it drives the job-vs-job comparison (so a short job can still rank
///   ahead of a long committed job and preempt it, as SRPT requires);
/// * the **backlog** counts the remaining CPU work of committed-but-not-
///   yet-claimed jobs — it drives the *choice of target within one job*,
///   so that a fresh job facing twenty homogeneous cloud processors
///   prefers one whose CPU is not mid-way through someone else's job.
#[derive(Clone, Debug)]
pub struct RoundState {
    proj: Projection,
    busy_now: ResourceMap<bool>,
    /// Remaining CPU-seconds of unclaimed committed jobs, per CPU.
    backlog: ResourceMap<f64>,
    /// Which CPU each unclaimed committed job contributes backlog to.
    contribution: Vec<Option<(mmsec_platform::resource::ResourceId, f64)>>,
    /// Jobs whose `contribution` entry was set this round, so `reset` can
    /// clear them without an O(n) sweep.
    contributors: Vec<usize>,
    /// Cloud ids grouped by exact (speed, tier-path) triple — bitwise on
    /// the floats, ascending within each group. Clouds the round has not
    /// touched are interchangeable within a group (same compute rate
    /// *and* same multi-hop transfer pricing), so `best_startable`
    /// forecasts one representative per group instead of every cloud. On
    /// a flat platform every path factor is exactly 1.0, so the grouping
    /// degenerates to the pure speed classes it always was.
    speed_classes: Vec<Vec<CloudId>>,
    /// Speed-class index of each cloud — the inverse of `speed_classes`,
    /// so per-cloud paths (delta refresh) can reach the class quotient
    /// cache without searching the groups.
    cloud_class: Vec<u32>,
    /// Clouds this round has touched — claimed, or carrying committed-job
    /// backlog — and which therefore need individual evaluation.
    touched: Vec<bool>,
    /// Set entries of `touched`, so `reset` clears them without an O(K)
    /// sweep.
    touched_list: Vec<CloudId>,
    /// Platform version every per-unit table was sized for; a mismatch in
    /// `reset` (units joined, left, or re-provisioned) rebuilds the round
    /// wholesale — mutations are rare, so the realloc cost is noise.
    version: u64,
    /// Resources marked busy this round, so `reset` clears only those.
    busy_list: Vec<ResourceId>,
    /// CPUs `gather` credited backlog to this round (duplicates allowed),
    /// so `reset` zeroes only those.
    backlog_cpus: Vec<ResourceId>,
    /// One entry per claim this round, in claim order (`claim_log.len()
    /// == claims`): the interference scope consulted by `refresh_option`.
    claim_log: Vec<ClaimScope>,
    /// Number of claims applied this round. Doubles as a staleness tag:
    /// a [`StartOption`] computed at claim count `c` is exactly current
    /// as long as the count is still `c` (nothing mutated the round in
    /// between), so callers can reuse it without recomputing.
    claims: u32,
    /// Per-unit dirt since the round was (re)built: set when a claim
    /// moved the corresponding projection profile. Every busy mark lands
    /// on a resource `place_forecast` also moved, so a candidate whose
    /// resources are all clean still sees pristine (`== now`) profiles
    /// and a free first phase — its forecast collapses to the closed form
    /// [`Forecast::pristine`] with no profile loads or busy checks.
    dirty_edge_cpu: Vec<bool>,
    /// `EdgeOut(e)` moved (an uplink was claimed from edge `e`).
    dirty_edge_out: Vec<bool>,
    /// `EdgeIn(e)` moved (a downlink was claimed towards edge `e`).
    dirty_edge_in: Vec<bool>,
    /// Any of cloud `k`'s three resources moved (a claim landed on `k`).
    dirty_cloud: Vec<bool>,
    /// Cross-epoch quotient cache for fresh *edge* candidates:
    /// `fresh_edge_div[i]` holds `job.work / edge_speed(origin)` — a
    /// run-long constant per job, yet recomputed by every round's scan
    /// before this cache. NaN marks "not computed yet" (volumes and
    /// speeds are finite and positive, so a real quotient is never NaN).
    /// Entries survive `reset`; the platform-version rebuild — exactly
    /// when speeds can change — drops them.
    fresh_edge_div: Vec<Cell<f64>>,
    /// Same for fresh *cloud* candidates, one quotient per (job, speed
    /// class): `fresh_cloud_div[i * speed_classes.len() + class]` holds
    /// `job.work / class_speed`.
    fresh_cloud_div: Vec<Cell<f64>>,
}

impl RoundState {
    /// Fresh round: nothing claimed yet; backlog gathered from every
    /// pending job with progress on a committed target.
    pub fn new(view: &SimView<'_>) -> Self {
        let spec = view.spec();
        let mut speed_classes: Vec<((u64, u64, u64), Vec<CloudId>)> = Vec::new();
        for k in spec.clouds() {
            let key = (
                spec.cloud_speed(k).to_bits(),
                spec.path_up(k).to_bits(),
                spec.path_dn(k).to_bits(),
            );
            match speed_classes.iter_mut().find(|(cs, _)| *cs == key) {
                Some((_, class)) => class.push(k),
                None => speed_classes.push((key, vec![k])),
            }
        }
        let speed_classes: Vec<Vec<CloudId>> = speed_classes.into_iter().map(|(_, c)| c).collect();
        let num_classes = speed_classes.len();
        let mut cloud_class = vec![0u32; spec.num_cloud()];
        for (ci, class) in speed_classes.iter().enumerate() {
            for &k in class {
                cloud_class[k.0] = ci as u32;
            }
        }
        let mut round = RoundState {
            proj: Projection::from_view(view),
            busy_now: ResourceMap::new(spec, false),
            backlog: ResourceMap::new(spec, 0.0f64),
            contribution: vec![None; view.jobs.len()],
            contributors: Vec::new(),
            speed_classes,
            cloud_class,
            touched: vec![false; spec.num_cloud()],
            touched_list: Vec::new(),
            version: view.platform_version(),
            busy_list: Vec::new(),
            backlog_cpus: Vec::new(),
            claim_log: Vec::new(),
            claims: 0,
            dirty_edge_cpu: vec![false; spec.num_edge()],
            dirty_edge_out: vec![false; spec.num_edge()],
            dirty_edge_in: vec![false; spec.num_edge()],
            dirty_cloud: vec![false; spec.num_cloud()],
            fresh_edge_div: vec![Cell::new(f64::NAN); view.jobs.len()],
            fresh_cloud_div: vec![Cell::new(f64::NAN); view.jobs.len() * num_classes],
        };
        round.gather(view);
        round
    }

    /// Rebuilds the round in place for a new decision instant —
    /// equivalent to `RoundState::new(view)` but reusing every
    /// allocation. The view must describe the same platform the round
    /// was built for (policies hold one round per run and rebuild it in
    /// `on_start`).
    pub fn reset(&mut self, view: &SimView<'_>) {
        if self.version != view.platform_version() {
            // The platform mutated since the round was built: speed
            // classes, touched tables, and resource maps are all stale.
            *self = RoundState::new(view);
            return;
        }
        self.proj.reset(view.now);
        for r in self.busy_list.drain(..) {
            self.busy_now[r] = false;
        }
        self.claims = 0;
        self.claim_log.clear();
        self.dirty_edge_cpu.fill(false);
        self.dirty_edge_out.fill(false);
        self.dirty_edge_in.fill(false);
        self.dirty_cloud.fill(false);
        // Non-zero backlog lives only on CPUs `gather` credited (claims
        // merely subtract from those, possibly leaving float residue), so
        // zeroing them here replaces the full map fill.
        for cpu in self.backlog_cpus.drain(..) {
            self.backlog[cpu] = 0.0;
        }
        for i in self.contributors.drain(..) {
            self.contribution[i] = None;
        }
        for k in self.touched_list.drain(..) {
            self.touched[k.0] = false;
        }
        if self.contribution.len() != view.jobs.len() {
            self.contribution.clear();
            self.contribution.resize(view.jobs.len(), None);
        }
        if self.fresh_edge_div.len() != view.jobs.len() {
            // Jobs arrived since the last round (streaming sessions):
            // keep the computed quotients, mark only the new tail unset.
            self.fresh_edge_div
                .resize(view.jobs.len(), Cell::new(f64::NAN));
            self.fresh_cloud_div.resize(
                view.jobs.len() * self.speed_classes.len(),
                Cell::new(f64::NAN),
            );
        }
        self.gather(view);
    }

    fn gather(&mut self, view: &SimView<'_>) {
        let spec = view.spec();
        let jobs = view.jobs;
        for id in view.pending_jobs() {
            let i = id.0;
            let has_progress = jobs.up_done[i] + jobs.work_done[i] + jobs.dn_done[i] > 0.0;
            let Some(target) = jobs.committed[i] else {
                continue;
            };
            if !has_progress {
                continue;
            }
            let job = view.job(id);
            let (cpu, amount) = match target {
                Target::Edge => (
                    mmsec_platform::resource::ResourceId::EdgeCpu(job.origin),
                    jobs.remaining_work(i, job) / spec.edge_speed(job.origin),
                ),
                Target::Cloud(k) => (
                    mmsec_platform::resource::ResourceId::CloudCpu(k),
                    jobs.remaining_work(i, job) / spec.cloud_speed(k),
                ),
            };
            self.backlog[cpu] += amount;
            self.backlog_cpus.push(cpu);
            self.contribution[id.0] = Some((cpu, amount));
            self.contributors.push(id.0);
            if let Target::Cloud(k) = target {
                self.touch(k);
            }
        }
    }

    /// Marks cloud `k` as no longer interchangeable with its speed class
    /// this round.
    fn touch(&mut self, k: CloudId) {
        if !self.touched[k.0] {
            self.touched[k.0] = true;
            self.touched_list.push(k);
        }
    }

    /// Cached `work / speed` for job `i`'s fresh edge candidate,
    /// computed on first use (IEEE division is deterministic, so the
    /// cached quotient is bit-identical to recomputing it).
    fn fresh_edge_quot(&self, i: usize, work: f64, speed: f64) -> f64 {
        let cell = &self.fresh_edge_div[i];
        let q = cell.get();
        if q.is_nan() {
            let q = work / speed;
            cell.set(q);
            q
        } else {
            q
        }
    }

    /// Cached `work / class_speed` for job `i`'s fresh candidate on
    /// speed class `class`.
    fn fresh_cloud_quot(&self, i: usize, class: usize, work: f64, speed: f64) -> f64 {
        let cell = &self.fresh_cloud_div[i * self.speed_classes.len() + class];
        let q = cell.get();
        if q.is_nan() {
            let q = work / speed;
            cell.set(q);
            q
        } else {
            q
        }
    }

    /// Backlog a candidate target's CPU carries, excluding `id`'s own
    /// contribution.
    fn foreign_backlog(&self, view: &SimView<'_>, id: JobId, target: Target) -> f64 {
        let job = view.job(id);
        let cpu = match target {
            Target::Edge => mmsec_platform::resource::ResourceId::EdgeCpu(job.origin),
            Target::Cloud(k) => mmsec_platform::resource::ResourceId::CloudCpu(k),
        };
        let mut b = self.backlog[cpu];
        if let Some((own_cpu, amount)) = self.contribution[id.0] {
            if own_cpu == cpu {
                b -= amount;
            }
        }
        b.max(0.0)
    }

    /// Best (earliest-completion) target on which `id` can start
    /// immediately. Ties prefer the committed target (keeping progress),
    /// then the edge, then lower cloud indices — all deterministic.
    ///
    /// **Re-execution guard**: a job that has made progress on its
    /// committed target only accepts a *different* target when the
    /// from-scratch estimate there beats the *optimistic* continuation
    /// estimate (as if the committed resources freed right now). Waiting
    /// costs at least that optimistic estimate, so a restart failing the
    /// test can never pay off; without the guard, a job displaced for a
    /// single event restarts elsewhere, gets displaced again, and thrashes
    /// away all its progress.
    pub fn best_startable(&self, view: &SimView<'_>, id: JobId) -> Option<StartOption> {
        let jobs = view.jobs;
        let i = id.0;
        let job = view.job(id);
        let spec = view.spec();
        let now = view.now;
        let e = job.origin.0;
        let committed = jobs.committed[i];

        let has_progress = jobs.up_done[i] + jobs.work_done[i] + jobs.dn_done[i] > 0.0;
        let continuation_bar: Option<Time> = match committed {
            Some(t) if has_progress => {
                Some(now + Time::new(jobs.remaining_time_on(i, job, t, spec)))
            }
            _ => None,
        };

        // Snapshot for dirty candidates (full projection walk); built at
        // most once, and not at all on the common all-clean call.
        let mut st_slot: Option<JobState> = None;

        let mut best: Option<StartOption> = None;
        let mut best_penalized = Time::new(f64::MAX);

        // Committed target first (wins ties through strict `<` below),
        // with remaining volumes.
        if let Some(t) = committed {
            let cand = match t {
                Target::Edge if !self.dirty_edge_cpu[e] => {
                    if view.target_available(job.origin, t) {
                        jobs.current_phase(i, job, t).map(|phase| {
                            let f = Forecast::pristine(
                                t,
                                0.0,
                                jobs.remaining_work(i, job),
                                0.0,
                                spec.edge_speed(job.origin),
                                now,
                            );
                            let p = f.completion + Time::new(self.foreign_backlog(view, id, t));
                            (
                                p,
                                StartOption {
                                    target: t,
                                    completion: f.completion,
                                    phase,
                                    forecast: f,
                                },
                            )
                        })
                    } else {
                        None
                    }
                }
                // Clean iff no profile the forecast would read moved this
                // round: the cloud's own resources, plus the origin ports
                // when the matching communication phase exists (the
                // forecast reads `EdgeOut`/`EdgeIn` only when the volume
                // is > 0 — mirror that predicate exactly).
                Target::Cloud(k)
                    if !self.dirty_cloud[k.0]
                        && (!self.dirty_edge_out[e] || jobs.remaining_up(i, job) <= 0.0)
                        && (!self.dirty_edge_in[e] || jobs.remaining_dn(i, job) <= 0.0) =>
                {
                    if view.target_available(job.origin, t) {
                        jobs.current_phase(i, job, t).map(|phase| {
                            let f = Forecast::pristine(
                                t,
                                jobs.remaining_up(i, job) * spec.path_up(k),
                                jobs.remaining_work(i, job),
                                jobs.remaining_dn(i, job) * spec.path_dn(k),
                                spec.cloud_speed(k),
                                now,
                            );
                            let p = f.completion + Time::new(self.foreign_backlog(view, id, t));
                            (
                                p,
                                StartOption {
                                    target: t,
                                    completion: f.completion,
                                    phase,
                                    forecast: f,
                                },
                            )
                        })
                    } else {
                        None
                    }
                }
                _ => {
                    let st = st_slot.get_or_insert_with(|| view.state(id));
                    self.evaluate(view, id, st, job, t, continuation_bar)
                }
            };
            if let Some((p, opt)) = cand {
                if p < best_penalized {
                    best_penalized = p;
                    best = Some(opt);
                }
            }
        }

        // The edge, from-scratch volumes. When committed there the
        // candidate above already scored it; a re-evaluation ties and
        // loses on strict `<`, so it is skipped.
        if committed != Some(Target::Edge) {
            let cand = if !self.dirty_edge_cpu[e] {
                if view.target_available(job.origin, Target::Edge) && approx::positive(job.work) {
                    let exec = self.fresh_edge_quot(i, job.work, spec.edge_speed(job.origin));
                    let f = Forecast::pristine_quot(Target::Edge, 0.0, exec, 0.0, now);
                    let p = f.completion + Time::new(self.foreign_backlog(view, id, Target::Edge));
                    if matches!(continuation_bar, Some(bar) if p >= bar) {
                        None
                    } else {
                        Some((
                            p,
                            StartOption {
                                target: Target::Edge,
                                completion: f.completion,
                                phase: Phase::Compute,
                                forecast: f,
                            },
                        ))
                    }
                } else {
                    None
                }
            } else {
                let st = st_slot.get_or_insert_with(|| view.state(id));
                self.evaluate(view, id, st, job, Target::Edge, continuation_bar)
            };
            if let Some((p, opt)) = cand {
                if p < best_penalized {
                    best_penalized = p;
                    best = Some(opt);
                }
            }
        }

        // Cloud scan. An ascending index scan with strict `<` selects the
        // lowest-indexed cloud achieving the minimum penalized score —
        // the lexicographic minimum of (penalized, k) — so clouds may be
        // visited grouped by speed instead of by index. Within a group,
        // untouched clouds are indistinguishable (identical profiles,
        // zero backlog, shared origin inputs), so each group's scan stops
        // at its first untouched cloud: later untouched members tie and
        // lose on index, touched members can only score worse. Clean
        // members (touched or not) share one closed-form forecast per
        // group and differ only in the backlog penalty; members whose
        // profiles moved this round take the full projection walk.
        let fresh_cloud_phase = if approx::positive(job.up) {
            Some(Phase::Uplink)
        } else if approx::positive(job.work) {
            Some(Phase::Compute)
        } else if approx::positive(job.dn) {
            Some(Phase::Downlink)
        } else {
            None
        };
        let ports_clean_up = !self.dirty_edge_out[e] || job.up <= 0.0;
        let ports_clean_dn = !self.dirty_edge_in[e] || job.dn <= 0.0;
        let mut cloud_best: Option<(Time, CloudId, StartOption)> = None;
        if let Some(cphase) = fresh_cloud_phase {
            for (ci, class) in self.speed_classes.iter().enumerate() {
                let mut class_fc: Option<Forecast> = None;
                for &k in class {
                    if committed == Some(Target::Cloud(k)) {
                        // Already evaluated above; the score is identical
                        // and strict `<` would discard the re-evaluation.
                        continue;
                    }
                    let touched = self.touched[k.0];
                    if !view.target_available(job.origin, Target::Cloud(k)) {
                        continue; // a down cloud does not end the group scan
                    }
                    let clean = !self.dirty_cloud[k.0] && ports_clean_up && ports_clean_dn;
                    let cand = if clean {
                        let f = *class_fc.get_or_insert_with(|| {
                            let exec = self.fresh_cloud_quot(i, ci, job.work, spec.cloud_speed(k));
                            Forecast::pristine_quot(
                                Target::Cloud(k),
                                job.up * spec.path_up(k),
                                exec,
                                job.dn * spec.path_dn(k),
                                now,
                            )
                        });
                        // `id`'s own contribution sits on its committed
                        // CPU, which this scan skips — no subtraction.
                        let p = f.completion
                            + Time::new(self.backlog[ResourceId::CloudCpu(k)].max(0.0));
                        if matches!(continuation_bar, Some(bar) if p >= bar) {
                            None
                        } else {
                            Some((
                                p,
                                StartOption {
                                    target: Target::Cloud(k),
                                    completion: f.completion,
                                    phase: cphase,
                                    forecast: f,
                                },
                            ))
                        }
                    } else {
                        let st = st_slot.get_or_insert_with(|| view.state(id));
                        self.evaluate(view, id, st, job, Target::Cloud(k), continuation_bar)
                    };
                    if let Some((p, opt)) = cand {
                        let better = match &cloud_best {
                            None => true,
                            Some((bp, bk, _)) => p < *bp || (p == *bp && k.0 < bk.0),
                        };
                        if better {
                            cloud_best = Some((p, k, opt));
                        }
                    }
                    if !touched {
                        break;
                    }
                }
            }
        }
        if let Some((p, _, opt)) = cloud_best {
            if p < best_penalized {
                best = Some(opt);
            }
        }
        best
    }

    /// Number of [`Self::claim`]/[`Self::claim_option`] calls since the
    /// round was (re)built. A [`StartOption`] computed when the count was
    /// `c` is exact for as long as the count remains `c`.
    pub fn claim_count(&self) -> u32 {
        self.claims
    }

    /// Refreshes a [`StartOption`] cached at claim count `tag`: returns
    /// exactly what [`Self::best_startable`] would return for `id` *now*,
    /// but — whenever the intervening claims' interference can be
    /// localized — by re-scoring only the clouds whose score for `id` can
    /// have *improved* instead of rescanning the whole platform. `cached`
    /// must be the option `best_startable` returned for `id` against this
    /// round when the claim count was `tag`.
    ///
    /// Soundness of the delta path: a claim by a job from a *different*
    /// edge writes, outside its own origin's CPU and ports (which nothing
    /// in `id`'s evaluation reads), exactly the `ClaimScope` cloud set —
    /// its target cloud's profiles and the backlog of the cloud CPU it
    /// retired from. Reserving resources only advances their free times,
    /// and a forecast is monotone in each of them, so the target write
    /// can make that cloud only *worse* for `id`; a candidate that lost
    /// to `cached` at `tag` still loses, and only the *retired* clouds —
    /// whose backlog penalty dropped — can overtake it. `cached` itself
    /// keeps its score and startability (its penalty can only have
    /// *decreased*, so it still beats every unchanged candidate it beat
    /// at `tag`). The fresh argmin is therefore `cached` versus the
    /// re-scored retired clouds, compared under the scan's total order:
    /// penalized score first, ties broken committed target → edge →
    /// ascending cloud index. Each re-score is first bound-tested with
    /// the closed-form pristine forecast (every resource free at `now` —
    /// a lower bound on any projection walk over the same from-scratch
    /// volumes) plus the current backlog; candidates whose bound already
    /// loses skip the walk, and for clean clouds the bound *is* the
    /// exact score. Falls back to the full scan when a claim shares
    /// `id`'s origin, moved the cached target's own profiles, or the
    /// delta outgrows its fixed buffer.
    pub fn refresh_option(
        &self,
        view: &SimView<'_>,
        id: JobId,
        tag: u32,
        cached: &StartOption,
    ) -> Option<StartOption> {
        /// Dedup-push; false on overflow (caller falls back to the scan).
        fn push(delta: &mut [CloudId; 16], len: &mut usize, k: CloudId) -> bool {
            if delta[..*len].contains(&k) {
                return true;
            }
            if *len == delta.len() {
                return false;
            }
            delta[*len] = k;
            *len += 1;
            true
        }

        let job = view.job(id);
        let e = job.origin.0;
        let cached_cloud = match cached.target {
            Target::Cloud(q) => Some(q),
            Target::Edge => None,
        };
        let mut delta = [CloudId(0); 16];
        let mut delta_len = 0usize;
        for c in &self.claim_log[tag as usize..] {
            if c.origin == e {
                return self.best_startable(view, id);
            }
            if c.cloud == cached_cloud && c.cloud.is_some() {
                // The cached forecast itself is stale.
                return self.best_startable(view, id);
            }
            // The claim's *target* needs no re-scoring beyond the check
            // above: reserving resources only advances their profiles,
            // and a forecast is monotone in every free time it reads, so
            // a foreign claim can make its target cloud only *worse* for
            // `id` — a candidate that lost to `cached` at `tag` still
            // loses. Improvement flows solely through the backlog the
            // claim retired.
            if let Some(m) = c.retired_cloud {
                // A retirement on the cached cloud only lowers its own
                // penalty — covered by keeping `cached` as incumbent.
                if Some(m) != cached_cloud && !push(&mut delta, &mut delta_len, m) {
                    return self.best_startable(view, id);
                }
            }
        }
        if delta_len == 0 {
            // Nothing `id` reads improved — the cached target's own
            // backlog can only have dropped, and every other candidate
            // only worsened; the cached option is still the argmin, bit
            // for bit.
            return Some(*cached);
        }

        // Total order of the full scan as an explicit key: penalized
        // score, then a rank placing the committed target before the
        // edge before ascending cloud indices. Distinct targets get
        // distinct ranks, so the order is total and the argmin unique.
        let jobs = view.jobs;
        let i = id.0;
        let committed = jobs.committed[i];
        let rank = |t: Target| -> u64 {
            if committed == Some(t) {
                return 0;
            }
            match t {
                Target::Edge => 1,
                Target::Cloud(k) => 2 + k.0 as u64,
            }
        };
        let has_progress = jobs.up_done[i] + jobs.work_done[i] + jobs.dn_done[i] > 0.0;
        let continuation_bar: Option<Time> = match committed {
            Some(t) if has_progress => {
                Some(view.now + Time::new(jobs.remaining_time_on(i, job, t, view.spec())))
            }
            _ => None,
        };
        let spec = view.spec();
        let now = view.now;
        let mut st_slot: Option<JobState> = None;
        let mut best = *cached;
        let mut best_key = (
            cached.completion + Time::new(self.foreign_backlog(view, id, cached.target)),
            rank(cached.target),
        );
        let fresh_cloud_phase = if approx::positive(job.up) {
            Some(Phase::Uplink)
        } else if approx::positive(job.work) {
            Some(Phase::Compute)
        } else if approx::positive(job.dn) {
            Some(Phase::Downlink)
        } else {
            None
        };
        for &k in &delta[..delta_len] {
            let t = Target::Cloud(k);
            if committed == Some(t) {
                // Continuation: scored on *remaining* volumes, so the
                // from-scratch pristine bound below does not apply.
                let st = st_slot.get_or_insert_with(|| view.state(id));
                if let Some((p, opt)) = self.evaluate(view, id, st, job, t, continuation_bar) {
                    let key = (p, rank(t));
                    if key < best_key {
                        best_key = key;
                        best = opt;
                    }
                }
                continue;
            }
            let Some(cphase) = fresh_cloud_phase else {
                continue;
            };
            // Pristine bound: the closed-form forecast assumes every
            // resource free at `now`, a lower bound on any projection
            // walk for the same from-scratch volumes; adding the current
            // backlog keeps it a lower bound on the penalized score. A
            // candidate whose bound already loses to the incumbent under
            // the scan's total order cannot become the argmin — skip it
            // without touching the projection.
            let ci = self.cloud_class[k.0] as usize;
            let exec = self.fresh_cloud_quot(i, ci, job.work, spec.cloud_speed(k));
            let f = Forecast::pristine_quot(
                t,
                job.up * spec.path_up(k),
                exec,
                job.dn * spec.path_dn(k),
                now,
            );
            let p_lb = f.completion + Time::new(self.backlog[ResourceId::CloudCpu(k)].max(0.0));
            if (p_lb, rank(t)) >= best_key {
                continue;
            }
            let clean = !self.dirty_cloud[k.0]
                && (!self.dirty_edge_out[e] || job.up <= 0.0)
                && (!self.dirty_edge_in[e] || job.dn <= 0.0);
            if clean {
                // The bound *is* the clean-path score, and it already
                // beat the incumbent strictly.
                if view.target_available(job.origin, t)
                    && !matches!(continuation_bar, Some(bar) if p_lb >= bar)
                {
                    best_key = (p_lb, rank(t));
                    best = StartOption {
                        target: t,
                        completion: f.completion,
                        phase: cphase,
                        forecast: f,
                    };
                }
            } else {
                let st = st_slot.get_or_insert_with(|| view.state(id));
                if let Some((p, opt)) = self.evaluate(view, id, st, job, t, continuation_bar) {
                    let key = (p, rank(t));
                    if key < best_key {
                        best_key = key;
                        best = opt;
                    }
                }
            }
        }
        Some(best)
    }

    /// Evaluates one placement candidate: `Some((penalized_score, opt))`
    /// if `id` could start on `target` right now, `None` otherwise. This
    /// is exactly the per-target body of the reference ascending scan
    /// ([`Self::best_startable_exhaustive`]); `best_startable` calls it
    /// only on candidates that can still win.
    fn evaluate(
        &self,
        view: &SimView<'_>,
        id: JobId,
        st: &JobState,
        job: &Job,
        target: Target,
        continuation_bar: Option<Time>,
    ) -> Option<(Time, StartOption)> {
        if !view.target_available(job.origin, target) {
            return None; // unit is down (fault injection): never place on it
        }
        let phase = first_phase(view, id, target)?;
        if phase
            .resources(job, target)
            .iter()
            .any(|r| self.busy_now[r])
        {
            return None;
        }
        let spec = view.spec();
        let f = self.proj.forecast(job, st, target, spec, view.now);
        let penalized = f.completion + Time::new(self.foreign_backlog(view, id, target));
        if st.committed != Some(target) {
            if let Some(bar) = continuation_bar {
                if penalized >= bar {
                    return None; // restarting cannot beat waiting
                }
            }
        }
        Some((
            penalized,
            StartOption {
                target,
                completion: f.completion,
                phase,
                forecast: f,
            },
        ))
    }

    /// Reference implementation of [`Self::best_startable`]: the plain
    /// ascending scan over every target, with no speed-class sharing.
    /// The fast path must match it bit-for-bit (pinned by the
    /// `fast_path_matches_exhaustive_scan` proptest below).
    #[cfg(test)]
    fn best_startable_exhaustive(&self, view: &SimView<'_>, id: JobId) -> Option<StartOption> {
        let st = &view.state(id);
        let job = view.job(id);
        let spec = view.spec();

        let has_progress = st.up_done + st.work_done + st.dn_done > 0.0;
        let continuation_bar: Option<Time> = match st.committed {
            Some(t) if has_progress => {
                Some(view.now + Time::new(st.remaining_time_on(job, t, spec)))
            }
            _ => None,
        };

        let mut best: Option<StartOption> = None;
        let mut best_penalized = Time::new(f64::MAX);
        let mut consider = |target: Target| {
            if let Some((p, opt)) = self.evaluate(view, id, st, job, target, continuation_bar) {
                if p < best_penalized {
                    best_penalized = p;
                    best = Some(opt);
                }
            }
        };
        if let Some(t) = st.committed {
            consider(t);
        }
        consider(Target::Edge);
        for k in spec.clouds() {
            consider(Target::Cloud(k));
        }
        best
    }

    /// Claims `target` for `id`: blocks the first phase's resources for
    /// this instant, books the job's whole remaining pipeline into the
    /// projection, and retires its backlog contribution (its future is
    /// now explicit in the projection).
    pub fn claim(&mut self, view: &SimView<'_>, id: JobId, target: Target) {
        let st = view.state(id);
        let job = view.job(id);
        let phase = first_phase(view, id, target).expect("claimed job has a phase to run");
        let f = self.proj.forecast(job, &st, target, view.spec(), view.now);
        self.apply_claim(view, id, phase, &f, target);
    }

    /// [`Self::claim`] from an already-computed [`StartOption`]. Valid
    /// only when `opt` is *current* — computed by [`Self::best_startable`]
    /// against this round with no claims applied since (compare
    /// [`Self::claim_count`]); the cached phase and forecast are then
    /// exactly what `claim` would recompute.
    pub fn claim_option(&mut self, view: &SimView<'_>, id: JobId, opt: &StartOption) {
        self.apply_claim(view, id, opt.phase, &opt.forecast, opt.target);
    }

    fn apply_claim(
        &mut self,
        view: &SimView<'_>,
        id: JobId,
        phase: Phase,
        f: &Forecast,
        target: Target,
    ) {
        let job = view.job(id);
        for r in phase.resources(job, target).iter() {
            debug_assert!(!self.busy_now[r], "double-claim of {r}");
            self.busy_now[r] = true;
            self.busy_list.push(r);
        }
        self.proj.place_forecast(job, f, target);
        // Mirror `place_forecast`'s writes exactly: every moved profile
        // (and hence every busy-marked resource — the first phase's
        // resources are a subset of what the forecast places) turns its
        // unit dirty.
        match target {
            Target::Edge => self.dirty_edge_cpu[job.origin.0] = true,
            Target::Cloud(k) => {
                self.dirty_cloud[k.0] = true;
                if f.has_up {
                    self.dirty_edge_out[job.origin.0] = true;
                }
                if f.has_dn {
                    self.dirty_edge_in[job.origin.0] = true;
                }
            }
        }
        let retired = self.contribution[id.0].take();
        if let Some((cpu, amount)) = retired {
            self.backlog[cpu] = (self.backlog[cpu] - amount).max(0.0);
        }
        if let Target::Cloud(k) = target {
            self.touch(k);
        }
        self.claim_log.push(ClaimScope {
            origin: job.origin.0,
            cloud: match target {
                Target::Edge => None,
                Target::Cloud(k) => Some(k),
            },
            retired_cloud: retired.and_then(|(cpu, _)| match cpu {
                ResourceId::CloudCpu(k) => Some(k),
                _ => None, // `gather` only credits CPUs
            }),
        });
        self.claims += 1;
        debug_assert_eq!(self.claims as usize, self.claim_log.len());
    }
}

/// Stretch of `id` if it completes at `completion`.
pub fn stretch_at(view: &SimView<'_>, id: JobId, completion: Time) -> f64 {
    view.stretch_if_completed_at(id, completion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_platform::{
        CloudId, EdgeId, Instance, Job, JobArena, JobState, PendingSet, PlatformSpec,
    };

    fn fixture() -> (Instance, Vec<JobState>) {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(2)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0), // edge 4, cloud 4
            Job::new(EdgeId(0), 0.0, 6.0, 1.0, 1.0), // edge 12, cloud 8
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut states = vec![JobState::default(); 2];
        for s in &mut states {
            s.released = true;
        }
        (inst, states)
    }

    #[test]
    fn first_phase_fresh_and_committed() {
        let (inst, mut states) = fixture();
        states[0].committed = Some(Target::Cloud(CloudId(0)));
        states[0].up_done = 1.0; // uplink complete on cloud 0
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::new(1.0), &arena, &pending);
        assert_eq!(
            first_phase(&view, JobId(0), Target::Cloud(CloudId(0))),
            Some(Phase::Compute)
        );
        // Fresh start on cloud 1: uplink again.
        assert_eq!(
            first_phase(&view, JobId(0), Target::Cloud(CloudId(1))),
            Some(Phase::Uplink)
        );
        assert_eq!(
            first_phase(&view, JobId(0), Target::Edge),
            Some(Phase::Compute)
        );
    }

    #[test]
    fn best_startable_picks_earliest_completion() {
        let (inst, states) = fixture();
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending);
        let round = RoundState::new(&view);
        // Job 1 (6 work): edge 12, cloud 8 → cloud.
        let opt = round.best_startable(&view, JobId(1)).unwrap();
        assert_eq!(opt.target, Target::Cloud(CloudId(0)));
        assert_eq!(opt.completion, Time::new(8.0));
        // Job 0: tie (4 vs 4); edge is evaluated before clouds, wins ties.
        let opt = round.best_startable(&view, JobId(0)).unwrap();
        assert_eq!(opt.target, Target::Edge);
    }

    #[test]
    fn claims_spread_over_homogeneous_clouds() {
        // THE regression this module guards against: with one cloud CPU
        // claimed, the next job must see cloud 0 as slower and pick
        // cloud 1 even though cloud 0's *ports* are free.
        let spec = PlatformSpec::builder()
            .edges(vec![0.1])
            .cloud_pool(2)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0), // no comm: CPU only
            Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut states = vec![JobState::default(); 2];
        for s in &mut states {
            s.released = true;
        }
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending);
        let mut round = RoundState::new(&view);
        let first = round.best_startable(&view, JobId(0)).unwrap();
        assert_eq!(first.target, Target::Cloud(CloudId(0)));
        round.claim(&view, JobId(0), first.target);
        let second = round.best_startable(&view, JobId(1)).unwrap();
        assert_eq!(
            second.target,
            Target::Cloud(CloudId(1)),
            "must not pile onto the claimed cloud"
        );
        assert_eq!(second.completion, Time::new(10.0));
    }

    #[test]
    fn busy_first_phase_resources_exclude_targets() {
        let (inst, states) = fixture();
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending);
        let mut round = RoundState::new(&view);
        // Claim job 0's uplink on cloud 0: EdgeOut(0) + CloudIn(0) are
        // busy now, so job 1 (which also needs EdgeOut(0) to reach any
        // cloud) can only start on the edge.
        round.claim(&view, JobId(0), Target::Cloud(CloudId(0)));
        let opt = round.best_startable(&view, JobId(1)).unwrap();
        assert_eq!(opt.target, Target::Edge);
        // ... and if the edge CPU is claimed too, nothing can start.
        round.claim(&view, JobId(1), Target::Edge);
        let mut st2 = states.clone();
        st2.push(JobState {
            released: true,
            ..JobState::default()
        });
        let mut jobs2 = inst.jobs.clone();
        jobs2.push(Job::new(EdgeId(0), 0.0, 1.0, 1.0, 1.0));
        let inst2 = Instance::new(inst.spec.clone(), jobs2).unwrap();
        let arena2 = JobArena::from_states(&inst2, &st2);
        let pending2 = PendingSet::from_states(&inst2, &st2);
        let view2 = SimView::new(&inst2, Time::ZERO, &arena2, &pending2);
        assert_eq!(round.best_startable(&view2, JobId(2)), None);
    }

    #[test]
    fn reset_reproduces_a_fresh_round() {
        let (inst, mut states) = fixture();
        states[0].committed = Some(Target::Cloud(CloudId(0)));
        states[0].up_done = 1.0;
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::new(1.0), &arena, &pending);
        let mut round = RoundState::new(&view);
        round.claim(&view, JobId(0), Target::Cloud(CloudId(0)));
        // Later instant, more progress: the reused round must behave
        // exactly like a freshly built one.
        states[0].work_done = 1.0;
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::new(2.0), &arena, &pending);
        round.reset(&view);
        let fresh = RoundState::new(&view);
        for id in [JobId(0), JobId(1)] {
            assert_eq!(
                round.best_startable(&view, id),
                fresh.best_startable(&view, id)
            );
        }
    }

    #[test]
    fn committed_target_preferred_on_tie() {
        let (inst, mut states) = fixture();
        states[0].committed = Some(Target::Cloud(CloudId(1)));
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending);
        let round = RoundState::new(&view);
        let opt = round.best_startable(&view, JobId(0)).unwrap();
        assert_eq!(opt.target, Target::Cloud(CloudId(1)));
    }

    #[test]
    fn committed_progress_counted_in_estimates() {
        let (inst, mut states) = fixture();
        states[0].committed = Some(Target::Cloud(CloudId(0)));
        states[0].up_done = 1.0;
        states[0].work_done = 1.0;
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::new(2.0), &arena, &pending);
        let round = RoundState::new(&view);
        let opt = round.best_startable(&view, JobId(0)).unwrap();
        // Continue on cloud 0: 1 work + 1 dn = 2 → completes at 4;
        // fresh anywhere would take ≥ 4.
        assert_eq!(opt.target, Target::Cloud(CloudId(0)));
        assert_eq!(opt.completion, Time::new(4.0));
    }

    #[test]
    fn down_units_are_never_placement_targets() {
        use mmsec_platform::Availability;
        let (inst, states) = fixture();
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let mut avail = Availability::all_up(1, 2);
        // Job 1 prefers cloud 0 (see `best_startable_picks_earliest_
        // completion`); with cloud 0 down it must fall over to cloud 1,
        // and with the whole cloud down it must run locally.
        avail.cloud_up[0] = false;
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending).with_availability(&avail);
        let round = RoundState::new(&view);
        let opt = round.best_startable(&view, JobId(1)).unwrap();
        assert_eq!(opt.target, Target::Cloud(CloudId(1)));

        avail.cloud_up[1] = false;
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending).with_availability(&avail);
        let round = RoundState::new(&view);
        let opt = round.best_startable(&view, JobId(1)).unwrap();
        assert_eq!(opt.target, Target::Edge);

        // Everything down: nothing startable at all.
        avail.edge_up[0] = false;
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending).with_availability(&avail);
        let round = RoundState::new(&view);
        assert_eq!(round.best_startable(&view, JobId(1)), None);
    }

    mod fast_path {
        use super::super::*;
        use mmsec_platform::{
            Availability, CloudId, EdgeId, Instance, Job, JobArena, JobState, PendingSet,
            PlatformSpec,
        };
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The speed-class fast path must reproduce the exhaustive
            /// ascending scan bit-for-bit: heterogeneous cloud speeds
            /// (so groups and cross-group ties exist), jobs in every
            /// commitment/progress state, random down units, and claims
            /// applied mid-round.
            #[test]
            fn fast_path_matches_exhaustive_scan(
                speed_picks in proptest::collection::vec(0usize..3, 1..8),
                job_descs in proptest::collection::vec(
                    (0.0f64..4.0, 0.5f64..8.0, 0.0f64..3.0, 0.0f64..3.0, 0u8..2, 0u8..4),
                    1..12,
                ),
                down in proptest::collection::vec(any::<bool>(), 10),
                claims in 0usize..4,
                now in 4.0f64..6.0,
            ) {
                let speeds: Vec<f64> =
                    speed_picks.iter().map(|&p| [0.5, 1.0, 2.0][p]).collect();
                let num_cloud = speeds.len();
                let spec = PlatformSpec::builder().edges(vec![1.0, 0.5]).clouds(speeds).build();
                let jobs: Vec<Job> = job_descs
                    .iter()
                    .map(|&(rel, work, up, dn, origin, _)| {
                        Job::new(EdgeId(origin as usize), rel, work, up, dn)
                    })
                    .collect();
                let inst = Instance::new(spec, jobs).unwrap();
                let mut states = vec![JobState::default(); inst.num_jobs()];
                for (i, (st, &(_, work, up, _, _, kind))) in
                    states.iter_mut().zip(job_descs.iter()).enumerate()
                {
                    st.released = true;
                    match kind {
                        1 => {
                            st.committed = Some(Target::Edge);
                            st.work_done = 0.5 * work;
                        }
                        2 => {
                            st.committed = Some(Target::Cloud(CloudId(i % num_cloud)));
                            st.up_done = 0.5 * up;
                        }
                        3 => {
                            st.committed = Some(Target::Cloud(CloudId(i % num_cloud)));
                            st.up_done = up;
                            st.work_done = 0.25 * work;
                        }
                        _ => {}
                    }
                }
                let mut avail = Availability::all_up(2, num_cloud);
                for (up, d) in avail.cloud_up.iter_mut().zip(down.iter()) {
                    *up = !d;
                }
                avail.edge_up[0] = !down[8];
                avail.edge_up[1] = !down[9];
                let arena = JobArena::from_states(&inst, &states);
                let pending = PendingSet::from_states(&inst, &states);
                let view = SimView::new(&inst, Time::new(now), &arena, &pending)
                    .with_availability(&avail);
                let mut round = RoundState::new(&view);
                // Kept in lockstep with `round`, but claimed through the
                // cached-option path — `claim_option` must leave the
                // round in the exact state `claim`'s recompute does.
                let mut mirror = RoundState::new(&view);
                let check = |round: &RoundState| -> Result<(), TestCaseError> {
                    for id in view.pending_jobs() {
                        prop_assert_eq!(
                            round.best_startable(&view, id),
                            round.best_startable_exhaustive(&view, id),
                            "job {:?} diverges",
                            id
                        );
                    }
                    Ok(())
                };
                check(&round)?;
                // Claim a few jobs (whatever the scan picks) and re-check:
                // claims create touched clouds mid-round. Options cached
                // at every earlier claim count are carried along so the
                // delta repair is pinned against arbitrarily stale tags.
                let mut snapshots: Vec<(JobId, u32, StartOption)> = Vec::new();
                let mut claimed = 0;
                for id in view.pending_jobs() {
                    if claimed == claims {
                        break;
                    }
                    for jid in view.pending_jobs() {
                        if let Some(opt) = round.best_startable(&view, jid) {
                            snapshots.push((jid, round.claim_count(), opt));
                        }
                    }
                    if let Some(opt) = round.best_startable(&view, id) {
                        round.claim(&view, id, opt.target);
                        mirror.claim_option(&view, id, &opt);
                        claimed += 1;
                        check(&round)?;
                        for jid in view.pending_jobs() {
                            prop_assert_eq!(
                                round.best_startable(&view, jid),
                                mirror.best_startable(&view, jid),
                                "claim_option diverged from claim on job {:?}",
                                jid
                            );
                        }
                        // The delta repair must reproduce the full rescan
                        // from any option that was exact when snapshot.
                        for &(jid, tag, ref opt) in &snapshots {
                            prop_assert_eq!(
                                round.refresh_option(&view, jid, tag, opt),
                                round.best_startable(&view, jid),
                                "refresh_option diverges for job {:?} from tag {}",
                                jid,
                                tag
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stretch_estimate() {
        let (inst, states) = fixture();
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending);
        assert!((stretch_at(&view, JobId(0), Time::new(6.0)) - 1.5).abs() < 1e-12);
    }
}
