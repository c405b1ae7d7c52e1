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
use mmsec_platform::{CloudId, Job, JobId, Phase, SimView, Target};
use mmsec_sim::Time;

/// The re-execution guard's bar (see [`RoundState::best_startable`]):
/// when `id` has progress on its committed target, the optimistic
/// completion of continuing there as if its resources freed right now.
fn continuation_bar(view: &SimView<'_>, id: JobId) -> Option<Time> {
    let jobs = view.jobs;
    let i = id.0;
    let has_progress = jobs.up_done[i] + jobs.work_done[i] + jobs.dn_done[i] > 0.0;
    match jobs.committed[i] {
        Some(t) if has_progress => {
            Some(view.now + Time::new(jobs.remaining_time_on(i, view.job(id), t, view.spec())))
        }
        _ => None,
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
    /// [`RoundState::claim_option`] skips the phase recompute.
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
        let mut round = RoundState {
            proj: Projection::from_view(view),
            busy_now: ResourceMap::new(spec, false),
            backlog: ResourceMap::new(spec, 0.0f64),
            contribution: vec![None; view.jobs.len()],
            contributors: Vec::new(),
            speed_classes: speed_classes.into_iter().map(|(_, c)| c).collect(),
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
        // Every entry is `None` again (the contributors loop above), so
        // following the session's job count — grown by submissions,
        // emptied by a retire — is a plain resize: O(new jobs), not
        // O(jobs).
        self.contribution.resize(view.jobs.len(), None);
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
        let job = view.job(id);
        let spec = view.spec();
        let e = job.origin.0;
        let committed = view.jobs.committed[id.0];
        let bar = continuation_bar(view, id);

        let mut best: Option<StartOption> = None;
        let mut best_penalized = Time::new(f64::MAX);

        // Committed target first (wins ties through strict `<` below),
        // with remaining volumes; then the edge from scratch. When
        // committed to the edge, the first candidate already scored it; a
        // re-evaluation ties and loses on strict `<`, so it is skipped.
        let edge = (committed != Some(Target::Edge)).then_some(Target::Edge);
        for t in committed.into_iter().chain(edge) {
            if let Some((p, opt)) = self.score(view, id, t, bar) {
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
        let ports_clean_up = !self.dirty_edge_out[e] || job.up <= 0.0;
        let ports_clean_dn = !self.dirty_edge_in[e] || job.dn <= 0.0;
        let mut cloud_best: Option<(Time, CloudId, StartOption)> = None;
        // The scan skips the committed cloud, so every candidate starts
        // fresh; the first phase depends only on the target kind.
        let fresh = (job.up, job.work, job.dn);
        if let Some(cphase) = Phase::first(Target::Cloud(CloudId(0)), fresh) {
            for class in &self.speed_classes {
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
                            Forecast::pristine(
                                Target::Cloud(k),
                                job.up * spec.path_up(k),
                                job.work,
                                job.dn * spec.path_dn(k),
                                spec.cloud_speed(k),
                                view.now,
                            )
                        });
                        // `id`'s own contribution sits on its committed
                        // CPU, which this scan skips — no subtraction.
                        let p = f.completion
                            + Time::new(self.backlog[ResourceId::CloudCpu(k)].max(0.0));
                        if matches!(bar, Some(b) if p >= b) {
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
                        self.evaluate(view, id, job, Target::Cloud(k), bar)
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
    /// ascending cloud index. Each from-scratch re-score is first
    /// bound-tested with the closed-form pristine forecast (every
    /// resource free at `now` — a lower bound on any projection walk over
    /// the same volumes) plus the current backlog; candidates whose bound
    /// already loses skip the re-score. Falls back to the full scan when
    /// a claim shares `id`'s origin, moved the cached target's own
    /// profiles, or the delta outgrows its fixed buffer.
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
        let committed = view.jobs.committed[id.0];
        let rank = |t: Target| -> u64 {
            if committed == Some(t) {
                return 0;
            }
            match t {
                Target::Edge => 1,
                Target::Cloud(k) => 2 + k.0 as u64,
            }
        };
        let bar = continuation_bar(view, id);
        let spec = view.spec();
        let mut best = *cached;
        let mut best_key = (
            cached.completion + Time::new(self.foreign_backlog(view, id, cached.target)),
            rank(cached.target),
        );
        for &k in &delta[..delta_len] {
            let t = Target::Cloud(k);
            // Pristine bound, for from-scratch candidates only (a
            // continuation is scored on *remaining* volumes): adding the
            // current backlog keeps it a lower bound on the penalized
            // score, so a candidate whose bound already loses to the
            // incumbent under the scan's total order cannot become the
            // argmin — skip it without touching the projection.
            if committed != Some(t) {
                let lb = Forecast::pristine(
                    t,
                    job.up * spec.path_up(k),
                    job.work,
                    job.dn * spec.path_dn(k),
                    spec.cloud_speed(k),
                    view.now,
                );
                let p_lb =
                    lb.completion + Time::new(self.backlog[ResourceId::CloudCpu(k)].max(0.0));
                if (p_lb, rank(t)) >= best_key {
                    continue;
                }
            }
            if let Some((p, opt)) = self.score(view, id, t, bar) {
                let key = (p, rank(t));
                if key < best_key {
                    best_key = key;
                    best = opt;
                }
            }
        }
        Some(best)
    }

    /// Scores one candidate exactly as [`Self::evaluate`] does, taking the
    /// closed form [`Forecast::pristine`] when no profile the forecast
    /// would read moved this round (then every resource it reads is free
    /// at `now` and none is busy).
    fn score(
        &self,
        view: &SimView<'_>,
        id: JobId,
        target: Target,
        bar: Option<Time>,
    ) -> Option<(Time, StartOption)> {
        let job = view.job(id);
        let e = job.origin.0;
        let (up, work, dn) = view.jobs.volumes_on(id.0, job, target);
        // The forecast reads `EdgeOut`/`EdgeIn` only when the matching
        // volume is > 0 — the clean test mirrors that predicate exactly.
        let clean = match target {
            Target::Edge => !self.dirty_edge_cpu[e],
            Target::Cloud(k) => {
                !self.dirty_cloud[k.0]
                    && (!self.dirty_edge_out[e] || up <= 0.0)
                    && (!self.dirty_edge_in[e] || dn <= 0.0)
            }
        };
        if !clean {
            return self.evaluate(view, id, job, target, bar);
        }
        if !view.target_available(job.origin, target) {
            return None;
        }
        let phase = Phase::first(target, (up, work, dn))?;
        let spec = view.spec();
        let (speed, up, dn) = match target {
            Target::Edge => (spec.edge_speed(job.origin), 0.0, 0.0),
            Target::Cloud(k) => (
                spec.cloud_speed(k),
                up * spec.path_up(k),
                dn * spec.path_dn(k),
            ),
        };
        let f = Forecast::pristine(target, up, work, dn, speed, view.now);
        let penalized = f.completion + Time::new(self.foreign_backlog(view, id, target));
        let continuing = view.jobs.committed[id.0] == Some(target);
        if !continuing && matches!(bar, Some(b) if penalized >= b) {
            return None; // restarting cannot beat waiting
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

    /// Evaluates one placement candidate: `Some((penalized_score, opt))`
    /// if `id` could start on `target` right now, `None` otherwise. This
    /// is exactly the per-target body of the reference ascending scan
    /// ([`Self::best_startable_exhaustive`]); `best_startable` calls it
    /// only on candidates that can still win.
    fn evaluate(
        &self,
        view: &SimView<'_>,
        id: JobId,
        job: &Job,
        target: Target,
        continuation_bar: Option<Time>,
    ) -> Option<(Time, StartOption)> {
        if !view.target_available(job.origin, target) {
            return None; // unit is down (fault injection): never place on it
        }
        let vols = view.jobs.volumes_on(id.0, job, target);
        let phase = Phase::first(target, vols)?;
        if phase
            .resources(job, target)
            .iter()
            .any(|r| self.busy_now[r])
        {
            return None;
        }
        let f = self.proj.forecast(job, vols, target, view.spec(), view.now);
        let penalized = f.completion + Time::new(self.foreign_backlog(view, id, target));
        if view.jobs.committed[id.0] != Some(target) {
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
        let job = view.job(id);
        let spec = view.spec();
        let bar = continuation_bar(view, id);

        let mut best: Option<StartOption> = None;
        let mut best_penalized = Time::new(f64::MAX);
        let mut consider = |target: Target| {
            if let Some((p, opt)) = self.evaluate(view, id, job, target, bar) {
                if p < best_penalized {
                    best_penalized = p;
                    best = Some(opt);
                }
            }
        };
        if let Some(t) = view.jobs.committed[id.0] {
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
        let job = view.job(id);
        let vols = view.jobs.volumes_on(id.0, job, target);
        let phase = Phase::first(target, vols).expect("claimed job has a phase to run");
        let f = self.proj.forecast(job, vols, target, view.spec(), view.now);
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

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_platform::{
        CloudId, EdgeId, Instance, Job, JobArena, JobState, PendingSet, PlatformSpec, PlatformState,
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
        let first_phase =
            |target| Phase::first(target, arena.volumes_on(0, inst.job(JobId(0)), target));
        assert_eq!(first_phase(Target::Cloud(CloudId(0))), Some(Phase::Compute));
        // Fresh start on cloud 1: uplink again.
        assert_eq!(first_phase(Target::Cloud(CloudId(1))), Some(Phase::Uplink));
        assert_eq!(first_phase(Target::Edge), Some(Phase::Compute));
    }

    #[test]
    fn best_startable_picks_earliest_completion() {
        let (inst, states) = fixture();
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending, &platform);
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
        let platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending, &platform);
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
        let platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending, &platform);
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
        let platform2 = PlatformState::new(inst2.spec.clone());
        let view2 = SimView::new(&inst2, Time::ZERO, &arena2, &pending2, &platform2);
        assert_eq!(round.best_startable(&view2, JobId(2)), None);
    }

    #[test]
    fn reset_reproduces_a_fresh_round() {
        let (inst, mut states) = fixture();
        states[0].committed = Some(Target::Cloud(CloudId(0)));
        states[0].up_done = 1.0;
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::new(1.0), &arena, &pending, &platform);
        let mut round = RoundState::new(&view);
        round.claim(&view, JobId(0), Target::Cloud(CloudId(0)));
        // Later instant, more progress: the reused round must behave
        // exactly like a freshly built one.
        states[0].work_done = 1.0;
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::new(2.0), &arena, &pending, &platform);
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
        let platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending, &platform);
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
        let platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::new(2.0), &arena, &pending, &platform);
        let round = RoundState::new(&view);
        let opt = round.best_startable(&view, JobId(0)).unwrap();
        // Continue on cloud 0: 1 work + 1 dn = 2 → completes at 4;
        // fresh anywhere would take ≥ 4.
        assert_eq!(opt.target, Target::Cloud(CloudId(0)));
        assert_eq!(opt.completion, Time::new(4.0));
    }

    #[test]
    fn down_units_are_never_placement_targets() {
        let (inst, states) = fixture();
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let mut platform = PlatformState::new(inst.spec.clone());
        platform.mark_dynamic();
        // Job 1 prefers cloud 0 (see `best_startable_picks_earliest_
        // completion`); with cloud 0 down it must fall over to cloud 1,
        // and with the whole cloud down it must run locally.
        platform.fault_cloud_down(CloudId(0));
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending, &platform);
        let round = RoundState::new(&view);
        let opt = round.best_startable(&view, JobId(1)).unwrap();
        assert_eq!(opt.target, Target::Cloud(CloudId(1)));

        platform.fault_cloud_down(CloudId(1));
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending, &platform);
        let round = RoundState::new(&view);
        let opt = round.best_startable(&view, JobId(1)).unwrap();
        assert_eq!(opt.target, Target::Edge);

        // Everything down: nothing startable at all.
        platform.fault_edge_down(EdgeId(0));
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending, &platform);
        let round = RoundState::new(&view);
        assert_eq!(round.best_startable(&view, JobId(1)), None);
    }

    mod fast_path {
        use super::super::*;
        use mmsec_platform::{
            CloudId, EdgeId, Instance, Job, JobArena, JobState, PendingSet, PlatformSpec,
            PlatformState,
        };
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The speed-class fast path must reproduce the exhaustive
            /// ascending scan bit-for-bit: heterogeneous cloud speeds
            /// (so groups and cross-group ties exist), flat and two-tier
            /// platforms (so path factors differ from 1.0), jobs in every
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
                tiered in any::<bool>(),
                hop_up in 1.0f64..3.0,
                hop_dn in 1.0f64..3.0,
            ) {
                let speeds: Vec<f64> =
                    speed_picks.iter().map(|&p| [0.5, 1.0, 2.0][p]).collect();
                let num_cloud = speeds.len();
                let edges = PlatformSpec::builder().edges(vec![1.0, 0.5]);
                // Two tiers: the first cloud near at unit hop factors,
                // the rest one hop deeper.
                let spec = if tiered && num_cloud >= 2 {
                    edges
                        .tier(1.0, 1.0)
                        .cloud(speeds[0])
                        .tier(hop_up, hop_dn)
                        .clouds(speeds[1..].iter().copied())
                        .build()
                } else {
                    edges.clouds(speeds).build()
                };
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
                let mut platform = PlatformState::new(inst.spec.clone());
                platform.mark_dynamic();
                for (k, _) in down.iter().take(num_cloud).enumerate().filter(|(_, &d)| d) {
                    platform.fault_cloud_down(CloudId(k));
                }
                for (j, _) in down[8..].iter().enumerate().filter(|(_, &d)| d) {
                    platform.fault_edge_down(EdgeId(j));
                }
                let arena = JobArena::from_states(&inst, &states);
                let pending = PendingSet::from_states(&inst, &states);
                let view = SimView::new(&inst, Time::new(now), &arena, &pending, &platform);
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

            /// A round reset after the session's job count changed —
            /// grown by submissions, or emptied by a retire and refilled —
            /// is the round `RoundState::new` builds on the same view:
            /// same per-job contribution table and backlog, same options
            /// for every pending job, before and after a claim.
            #[test]
            fn reset_after_the_job_count_changed_matches_a_fresh_round(
                job_descs in proptest::collection::vec(
                    (0.5f64..8.0, 0.0f64..3.0, 0.0f64..3.0, 0u8..2, 0u8..4),
                    2..16,
                ),
                split in 0.0f64..1.0,
                before_first in any::<bool>(),
                claim_pick in 0usize..16,
            ) {
                let spec = PlatformSpec::builder()
                    .edges(vec![1.0, 0.5])
                    .clouds([1.0, 2.0, 2.0])
                    .build();
                let platform = PlatformState::new(spec.clone());
                // Jobs in every commitment/progress state, all released.
                let build = |descs: &[(f64, f64, f64, u8, u8)]| {
                    let jobs: Vec<Job> = descs
                        .iter()
                        .map(|&(work, up, dn, origin, _)| {
                            Job::new(EdgeId(origin as usize), 0.0, work, up, dn)
                        })
                        .collect();
                    let inst = Instance::new(spec.clone(), jobs).unwrap();
                    let states: Vec<JobState> = descs
                        .iter()
                        .enumerate()
                        .map(|(i, &(work, up, _, _, kind))| {
                            let mut st = JobState { released: true, ..JobState::default() };
                            match kind {
                                1 => {
                                    st.committed = Some(Target::Edge);
                                    st.work_done = 0.5 * work;
                                }
                                2 => {
                                    st.committed = Some(Target::Cloud(CloudId(i % 3)));
                                    st.up_done = 0.5 * up;
                                }
                                3 => {
                                    st.committed = Some(Target::Cloud(CloudId(i % 3)));
                                    st.up_done = up;
                                    st.work_done = 0.25 * work;
                                }
                                _ => {}
                            }
                            st
                        })
                        .collect();
                    (inst, states)
                };
                // The round first serves a prefix (growth) or the whole
                // list (a retire that leaves a shorter list next).
                let cut = 1 + (split * (job_descs.len() - 1) as f64) as usize;
                let (first, second) = if before_first {
                    (&job_descs[..cut], &job_descs[..])
                } else {
                    (&job_descs[..], &job_descs[..cut])
                };
                let (inst1, states1) = build(first);
                let arena1 = JobArena::from_states(&inst1, &states1);
                let pending1 = PendingSet::from_states(&inst1, &states1);
                let view1 = SimView::new(&inst1, Time::new(1.0), &arena1, &pending1, &platform);
                let mut round = RoundState::new(&view1);
                let id = JobId(claim_pick % inst1.num_jobs());
                if let Some(opt) = round.best_startable(&view1, id) {
                    round.claim_option(&view1, id, &opt);
                }

                let (inst2, states2) = build(second);
                let arena2 = JobArena::from_states(&inst2, &states2);
                let pending2 = PendingSet::from_states(&inst2, &states2);
                let view2 = SimView::new(&inst2, Time::new(2.0), &arena2, &pending2, &platform);
                round.reset(&view2);
                let mut fresh = RoundState::new(&view2);
                prop_assert_eq!(&round.contribution, &fresh.contribution);
                prop_assert_eq!(&round.backlog, &fresh.backlog);
                prop_assert_eq!(&round.touched, &fresh.touched);
                let id = JobId(claim_pick % inst2.num_jobs());
                for claim in [false, true] {
                    if claim {
                        if let Some(opt) = fresh.best_startable(&view2, id) {
                            round.claim_option(&view2, id, &opt);
                            fresh.claim_option(&view2, id, &opt);
                        }
                    }
                    for jid in view2.pending_jobs() {
                        prop_assert_eq!(
                            round.best_startable(&view2, jid),
                            fresh.best_startable(&view2, jid),
                            "job {:?} diverges (after claim: {})",
                            jid,
                            claim
                        );
                    }
                }
            }
        }
    }
}
