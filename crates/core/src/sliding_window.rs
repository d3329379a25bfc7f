//! Sliding-window monitoring (Section 7): `BaselineSW` (Alg. 4) and
//! `FilterThenVerifySW` / `FilterThenVerifyApproxSW` (Alg. 5).
//!
//! Only the `W` most recent objects are *alive*; an arriving object competes
//! with alive objects only, and the expiry of an old object can promote
//! previously dominated objects back into a frontier. To mend frontiers
//! efficiently, monitors keep a *Pareto frontier buffer* (Def. 7.4): the
//! alive objects not dominated by any **succeeding** object. By Theorem 7.2
//! an object dominated by a successor can never re-enter the frontier, so
//! the buffer is exactly the set of objects that may ever need promotion.
//!
//! Fidelity note: `FilterThenVerifySW` follows Alg. 5 literally — on expiry
//! it only re-examines buffered objects that the expiring object dominated
//! *with respect to the cluster's (virtual user's) preferences*. An object
//! that a member user's own (stronger) preferences had excluded is therefore
//! not always promoted back, which is the source of the small accuracy loss
//! the paper accepts for this algorithm family; the baseline `BaselineSW`
//! has no such loss and serves as ground truth.

use pm_model::{Object, ObjectId, SlidingWindow, UserId};
use pm_porder::{CompiledPreference, Dominance, Preference};

use pm_cluster::{ApproxConfig, Cluster, Clustering};

use crate::baseline::{update_pareto_frontier, update_pareto_frontier_traced, Frontier};
use crate::buckets::BucketTable;
use crate::clusters::ClusterCore;
use crate::delta::DeltaLog;
use crate::monitor::{Arrival, ContinuousMonitor, MonitorState};
use crate::stats::MonitorStats;
use crate::timers::{timed, MonitorTimers};

/// Adds `object` to `buffer` and evicts every buffered object it dominates
/// (`refreshParetoBufferSW`, Alg. 4). By Theorem 7.2 the evicted objects can
/// never become Pareto-optimal again.
fn refresh_buffer(
    preference: &CompiledPreference,
    buffer: &mut Frontier,
    object: &Object,
    stats: &mut MonitorStats,
) {
    let mut dominated = Vec::new();
    for existing in buffer.values() {
        stats.record_comparison();
        if preference.compare(object, existing) == Dominance::Dominates {
            dominated.push(existing.id());
        }
    }
    for id in dominated {
        buffer.remove(&id);
    }
    buffer.insert(object.id(), object.clone());
}

/// `mendParetoFrontierSW` (Alg. 4): promotes `candidate` into `frontier` if
/// no current frontier member dominates it. Returns whether it was promoted.
fn mend_frontier(
    preference: &CompiledPreference,
    frontier: &mut Frontier,
    candidate: &Object,
    stats: &mut MonitorStats,
) -> bool {
    for existing in frontier.values() {
        stats.record_comparison();
        if preference.compare(existing, candidate) == Dominance::Dominates {
            return false;
        }
    }
    frontier.insert(candidate.id(), candidate.clone());
    true
}

/// The frontier of the alive objects under `preference`: the backfill of a
/// user registered or updated mid-stream.
fn window_frontier(
    window: &SlidingWindow,
    preference: &CompiledPreference,
    stats: &mut MonitorStats,
) -> Frontier {
    let mut frontier = Frontier::new();
    for object in window.iter() {
        update_pareto_frontier(preference, &mut frontier, object, stats);
    }
    frontier
}

/// The state of one distinct preference of the sliding-window baseline:
/// identical preferences induce identical frontiers *and* identical
/// Def. 7.4 buffers (both depend only on the preference relations and the
/// alive objects), so all users holding it share one of each.
#[derive(Debug, Clone, Default)]
struct WindowState {
    frontier: Frontier,
    buffer: Frontier,
}

impl WindowState {
    /// Replays the alive objects oldest-first under `preference`: exactly
    /// the frontier and Pareto frontier buffer (Def. 7.4) a from-start user
    /// would hold over the current window.
    fn replay(
        window: &SlidingWindow,
        preference: &CompiledPreference,
        stats: &mut MonitorStats,
    ) -> Self {
        let mut state = Self::default();
        for object in window.iter() {
            update_pareto_frontier(preference, &mut state.frontier, object, stats);
            refresh_buffer(preference, &mut state.buffer, object, stats);
        }
        state
    }
}

/// Algorithm 4: per-user sliding-window baseline.
///
/// Internally bucketed by distinct preference, like
/// [`crate::BaselineMonitor`]: one frontier + buffer per *distinct*
/// preference, arrivals and expiries expanded to every member. Unlike the
/// append-only baseline there is no lossless-history caveat — the window is
/// the complete alive set, so a twin's replay always equals the live twin
/// state and twins share unconditionally.
#[derive(Debug, Clone)]
pub struct BaselineSwMonitor {
    table: BucketTable<WindowState>,
    window: SlidingWindow,
    stats: MonitorStats,
    /// Optional latency histograms (see [`MonitorTimers`]); disabled slots
    /// cost nothing.
    timers: MonitorTimers,
}

impl BaselineSwMonitor {
    /// Creates a monitor over a window of `window_size` objects, compiling
    /// every distinct preference to its bitset form up front.
    pub fn new(preferences: Vec<Preference>, window_size: usize) -> Self {
        let mut table = BucketTable::new();
        for preference in &preferences {
            table.add(preference, true, |_| WindowState::default());
        }
        Self {
            table,
            window: SlidingWindow::new(window_size),
            stats: MonitorStats::new(),
            timers: MonitorTimers::disabled(),
        }
    }

    /// The window capacity `W`.
    pub fn window_size(&self) -> usize {
        self.window.capacity()
    }

    /// Number of distinct preferences currently monitored (= maintained
    /// frontier/buffer pairs).
    pub fn distinct_preferences(&self) -> usize {
        self.table.len()
    }

    /// The preference of `user`.
    pub fn preference(&self, user: UserId) -> &Preference {
        &self.table.bucket_of(user).preference.preference
    }

    /// The current Pareto frontier buffer `PB_c` of a user, sorted by id.
    pub fn buffer(&self, user: UserId) -> Vec<ObjectId> {
        self.table
            .bucket_of(user)
            .state
            .buffer
            .keys()
            .copied()
            .collect()
    }

    fn expire(&mut self, expired: &Object, deltas: &mut DeltaLog) {
        self.stats.record_expiration();
        for bucket in self.table.buckets_mut() {
            let compiled = &bucket.preference.compiled;
            let state = &mut bucket.state;
            if state.frontier.remove(&expired.id()).is_some() {
                for &member in &bucket.members {
                    deltas.leave(member, expired.id());
                }
                // Objects the expired frontier member dominated may now be
                // Pareto-optimal (Alg. 4, lines 2–5) — mended once per
                // distinct preference, oldest candidate first so a promoted
                // object is visible when its younger dominated peers are
                // checked.
                for candidate in state.buffer.values() {
                    if candidate.id() == expired.id() {
                        continue;
                    }
                    self.stats.record_comparison();
                    if compiled.compare(expired, candidate) == Dominance::Dominates {
                        let present = state.frontier.contains_key(&candidate.id());
                        if mend_frontier(compiled, &mut state.frontier, candidate, &mut self.stats)
                            && !present
                        {
                            for &member in &bucket.members {
                                deltas.enter(member, candidate.id());
                            }
                        }
                    }
                }
            }
            state.buffer.remove(&expired.id());
        }
    }
}

impl ContinuousMonitor for BaselineSwMonitor {
    fn process(&mut self, object: Object) -> Arrival {
        let timer = self.timers.arrival.clone();
        timed(timer.as_ref(), || {
            let mut deltas = DeltaLog::new();
            let event = self.window.push(object.clone());
            if let Some(expired) = &event.expired {
                self.expire(expired, &mut deltas);
            }
            let mut targets = Vec::new();
            for bucket in self.table.buckets_mut() {
                let compiled = &bucket.preference.compiled;
                let update = update_pareto_frontier_traced(
                    compiled,
                    &mut bucket.state.frontier,
                    &object,
                    &mut self.stats,
                );
                for &member in &bucket.members {
                    update.report(member, object.id(), &mut deltas, &mut targets);
                }
                refresh_buffer(compiled, &mut bucket.state.buffer, &object, &mut self.stats);
            }
            targets.sort_unstable();
            self.stats.record_arrival(targets.len());
            Arrival {
                object: object.id(),
                target_users: targets,
                deltas: deltas.finish(),
            }
        })
    }

    fn frontier(&self, user: UserId) -> Vec<ObjectId> {
        self.table
            .bucket_of(user)
            .state
            .frontier
            .keys()
            .copied()
            .collect()
    }

    fn num_users(&self) -> usize {
        self.table.num_users()
    }

    fn add_user(&mut self, preference: Preference) -> UserId {
        // The window is the complete alive set, so a twin's replay always
        // equals the live twin state: join its bucket in O(1).
        let timer = self.timers.backfill.clone();
        let (window, stats) = (&self.window, &mut self.stats);
        self.table.add(&preference, true, |compiled| {
            timed(timer.as_ref(), || {
                WindowState::replay(window, compiled, stats)
            })
        })
    }

    fn remove_user(&mut self, user: UserId) -> Option<UserId> {
        self.table.remove(user)
    }

    fn set_timers(&mut self, timers: MonitorTimers) {
        // No retained history, so the sweep slot never records.
        self.timers = timers;
    }

    fn update_user(&mut self, user: UserId, preference: Preference) {
        let timer = self.timers.backfill.clone();
        let (window, stats) = (&self.window, &mut self.stats);
        self.table.update(user, &preference, true, |compiled| {
            timed(timer.as_ref(), || {
                WindowState::replay(window, compiled, stats)
            })
        });
    }

    fn stats(&self) -> MonitorStats {
        let mut stats = self.stats;
        stats.distinct_preferences = self.table.len() as u64;
        stats.preference_bytes = self.table.preference_bytes();
        stats
    }

    fn export_state(&self) -> MonitorState {
        MonitorState {
            history: None,
            window: Some(self.window.iter().cloned().collect()),
            stats: self.stats,
        }
    }

    fn import_state(&mut self, state: MonitorState) {
        if let Some(objects) = state.window {
            for object in objects {
                let _ = self.window.push(object);
            }
        }
    }

    fn restore_stats(&mut self, stats: MonitorStats) {
        self.stats.restore_counters(stats);
    }

    fn member_preferences(&self) -> Vec<Preference> {
        self.table.member_preferences()
    }
}

/// Algorithm 5: sliding-window FilterThenVerify (and its approximate
/// variant, depending on how the virtual preferences are built).
///
/// Clusters keep, besides `P_U`, the cluster-level Pareto frontier buffer
/// `PB_U` (Def. 7.4 for the virtual user): one buffer per cluster replaces
/// one buffer per user.
#[derive(Debug, Clone)]
pub struct FilterThenVerifySwMonitor {
    /// Users, their frontiers and the clusters with their `P_U` and `PB_U`.
    core: ClusterCore<Frontier>,
    window: SlidingWindow,
    stats: MonitorStats,
    /// Optional latency histograms (see [`MonitorTimers`]); disabled slots
    /// cost nothing.
    timers: MonitorTimers,
}

impl FilterThenVerifySwMonitor {
    /// Creates a monitor whose clusters carry exact common preference
    /// relations (FilterThenVerifySW).
    pub fn new(preferences: Vec<Preference>, clusters: &[Cluster], window_size: usize) -> Self {
        Self::from_core(ClusterCore::fixed(preferences, clusters, None), window_size)
    }

    /// Creates a monitor backed by an incrementally maintained
    /// [`Clustering`]: [`Self::add_user`] joins the most similar cluster
    /// (or spins up a singleton) and [`Self::remove_user`] repairs only the
    /// affected cluster, whose frontier and buffer are rebuilt by replaying
    /// the window under the recomputed common relation.
    pub fn with_clustering(
        preferences: Vec<Preference>,
        clustering: Clustering,
        window_size: usize,
    ) -> Self {
        let core = ClusterCore::maintained(preferences, clustering, None);
        Self::from_core(core, window_size)
    }

    /// Creates a monitor whose clusters carry approximate common preference
    /// relations built with Alg. 3 (FilterThenVerifyApproxSW).
    pub fn with_approx_clusters(
        preferences: Vec<Preference>,
        clusters: &[Cluster],
        config: ApproxConfig,
        window_size: usize,
    ) -> Self {
        let core = ClusterCore::fixed(preferences, clusters, Some(config));
        Self::from_core(core, window_size)
    }

    /// Like [`Self::with_clustering`], but with approximate (Alg. 3)
    /// virtual preferences.
    pub fn with_approx_clustering(
        preferences: Vec<Preference>,
        clustering: Clustering,
        config: ApproxConfig,
        window_size: usize,
    ) -> Self {
        let core = ClusterCore::maintained(preferences, clustering, Some(config));
        Self::from_core(core, window_size)
    }

    /// Creates a monitor with explicitly provided virtual preferences.
    pub fn with_virtual_preferences(
        preferences: Vec<Preference>,
        clusters: Vec<(Vec<UserId>, Preference)>,
        window_size: usize,
    ) -> Self {
        let core = ClusterCore::build(preferences, clusters, None, None);
        Self::from_core(core, window_size)
    }

    fn from_core(core: ClusterCore<Frontier>, window_size: usize) -> Self {
        Self {
            core,
            window: SlidingWindow::new(window_size),
            stats: MonitorStats::new(),
            timers: MonitorTimers::disabled(),
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.core.clusters().len()
    }

    /// The preference of `user`.
    pub fn preference(&self, user: UserId) -> &Preference {
        self.core.preference(user)
    }

    /// Number of distinct preferences across the current users (a gauge;
    /// users with equal preferences share one compiled bitset).
    pub fn distinct_preferences(&self) -> usize {
        self.core.distinct_preferences()
    }

    /// The window capacity `W`.
    pub fn window_size(&self) -> usize {
        self.window.capacity()
    }

    /// The cluster-level frontier `P_U`, sorted by id.
    pub fn cluster_frontier(&self, cluster: usize) -> Vec<ObjectId> {
        self.core.cluster_frontier(cluster)
    }

    /// The virtual preference used by a cluster (common or approximate).
    pub fn virtual_preference(&self, cluster: usize) -> &Preference {
        &self.core.clusters()[cluster].virtual_preference
    }

    /// The cluster-level buffer `PB_U`, sorted by id.
    pub fn cluster_buffer(&self, cluster: usize) -> Vec<ObjectId> {
        self.core.clusters()[cluster]
            .buffer
            .keys()
            .copied()
            .collect()
    }

    /// Rebuilds one cluster's frontier `P_U` and buffer `PB_U` by replaying
    /// the alive objects under the cluster's (just recomputed) compiled
    /// common relation. After a membership change the old state was
    /// computed under a different relation, and a too-small buffer would
    /// miss promotions on future expiries — the replay restores exactly the
    /// state a from-start cluster would hold over the current window.
    fn rebuild_cluster_state(&mut self, cluster: usize) {
        let state = &mut self.core.split_mut().2[cluster];
        let replayed = WindowState::replay(&self.window, &state.compiled, &mut self.stats);
        state.frontier = replayed.frontier;
        state.buffer = replayed.buffer;
    }

    fn expire(&mut self, expired: &Object, deltas: &mut DeltaLog) {
        self.stats.record_expiration();
        let (users, user_frontiers, clusters) = self.core.split_mut();
        for cluster in clusters {
            let was_cluster_pareto = cluster.frontier.remove(&expired.id()).is_some();
            for member in &cluster.members {
                if user_frontiers[member.index()]
                    .remove(&expired.id())
                    .is_some()
                {
                    deltas.leave(*member, expired.id());
                }
            }
            if was_cluster_pareto {
                // Alg. 5, lines 2–8: promote buffered objects the expired
                // object dominated (w.r.t. the virtual user), first into P_U,
                // then — if successful — into each member's frontier,
                // oldest candidate first (see `BaselineSwMonitor::expire`).
                for candidate in cluster.buffer.values() {
                    if candidate.id() == expired.id() {
                        continue;
                    }
                    self.stats.record_comparison();
                    if cluster.compiled.compare(expired, candidate) != Dominance::Dominates {
                        continue;
                    }
                    let promoted = mend_frontier(
                        &cluster.compiled,
                        &mut cluster.frontier,
                        candidate,
                        &mut self.stats,
                    );
                    if promoted {
                        for member in &cluster.members {
                            let frontier = &mut user_frontiers[member.index()];
                            let present = frontier.contains_key(&candidate.id());
                            if mend_frontier(
                                &users[member.index()].compiled,
                                frontier,
                                candidate,
                                &mut self.stats,
                            ) && !present
                            {
                                deltas.enter(*member, candidate.id());
                            }
                        }
                    }
                }
            }
            cluster.buffer.remove(&expired.id());
        }
    }
}

impl ContinuousMonitor for FilterThenVerifySwMonitor {
    fn process(&mut self, object: Object) -> Arrival {
        let timer = self.timers.arrival.clone();
        timed(timer.as_ref(), || {
            let mut deltas = DeltaLog::new();
            let event = self.window.push(object.clone());
            if let Some(expired) = &event.expired {
                self.expire(expired, &mut deltas);
            }
            // `updateParetoFrontierUSW` plus the per-member verification of
            // Alg. 5 (lines 9–14) ...
            let targets = self.core.arrive(&object, &mut self.stats, &mut deltas);
            // ... and line 15: every cluster buffer is refreshed regardless
            // of whether the object is currently Pareto-optimal.
            for cluster in self.core.split_mut().2 {
                refresh_buffer(
                    &cluster.compiled,
                    &mut cluster.buffer,
                    &object,
                    &mut self.stats,
                );
            }
            self.stats.record_arrival(targets.len());
            Arrival {
                object: object.id(),
                target_users: targets,
                deltas: deltas.finish(),
            }
        })
    }

    fn frontier(&self, user: UserId) -> Vec<ObjectId> {
        self.core.frontier(user)
    }

    fn num_users(&self) -> usize {
        self.core.users().len()
    }

    fn add_user(&mut self, preference: Preference) -> UserId {
        // Backfill the user's own frontier from the alive objects, then
        // replay the window into the cluster it joined.
        let timer = self.timers.backfill.clone();
        let (window, stats) = (&self.window, &mut self.stats);
        let (user, cluster) = self.core.add_user(&preference, |compiled| {
            timed(timer.as_ref(), || window_frontier(window, compiled, stats))
        });
        self.rebuild_cluster_state(cluster);
        user
    }

    fn update_user(&mut self, user: UserId, preference: Preference) {
        // Rebuild the user's own frontier by replaying the window under the
        // new preference; every cluster whose common relation changed
        // replays the window so its frontier and Def. 7.4 buffer match a
        // from-start cluster over the current window.
        let timer = self.timers.backfill.clone();
        let (window, stats) = (&self.window, &mut self.stats);
        let changed = self.core.update_user(user, &preference, |compiled| {
            timed(timer.as_ref(), || window_frontier(window, compiled, stats))
        });
        for cluster in changed {
            self.rebuild_cluster_state(cluster);
        }
    }

    fn remove_user(&mut self, user: UserId) -> Option<UserId> {
        let (moved, changed) = self.core.remove_user(user);
        if let Some(cluster) = changed {
            self.rebuild_cluster_state(cluster);
        }
        moved
    }

    fn set_timers(&mut self, timers: MonitorTimers) {
        // No retained history, so the sweep slot never records.
        self.timers = timers;
    }

    fn stats(&self) -> MonitorStats {
        let mut stats = self.stats;
        self.core.report_gauges(&mut stats);
        stats
    }

    fn export_state(&self) -> MonitorState {
        MonitorState {
            history: None,
            window: Some(self.window.iter().cloned().collect()),
            stats: self.stats,
        }
    }

    fn import_state(&mut self, state: MonitorState) {
        if let Some(objects) = state.window {
            for object in objects {
                let _ = self.window.push(object);
            }
        }
    }

    fn restore_stats(&mut self, stats: MonitorStats) {
        self.stats.restore_counters(stats);
    }

    fn member_preferences(&self) -> Vec<Preference> {
        self.core.member_preferences()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_model::AttrId;
    use pm_model::ValueId;
    use pm_porder::naive_pareto_frontier;

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    fn obj(id: u64, vals: &[u32]) -> Object {
        Object::new(ObjectId::new(id), vals.iter().map(|&x| v(x)).collect())
    }

    /// Laptop users c1, c2 (same encoding as the baseline tests).
    fn laptop_users() -> Vec<Preference> {
        let mut c1 = Preference::new(3);
        c1.prefer(a(0), v(2), v(1));
        c1.prefer(a(0), v(1), v(3));
        c1.prefer(a(0), v(1), v(4));
        c1.prefer(a(0), v(1), v(0));
        c1.prefer(a(1), v(0), v(1));
        c1.prefer(a(1), v(1), v(4));
        c1.prefer(a(1), v(1), v(2));
        c1.prefer(a(1), v(0), v(3));
        c1.prefer(a(2), v(1), v(2));
        c1.prefer(a(2), v(1), v(3));
        c1.prefer(a(2), v(2), v(0));
        c1.prefer(a(2), v(3), v(0));
        let mut c2 = Preference::new(3);
        c2.prefer(a(0), v(2), v(1));
        c2.prefer(a(0), v(2), v(3));
        c2.prefer(a(0), v(3), v(4));
        c2.prefer(a(0), v(4), v(0));
        c2.prefer(a(0), v(1), v(0));
        c2.prefer(a(1), v(0), v(4));
        c2.prefer(a(1), v(1), v(4));
        c2.prefer(a(1), v(4), v(3));
        c2.prefer(a(1), v(1), v(2));
        c2.prefer(a(2), v(3), v(2));
        c2.prefer(a(2), v(2), v(1));
        c2.prefer(a(2), v(1), v(0));
        vec![c1, c2]
    }

    /// The Table 8 product stream of Example 7.7.
    ///
    /// display: 9.9-under=0, 10-12.9=1, 13-15.9=2, 16-18.9=3, 19-up=4
    /// brand:   Apple=0, Lenovo=1, Samsung=2, Sony=3, Toshiba=4
    /// cpu:     single=0, dual=1, triple=2, quad=3
    fn table8_objects() -> Vec<Object> {
        vec![
            obj(1, &[3, 1, 1]), // o1: 17, Lenovo, dual
            obj(2, &[0, 3, 0]), // o2: 9.5, Sony, single
            obj(3, &[1, 0, 1]), // o3: 12, Apple, dual
            obj(4, &[3, 1, 3]), // o4: 16, Lenovo, quad
            obj(5, &[4, 4, 0]), // o5: 19, Toshiba, single
            obj(6, &[1, 2, 3]), // o6: 12.5, Samsung, quad
            obj(7, &[2, 0, 1]), // o7: 14, Apple, dual
        ]
    }

    fn one_cluster(users: &[Preference]) -> Vec<(Vec<UserId>, Preference)> {
        vec![(
            (0..users.len()).map(UserId::from).collect(),
            Preference::common_of(users.iter()),
        )]
    }

    /// Recomputes the ground-truth frontier of the alive objects.
    fn oracle_frontier(pref: &Preference, alive: &[Object]) -> Vec<ObjectId> {
        let mut ids = naive_pareto_frontier(pref, alive);
        ids.sort_unstable();
        ids
    }

    // Note: the paper's running Example 7.7 (Tables 9 and 10) is not
    // internally consistent with the preferences of Table 2 (e.g. o4 is
    // listed outside Pc1 for window (1,6] yet nothing alive dominates it
    // under Table 2's c1 once o1 has expired), so the sliding-window tests
    // validate against a ground-truth oracle recomputed from the alive
    // objects instead of hard-coding the example tables.

    #[test]
    fn table8_stream_baseline_sw_tracks_oracle() {
        let users = laptop_users();
        let window = 6;
        let mut m = BaselineSwMonitor::new(users.clone(), window);
        let objects = table8_objects();
        for (i, o) in objects.iter().enumerate() {
            let arrival = m.process(o.clone());
            let alive_start = (i + 1).saturating_sub(window);
            let alive = &objects[alive_start..=i];
            for (u, pref) in users.iter().enumerate() {
                let oracle = oracle_frontier(pref, alive);
                assert_eq!(m.frontier(UserId::from(u)), oracle, "user {u} step {i}");
                // The arriving object's target set agrees with the oracle.
                let is_target = arrival.target_users.contains(&UserId::from(u));
                assert_eq!(is_target, oracle.contains(&o.id()), "user {u} step {i}");
            }
        }
        // o7 replaces o3 for both users once the window has slid past o1.
        let arrival_ids = m.frontier(UserId::new(0));
        assert!(arrival_ids.contains(&ObjectId::new(7)));
    }

    #[test]
    fn table8_stream_filter_then_verify_sw_invariants() {
        let users = laptop_users();
        let mut m = FilterThenVerifySwMonitor::with_virtual_preferences(
            users.clone(),
            one_cluster(&users),
            6,
        );
        for o in table8_objects() {
            m.process(o);
            let pu = m.cluster_frontier(0);
            let pbu = m.cluster_buffer(0);
            // Thm. 7.5: PB_U ⊇ P_U and P_U ⊇ P_c for every member.
            for id in &pu {
                assert!(pbu.contains(id), "PB_U must contain {id}");
            }
            for u in 0..users.len() {
                for id in m.frontier(UserId::from(u)) {
                    assert!(pu.contains(&id), "P_U must contain {id} of user {u}");
                }
            }
        }
        // After the full stream the newest strong object (o7: 14", Apple,
        // dual) is on both users' frontiers.
        for u in 0..users.len() {
            assert!(m.frontier(UserId::from(u)).contains(&ObjectId::new(7)));
        }
    }

    #[test]
    fn baseline_sw_matches_oracle_on_every_step() {
        let users = laptop_users();
        let window = 4;
        let mut m = BaselineSwMonitor::new(users.clone(), window);
        let objects: Vec<Object> = table8_objects()
            .into_iter()
            .chain(vec![
                obj(8, &[2, 2, 1]),
                obj(9, &[0, 1, 3]),
                obj(10, &[1, 0, 0]),
                obj(11, &[2, 0, 3]),
            ])
            .collect();
        for (i, o) in objects.iter().enumerate() {
            m.process(o.clone());
            let alive_start = (i + 1).saturating_sub(window);
            let alive = &objects[alive_start..=i];
            for (u, pref) in users.iter().enumerate() {
                assert_eq!(
                    m.frontier(UserId::from(u)),
                    oracle_frontier(pref, alive),
                    "user {u} after object {}",
                    o.id()
                );
            }
        }
    }

    #[test]
    fn singleton_clusters_sw_match_baseline_sw() {
        let users = laptop_users();
        let clusters: Vec<(Vec<UserId>, Preference)> = users
            .iter()
            .enumerate()
            .map(|(i, p)| (vec![UserId::from(i)], p.clone()))
            .collect();
        let mut baseline = BaselineSwMonitor::new(users.clone(), 3);
        let mut ftv =
            FilterThenVerifySwMonitor::with_virtual_preferences(users.clone(), clusters, 3);
        let objects: Vec<Object> = table8_objects()
            .into_iter()
            .chain(vec![
                obj(8, &[2, 2, 1]),
                obj(9, &[0, 1, 3]),
                obj(10, &[1, 0, 0]),
            ])
            .collect();
        for o in objects {
            let a = baseline.process(o.clone());
            let b = ftv.process(o);
            assert_eq!(a.target_users, b.target_users, "object {}", a.object);
            for u in 0..baseline.num_users() {
                assert_eq!(
                    baseline.frontier(UserId::from(u)),
                    ftv.frontier(UserId::from(u))
                );
            }
        }
    }

    #[test]
    fn buffer_contains_frontier() {
        // Def. 7.4: PB_c ⊇ P_c, and Thm. 7.5: PB_U ⊇ P_U.
        let users = laptop_users();
        let mut baseline = BaselineSwMonitor::new(users.clone(), 4);
        let mut ftv = FilterThenVerifySwMonitor::with_virtual_preferences(
            users.clone(),
            one_cluster(&users),
            4,
        );
        for o in table8_objects() {
            baseline.process(o.clone());
            ftv.process(o);
            for u in 0..users.len() {
                let frontier = baseline.frontier(UserId::from(u));
                let buffer = baseline.buffer(UserId::from(u));
                for id in &frontier {
                    assert!(buffer.contains(id), "PB_c must contain {id}");
                }
            }
            let pu = ftv.cluster_frontier(0);
            let pbu = ftv.cluster_buffer(0);
            for id in &pu {
                assert!(pbu.contains(id), "PB_U must contain {id}");
            }
        }
    }

    #[test]
    fn cluster_frontier_contains_member_frontiers_sw() {
        let users = laptop_users();
        let mut ftv = FilterThenVerifySwMonitor::with_virtual_preferences(
            users.clone(),
            one_cluster(&users),
            5,
        );
        for o in table8_objects() {
            ftv.process(o);
            let pu = ftv.cluster_frontier(0);
            for u in 0..users.len() {
                for id in ftv.frontier(UserId::from(u)) {
                    assert!(pu.contains(&id), "P_U must contain {id} of user {u}");
                }
            }
        }
    }

    #[test]
    fn expired_objects_leave_all_state() {
        let users = laptop_users();
        let mut m = BaselineSwMonitor::new(users, 2);
        m.process(obj(1, &[3, 1, 1]));
        m.process(obj(2, &[0, 3, 0]));
        m.process(obj(3, &[1, 0, 1]));
        // o1 has expired: it may appear in no frontier or buffer.
        for u in 0..m.num_users() {
            assert!(!m.frontier(UserId::from(u)).contains(&ObjectId::new(1)));
            assert!(!m.buffer(UserId::from(u)).contains(&ObjectId::new(1)));
        }
        assert_eq!(m.stats().expirations, 1);
        assert_eq!(m.window_size(), 2);
    }

    #[test]
    fn approx_sw_constructor_produces_working_monitor() {
        let users = laptop_users();
        let cluster = Cluster {
            members: vec![UserId::new(0), UserId::new(1)],
            common: Preference::common_of(users.iter()),
        };
        let mut m = FilterThenVerifySwMonitor::with_approx_clusters(
            users,
            std::slice::from_ref(&cluster),
            ApproxConfig::new(64, 0.4),
            4,
        );
        for o in table8_objects() {
            m.process(o);
        }
        assert_eq!(m.num_clusters(), 1);
        assert_eq!(m.window_size(), 4);
        assert!(m.stats().arrivals == 7);
        assert!(m.stats().expirations == 3);
    }

    #[test]
    fn added_sliding_user_matches_from_start_monitor_over_the_window() {
        let users = laptop_users();
        let window = 4;
        let mut m = BaselineSwMonitor::new(vec![users[0].clone()], window);
        let objects = table8_objects();
        for o in &objects[..5] {
            m.process(o.clone());
        }
        let added = m.add_user(users[1].clone());
        assert_eq!(added, UserId::new(1));
        for o in &objects[5..] {
            m.process(o.clone());
        }
        let mut from_start = BaselineSwMonitor::new(users.clone(), window);
        for o in &objects {
            from_start.process(o.clone());
        }
        assert_eq!(m.frontier(added), from_start.frontier(UserId::new(1)));
        assert_eq!(m.buffer(added), from_start.buffer(UserId::new(1)));
        // Expiry-driven mending keeps working for the registered user.
        let extra = [obj(8, &[0, 1, 3]), obj(9, &[1, 0, 0]), obj(10, &[4, 4, 0])];
        for o in &extra {
            m.process(o.clone());
            from_start.process(o.clone());
        }
        assert_eq!(m.frontier(added), from_start.frontier(UserId::new(1)));
    }

    #[test]
    fn dynamic_singleton_clusters_sw_track_baseline_sw() {
        use pm_cluster::{Clustering, ExactMeasure};
        let users = laptop_users();
        let window = 4;
        // An impossible branch cut keeps every user in a singleton cluster,
        // where FilterThenVerifySW is exact — including under churn.
        let clustering = Clustering::new(&users, ExactMeasure::Jaccard, 100.0);
        let mut ftv = FilterThenVerifySwMonitor::with_clustering(users.clone(), clustering, window);
        let mut baseline = BaselineSwMonitor::new(users.clone(), window);
        let objects = table8_objects();
        for o in &objects[..4] {
            assert_eq!(
                ftv.process(o.clone()).target_users,
                baseline.process(o.clone()).target_users
            );
        }
        let pref = users[0].clone();
        assert_eq!(ftv.add_user(pref.clone()), baseline.add_user(pref));
        // The newcomer is a twin of user 0 and joins its cluster outright
        // (twins bypass the branch cut); the cluster's common preference is
        // the shared preference itself, so the filter stays exact.
        assert_eq!(ftv.num_clusters(), 2);
        for o in &objects[4..] {
            assert_eq!(
                ftv.process(o.clone()).target_users,
                baseline.process(o.clone()).target_users
            );
        }
        assert_eq!(
            ftv.remove_user(UserId::new(0)),
            baseline.remove_user(UserId::new(0))
        );
        assert_eq!(ftv.num_clusters(), 2);
        let extra = [obj(8, &[2, 2, 1]), obj(9, &[0, 1, 3]), obj(10, &[1, 0, 0])];
        for o in &extra {
            assert_eq!(
                ftv.process(o.clone()).target_users,
                baseline.process(o.clone()).target_users
            );
        }
        for u in 0..baseline.num_users() {
            assert_eq!(
                ftv.frontier(UserId::from(u)),
                baseline.frontier(UserId::from(u)),
                "user {u}"
            );
        }
    }

    #[test]
    fn updated_sliding_user_matches_from_start_monitor_over_the_window() {
        let users = laptop_users();
        let window = 4;
        let mut m = BaselineSwMonitor::new(users.clone(), window);
        let objects = table8_objects();
        for o in &objects[..5] {
            m.process(o.clone());
        }
        // c1 adopts c2's preference mid-stream.
        m.update_user(UserId::new(0), users[1].clone());
        assert_eq!(m.num_users(), 2);
        for o in &objects[5..] {
            m.process(o.clone());
        }
        let mut from_start =
            BaselineSwMonitor::new(vec![users[1].clone(), users[1].clone()], window);
        for o in &objects {
            from_start.process(o.clone());
        }
        assert_eq!(
            m.frontier(UserId::new(0)),
            from_start.frontier(UserId::new(0))
        );
        assert_eq!(m.buffer(UserId::new(0)), from_start.buffer(UserId::new(0)));
        // Expiry-driven mending keeps working under the new preference.
        let extra = [obj(8, &[0, 1, 3]), obj(9, &[1, 0, 0]), obj(10, &[4, 4, 0])];
        for o in &extra {
            m.process(o.clone());
            from_start.process(o.clone());
        }
        assert_eq!(
            m.frontier(UserId::new(0)),
            from_start.frontier(UserId::new(0))
        );
    }

    #[test]
    fn dynamic_singleton_clusters_sw_track_baseline_sw_under_update() {
        use pm_cluster::{Clustering, ExactMeasure};
        let users = laptop_users();
        let window = 4;
        // Singleton clusters keep FilterThenVerifySW exact, including under
        // in-place preference updates.
        let clustering = Clustering::new(&users, ExactMeasure::Jaccard, 100.0);
        let mut ftv = FilterThenVerifySwMonitor::with_clustering(users.clone(), clustering, window);
        let mut baseline = BaselineSwMonitor::new(users.clone(), window);
        let objects = table8_objects();
        for o in &objects[..4] {
            assert_eq!(
                ftv.process(o.clone()).target_users,
                baseline.process(o.clone()).target_users
            );
        }
        let new_pref = users[0].clone();
        ftv.update_user(UserId::new(1), new_pref.clone());
        baseline.update_user(UserId::new(1), new_pref);
        assert_eq!(ftv.num_clusters(), 2);
        for o in &objects[4..] {
            assert_eq!(
                ftv.process(o.clone()).target_users,
                baseline.process(o.clone()).target_users
            );
        }
        let extra = [obj(8, &[2, 2, 1]), obj(9, &[0, 1, 3]), obj(10, &[1, 0, 0])];
        for o in &extra {
            assert_eq!(
                ftv.process(o.clone()).target_users,
                baseline.process(o.clone()).target_users
            );
        }
        for u in 0..baseline.num_users() {
            assert_eq!(
                ftv.frontier(UserId::from(u)),
                baseline.frontier(UserId::from(u)),
                "user {u}"
            );
        }
    }

    #[test]
    fn window_of_one_keeps_only_newest() {
        let users = laptop_users();
        let mut m = BaselineSwMonitor::new(users, 1);
        for o in table8_objects() {
            let arrival = m.process(o);
            // With a window of one, every arriving object is trivially
            // Pareto-optimal for every user.
            assert_eq!(arrival.target_users.len(), 2);
        }
        assert_eq!(m.frontier(UserId::new(0)), vec![ObjectId::new(7)]);
        assert_eq!(m.buffer(UserId::new(1)), vec![ObjectId::new(7)]);
    }
}
