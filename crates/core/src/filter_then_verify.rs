//! Algorithm 2 — `FilterThenVerify` (and its approximate variant,
//! `FilterThenVerifyApprox`, Sec. 6).
//!
//! Users are grouped into clusters of similar preferences. Each cluster `U`
//! is represented by a *virtual user* whose preference relation is the
//! common (or approximate common) preference relation of the members. The
//! cluster maintains a shared Pareto frontier `P_U` which, by Theorem 4.5,
//! is a superset of every member's frontier: an arriving object dominated
//! within `P_U` can be discarded for all members at once (filter step); an
//! object that survives is verified against each member's own frontier
//! (verify step). The clusters, users and filter step live in the cluster
//! core shared with the sliding-window variant.

use pm_model::{Object, ObjectId, UserId};
use pm_porder::Preference;

use pm_cluster::{ApproxConfig, Cluster, Clustering};

use crate::baseline::backfill_frontier;
use crate::clusters::ClusterCore;
use crate::delta::DeltaLog;
use crate::history::{History, HistoryMode};
use crate::monitor::{Arrival, ContinuousMonitor, MonitorState};
use crate::stats::MonitorStats;
use crate::timers::{timed, MonitorTimers};

/// Algorithm 2: shared-computation monitoring via user clusters.
///
/// The same type implements both `FilterThenVerify` (exact common
/// preference relations) and `FilterThenVerifyApprox` (approximate common
/// preference relations built by Alg. 3) — the algorithm is identical, only
/// the virtual users' preferences differ.
#[derive(Debug, Clone)]
pub struct FilterThenVerifyMonitor {
    /// Users, their frontiers and the clusters with their `P_U`.
    core: ClusterCore<()>,
    /// Retained object history for mid-stream registration/update backfill
    /// (see [`History`] for the cap semantics).
    history: History,
    stats: MonitorStats,
    /// Optional latency histograms (see [`MonitorTimers`]); disabled slots
    /// cost nothing.
    timers: MonitorTimers,
}

impl FilterThenVerifyMonitor {
    /// Creates a monitor from per-user preferences and clusters whose
    /// virtual users carry the *exact* common preference relations
    /// (FilterThenVerify).
    pub fn new(preferences: Vec<Preference>, clusters: &[Cluster]) -> Self {
        Self::from_core(ClusterCore::fixed(preferences, clusters, None))
    }

    /// Creates a monitor backed by an incrementally maintained
    /// [`Clustering`] over the same users: [`Self::add_user`] then joins
    /// the most similar cluster (or spins up a singleton) and
    /// [`Self::remove_user`] repairs only the affected cluster, both
    /// through the clustering's compiled intersect path.
    pub fn with_clustering(preferences: Vec<Preference>, clustering: Clustering) -> Self {
        Self::from_core(ClusterCore::maintained(preferences, clustering, None))
    }

    /// Creates a monitor whose virtual users carry *approximate* common
    /// preference relations built with Alg. 3 under `config`
    /// (FilterThenVerifyApprox).
    pub fn with_approx_clusters(
        preferences: Vec<Preference>,
        clusters: &[Cluster],
        config: ApproxConfig,
    ) -> Self {
        Self::from_core(ClusterCore::fixed(preferences, clusters, Some(config)))
    }

    /// Like [`Self::with_clustering`], but the virtual preferences are the
    /// approximate common relations of Alg. 3 (FilterThenVerifyApprox with
    /// dynamic membership).
    pub fn with_approx_clustering(
        preferences: Vec<Preference>,
        clustering: Clustering,
        config: ApproxConfig,
    ) -> Self {
        Self::from_core(ClusterCore::maintained(
            preferences,
            clustering,
            Some(config),
        ))
    }

    /// Creates a monitor with explicitly provided virtual-user preferences,
    /// one per cluster. Useful for tests and ablations.
    pub fn with_virtual_preferences(
        preferences: Vec<Preference>,
        clusters: Vec<(Vec<UserId>, Preference)>,
    ) -> Self {
        Self::from_core(ClusterCore::build(preferences, clusters, None, None))
    }

    fn from_core(core: ClusterCore<()>) -> Self {
        Self {
            core,
            history: History::new(HistoryMode::Unlimited),
            stats: MonitorStats::new(),
            timers: MonitorTimers::disabled(),
        }
    }

    /// Sets the history retention mode — in particular
    /// [`HistoryMode::Compact`], which keeps
    /// [`Self::add_user`]/[`Self::update_user`] backfill exact for every
    /// preference the monitor has ever observed while retaining only the
    /// skyline union (see [`crate::history`] for the full contract and the
    /// novel-preference caveat). Call right after construction — any
    /// already-retained history is discarded. The current users'
    /// preferences seed the compaction universe.
    pub fn with_history(mut self, mode: HistoryMode) -> Self {
        self.history = History::new(mode);
        for user in self.core.users() {
            self.history.observe(user.preference.as_ref());
        }
        self
    }

    /// Number of retained history objects (for cap observability).
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Lifetime count of history objects dropped by compaction or its cap.
    pub fn history_evicted(&self) -> u64 {
        self.history.evicted()
    }

    /// The retained history object ids, ascending (observability/tests).
    pub fn retained_history_ids(&self) -> Vec<ObjectId> {
        self.history.retained_ids()
    }

    /// Forces a compaction sweep of the retained history right now (no-op
    /// unless built with [`HistoryMode::Compact`]).
    pub fn compact_history_now(&mut self) {
        self.history.compact_now();
    }

    /// Number of clusters (`k` in the paper's cost model).
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

    /// The cluster-level ("virtual user") frontier `P_U`, sorted by id.
    pub fn cluster_frontier(&self, cluster: usize) -> Vec<ObjectId> {
        self.core.cluster_frontier(cluster)
    }

    /// The virtual preference used by a cluster (common or approximate).
    pub fn virtual_preference(&self, cluster: usize) -> &Preference {
        &self.core.clusters()[cluster].virtual_preference
    }

    /// The member users of a cluster.
    pub fn cluster_members(&self, cluster: usize) -> &[UserId] {
        &self.core.clusters()[cluster].members
    }
}

// Membership changes leave the changed clusters' `P_U` as it is: any set
// of alive objects filtered under the new common relation is a sound
// filter — rejection still implies dominance for every member — and
// exactness rests on the per-member verify step (Lemma 4.6), not on `P_U`
// being the exact cluster frontier.
impl ContinuousMonitor for FilterThenVerifyMonitor {
    fn process(&mut self, object: Object) -> Arrival {
        let timer = self.timers.arrival.clone();
        timed(timer.as_ref(), || {
            let mut deltas = DeltaLog::new();
            let targets = self.core.arrive(&object, &mut self.stats, &mut deltas);
            self.stats.record_arrival(targets.len());
            let id = object.id();
            self.history.push(object);
            Arrival {
                object: id,
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
        // Widen the compaction universe before the replay (see
        // `crate::history` for the novel-preference caveat).
        self.history.observe(&preference);
        let timer = self.timers.backfill.clone();
        let (history, stats) = (&self.history, &mut self.stats);
        let (user, _) = self.core.add_user(&preference, |compiled| {
            timed(timer.as_ref(), || {
                backfill_frontier(history, compiled, stats)
            })
        });
        user
    }

    fn update_user(&mut self, user: UserId, preference: Preference) {
        // Rebuild the user's own frontier by replaying the retained history
        // under the new preference (exact for compacting histories unless
        // the preference is genuinely novel, best-effort once a hard cap
        // has bitten).
        self.history.observe(&preference);
        let timer = self.timers.backfill.clone();
        let (history, stats) = (&self.history, &mut self.stats);
        self.core.update_user(user, &preference, |compiled| {
            timed(timer.as_ref(), || {
                backfill_frontier(history, compiled, stats)
            })
        });
    }

    fn remove_user(&mut self, user: UserId) -> Option<UserId> {
        self.core.remove_user(user).0
    }

    fn observe_preference(&mut self, preference: &Preference) {
        self.history.observe(preference);
    }

    fn set_timers(&mut self, timers: MonitorTimers) {
        self.history.set_sweep_timer(timers.sweep.clone());
        self.timers = timers;
    }

    fn stats(&self) -> MonitorStats {
        let mut stats = self.stats;
        self.history.report_gauges(&mut stats);
        self.core.report_gauges(&mut stats);
        stats
    }

    fn export_state(&self) -> MonitorState {
        MonitorState {
            history: Some(self.history.export_state()),
            window: None,
            stats: self.stats,
        }
    }

    fn import_state(&mut self, state: MonitorState) {
        if let Some(history) = state.history {
            self.history.import_state(history);
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
    use crate::baseline::BaselineMonitor;
    use pm_cluster::{cluster_users, ClusteringConfig, ExactMeasure};
    use pm_model::{AttrId, ValueId};

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    fn obj(id: u64, vals: &[u32]) -> Object {
        Object::new(ObjectId::new(id), vals.iter().map(|&x| v(x)).collect())
    }

    /// Same laptop users as the baseline tests (Tables 1 & 2, c1 and c2).
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

    fn laptop_objects() -> Vec<Object> {
        vec![
            obj(1, &[1, 0, 0]),
            obj(2, &[2, 0, 1]),
            obj(3, &[2, 2, 1]),
            obj(4, &[4, 4, 1]),
            obj(5, &[0, 2, 3]),
            obj(6, &[1, 3, 0]),
            obj(7, &[0, 1, 3]),
            obj(8, &[1, 0, 1]),
            obj(9, &[4, 3, 0]),
            obj(10, &[0, 1, 2]),
            obj(11, &[0, 4, 2]),
            obj(12, &[0, 2, 2]),
            obj(13, &[2, 3, 1]),
            obj(14, &[3, 3, 0]),
        ]
    }

    fn one_cluster(users: &[Preference]) -> Vec<(Vec<UserId>, Preference)> {
        vec![(
            (0..users.len()).map(UserId::from).collect(),
            Preference::common_of(users.iter()),
        )]
    }

    #[test]
    fn matches_baseline_on_laptop_example() {
        let users = laptop_users();
        let mut baseline = BaselineMonitor::new(users.clone());
        let mut ftv =
            FilterThenVerifyMonitor::with_virtual_preferences(users.clone(), one_cluster(&users));
        for o in laptop_objects() {
            let a = baseline.process(o.clone());
            let b = ftv.process(o);
            assert_eq!(a.target_users, b.target_users, "object {}", a.object);
        }
        for u in 0..users.len() {
            assert_eq!(
                baseline.frontier(UserId::from(u)),
                ftv.frontier(UserId::from(u))
            );
        }
    }

    #[test]
    fn example_4_8_cluster_frontier_and_o15() {
        let users = laptop_users();
        let mut ftv =
            FilterThenVerifyMonitor::with_virtual_preferences(users.clone(), one_cluster(&users));
        for o in laptop_objects() {
            ftv.process(o);
        }
        // Before o15, P_U ⊇ P_c1 ∪ P_c2 (Theorem 4.5).
        let pu = ftv.cluster_frontier(0);
        for u in 0..users.len() {
            for o in ftv.frontier(UserId::from(u)) {
                assert!(pu.contains(&o), "P_U must contain {o} of user {u}");
            }
        }
        // o15 is filtered through the cluster and targets only c2.
        let arrival = ftv.process(obj(15, &[3, 1, 3]));
        assert_eq!(arrival.target_users, vec![UserId::new(1)]);
        // o16 is dominated at the cluster level: no verification reaches users.
        let comparisons_before = ftv.stats().comparisons;
        let arrival16 = ftv.process(obj(16, &[3, 4, 0]));
        assert!(arrival16.target_users.is_empty());
        // The filter rejected o16, so at most |P_U| comparisons were spent on
        // it and none per user.
        let spent = ftv.stats().comparisons - comparisons_before;
        assert!(spent <= ftv.cluster_frontier(0).len() as u64 + 1);
    }

    #[test]
    fn theorem_4_5_cluster_frontier_superset_invariant() {
        let users = laptop_users();
        let mut ftv =
            FilterThenVerifyMonitor::with_virtual_preferences(users.clone(), one_cluster(&users));
        for o in laptop_objects() {
            ftv.process(o);
            let pu = ftv.cluster_frontier(0);
            for u in 0..users.len() {
                for id in ftv.frontier(UserId::from(u)) {
                    assert!(pu.contains(&id));
                }
            }
        }
    }

    #[test]
    fn clustering_pipeline_matches_baseline() {
        let users = laptop_users();
        let outcome = cluster_users(
            &users,
            ClusteringConfig::Exact {
                measure: ExactMeasure::WeightedJaccard,
                branch_cut: 0.0,
            },
        );
        let mut baseline = BaselineMonitor::new(users.clone());
        let mut ftv = FilterThenVerifyMonitor::new(users.clone(), &outcome.clusters);
        for o in laptop_objects() {
            let a = baseline.process(o.clone());
            let b = ftv.process(o);
            assert_eq!(a.target_users, b.target_users);
        }
        for u in 0..users.len() {
            assert_eq!(
                baseline.frontier(UserId::from(u)),
                ftv.frontier(UserId::from(u))
            );
        }
    }

    #[test]
    fn singleton_clusters_degenerate_to_baseline() {
        let users = laptop_users();
        let clusters: Vec<(Vec<UserId>, Preference)> = users
            .iter()
            .enumerate()
            .map(|(i, p)| (vec![UserId::from(i)], p.clone()))
            .collect();
        let mut baseline = BaselineMonitor::new(users.clone());
        let mut ftv = FilterThenVerifyMonitor::with_virtual_preferences(users.clone(), clusters);
        for o in laptop_objects() {
            let a = baseline.process(o.clone());
            let b = ftv.process(o);
            assert_eq!(a.target_users, b.target_users);
        }
    }

    #[test]
    fn approx_clusters_give_subset_frontiers() {
        // Theorem 6.5 / Lemma 6.6: with approximate common preferences the
        // per-user frontiers can only lose objects, never gain ones outside
        // the exact frontier union... more precisely P̂_c ⊆ P̂_U ⊆ P_U.
        let users = laptop_users();
        let outcome = cluster_users(
            &users,
            ClusteringConfig::Exact {
                measure: ExactMeasure::WeightedJaccard,
                branch_cut: 0.0,
            },
        );
        let mut exact = FilterThenVerifyMonitor::new(users.clone(), &outcome.clusters);
        let mut approx = FilterThenVerifyMonitor::with_approx_clusters(
            users.clone(),
            &outcome.clusters,
            ApproxConfig::new(64, 0.4),
        );
        for o in laptop_objects() {
            exact.process(o.clone());
            approx.process(o);
        }
        let exact_pu = exact.cluster_frontier(0);
        let approx_pu = approx.cluster_frontier(0);
        for id in &approx_pu {
            assert!(exact_pu.contains(id), "P̂_U ⊆ P_U violated at {id}");
        }
        for u in 0..users.len() {
            let approx_pc = approx.frontier(UserId::from(u));
            for id in &approx_pc {
                assert!(approx_pu.contains(id), "P̂_c ⊆ P̂_U violated at {id}");
            }
        }
    }

    #[test]
    fn approx_with_total_support_matches_exact() {
        // θ2 = 1.0 keeps only true common preference tuples, so the
        // approximate monitor degenerates to the exact one.
        let users = laptop_users();
        let outcome = cluster_users(
            &users,
            ClusteringConfig::Exact {
                measure: ExactMeasure::Jaccard,
                branch_cut: 0.0,
            },
        );
        let mut exact = FilterThenVerifyMonitor::new(users.clone(), &outcome.clusters);
        let mut approx = FilterThenVerifyMonitor::with_approx_clusters(
            users.clone(),
            &outcome.clusters,
            ApproxConfig::new(1024, 1.0),
        );
        for o in laptop_objects() {
            let a = exact.process(o.clone());
            let b = approx.process(o);
            assert_eq!(a.target_users, b.target_users);
        }
    }

    #[test]
    fn filter_saves_comparisons_compared_to_baseline() {
        let users = laptop_users();
        let mut baseline = BaselineMonitor::new(users.clone());
        let mut ftv =
            FilterThenVerifyMonitor::with_virtual_preferences(users.clone(), one_cluster(&users));
        let mut objects = laptop_objects();
        objects.push(obj(15, &[3, 1, 3]));
        objects.push(obj(16, &[3, 4, 0]));
        for o in objects {
            baseline.process(o.clone());
            ftv.process(o);
        }
        // The point of the filter is fewer per-user comparisons for objects
        // rejected at the cluster level; with only two users the totals are
        // close, so just require the filter not to blow up the cost.
        assert!(ftv.stats().comparisons <= 2 * baseline.stats().comparisons);
        assert_eq!(ftv.num_clusters(), 1);
        assert_eq!(ftv.cluster_members(0).len(), 2);
        assert!(ftv.virtual_preference(0).total_pairs() > 0);
    }

    #[test]
    fn dynamic_membership_stays_exact_with_maintained_clustering() {
        use pm_cluster::Clustering;
        let users = laptop_users();
        let clustering = Clustering::new(&users, ExactMeasure::Jaccard, 0.2);
        let mut ftv = FilterThenVerifyMonitor::with_clustering(users.clone(), clustering);
        let objects = laptop_objects();
        // Half the stream, then register a third user (same prefs as c1).
        for o in &objects[..7] {
            ftv.process(o.clone());
        }
        let added = ftv.add_user(users[0].clone());
        assert_eq!(added, UserId::new(2));
        for o in &objects[7..] {
            ftv.process(o.clone());
        }
        // The backfilled + continued frontier equals a from-start baseline.
        let mut baseline =
            BaselineMonitor::new(vec![users[0].clone(), users[1].clone(), users[0].clone()]);
        for o in &objects {
            baseline.process(o.clone());
        }
        for u in 0..3usize {
            assert_eq!(
                ftv.frontier(UserId::from(u)),
                baseline.frontier(UserId::from(u)),
                "user {u}"
            );
        }
        // Every cluster's common relation is the intersection of its
        // members' preferences, and no cluster is empty.
        let prefs = [users[0].clone(), users[1].clone(), users[0].clone()];
        for k in 0..ftv.num_clusters() {
            let members = ftv.cluster_members(k).to_vec();
            assert!(!members.is_empty());
            let expected = Preference::common_of(members.iter().map(|m| &prefs[m.index()]));
            let got = ftv.virtual_preference(k);
            for attr in 0..expected.arity() {
                let attr = pm_model::AttrId::from(attr);
                let want: std::collections::HashSet<_> = expected.relation(attr).pairs().collect();
                let have: std::collections::HashSet<_> = got.relation(attr).pairs().collect();
                assert_eq!(have, want, "cluster {k} attribute {attr}");
            }
        }
        // Unregister c2 (user 1): user 2 is renumbered to 1 and results
        // still match a baseline over the surviving users.
        assert_eq!(ftv.remove_user(UserId::new(1)), Some(UserId::new(2)));
        let arrival = ftv.process(obj(15, &[3, 1, 3]));
        let mut survivors = BaselineMonitor::new(vec![users[0].clone(), users[0].clone()]);
        let mut all = objects.clone();
        all.push(obj(15, &[3, 1, 3]));
        let mut expected_arrival = None;
        for o in &all {
            expected_arrival = Some(survivors.process(o.clone()));
        }
        assert_eq!(arrival, expected_arrival.unwrap());
        for u in 0..2usize {
            assert_eq!(
                ftv.frontier(UserId::from(u)),
                survivors.frontier(UserId::from(u)),
                "user {u}"
            );
        }
    }

    #[test]
    fn update_user_with_maintained_clustering_stays_exact() {
        use pm_cluster::Clustering;
        let users = laptop_users();
        // A branch cut of 0.2 keeps c1 and c2 clustered together.
        let clustering = Clustering::new(&users, ExactMeasure::Jaccard, 0.2);
        let mut ftv = FilterThenVerifyMonitor::with_clustering(users.clone(), clustering);
        let objects = laptop_objects();
        for o in &objects[..7] {
            ftv.process(o.clone());
        }
        // c1 adopts c2's preference mid-stream (in place, id 0 unchanged).
        ftv.update_user(UserId::new(0), users[1].clone());
        assert_eq!(ftv.num_users(), 2);
        for o in &objects[7..] {
            ftv.process(o.clone());
        }
        // Frontiers match a from-start baseline over the final preferences.
        let mut baseline = BaselineMonitor::new(vec![users[1].clone(), users[1].clone()]);
        for o in &objects {
            baseline.process(o.clone());
        }
        for u in 0..2usize {
            assert_eq!(
                ftv.frontier(UserId::from(u)),
                baseline.frontier(UserId::from(u)),
                "user {u}"
            );
        }
        // Cluster invariants hold: common = intersection, no empty cluster.
        let prefs = [users[1].clone(), users[1].clone()];
        for k in 0..ftv.num_clusters() {
            let members = ftv.cluster_members(k).to_vec();
            assert!(!members.is_empty());
            let expected = Preference::common_of(members.iter().map(|m| &prefs[m.index()]));
            let got = ftv.virtual_preference(k);
            for attr in 0..expected.arity() {
                let attr = pm_model::AttrId::from(attr);
                let want: std::collections::HashSet<_> = expected.relation(attr).pairs().collect();
                let have: std::collections::HashSet<_> = got.relation(attr).pairs().collect();
                assert_eq!(have, want, "cluster {k} attribute {attr}");
            }
        }
    }

    #[test]
    fn update_that_leaves_the_cluster_moves_without_renumbering() {
        use pm_cluster::Clustering;
        let users = vec![laptop_users()[0].clone(), laptop_users()[0].clone()];
        // Identical preferences cluster together under any sane cut.
        let clustering = Clustering::new(&users, ExactMeasure::Jaccard, 0.5);
        let mut ftv = FilterThenVerifyMonitor::with_clustering(users.clone(), clustering);
        assert_eq!(ftv.num_clusters(), 1);
        for o in laptop_objects() {
            ftv.process(o);
        }
        // User 1 switches to a preference over values nobody else mentions:
        // similarity collapses, the user moves out into a singleton.
        let mut alien = Preference::new(3);
        alien.prefer(a(0), v(40), v(41));
        ftv.update_user(UserId::new(1), alien.clone());
        assert_eq!(ftv.num_clusters(), 2);
        assert_eq!(ftv.num_users(), 2);
        // No renumbering: user 0 still holds its original preference.
        assert_eq!(
            ftv.preference(UserId::new(0)).total_pairs(),
            users[0].total_pairs()
        );
        assert_eq!(ftv.preference(UserId::new(1)).total_pairs(), 1);
        // Both users' frontiers match a from-start baseline.
        let mut baseline = BaselineMonitor::new(vec![users[0].clone(), alien]);
        for o in laptop_objects() {
            baseline.process(o);
        }
        for u in 0..2usize {
            assert_eq!(
                ftv.frontier(UserId::from(u)),
                baseline.frontier(UserId::from(u)),
                "user {u}"
            );
        }
    }

    #[test]
    fn update_on_hand_built_clusters_stays_put_and_exact() {
        let users = laptop_users();
        let mut ftv =
            FilterThenVerifyMonitor::with_virtual_preferences(users.clone(), one_cluster(&users));
        let objects = laptop_objects();
        for o in &objects[..7] {
            ftv.process(o.clone());
        }
        ftv.update_user(UserId::new(1), users[0].clone());
        assert_eq!(ftv.num_clusters(), 1);
        for o in &objects[7..] {
            ftv.process(o.clone());
        }
        let mut baseline = BaselineMonitor::new(vec![users[0].clone(), users[0].clone()]);
        for o in &objects {
            baseline.process(o.clone());
        }
        for u in 0..2usize {
            assert_eq!(
                ftv.frontier(UserId::from(u)),
                baseline.frontier(UserId::from(u)),
                "user {u}"
            );
        }
    }

    #[test]
    fn history_cap_applies_to_update_backfill() {
        let users = laptop_users();
        let mut ftv =
            FilterThenVerifyMonitor::with_virtual_preferences(users.clone(), one_cluster(&users))
                .with_history(HistoryMode::Compact { cap: Some(3) });
        for o in laptop_objects() {
            ftv.process(o);
        }
        assert_eq!(ftv.history_len(), 3);
        // No sweep has run yet, so the cap kept the newest objects: the
        // update replays only the retained suffix (ids 12..=14).
        ftv.update_user(UserId::new(0), users[1].clone());
        for id in ftv.frontier(UserId::new(0)) {
            assert!(id.raw() >= 12, "backfill saw a truncated object {id}");
        }
    }

    #[test]
    fn compacting_history_keeps_ftv_backfill_exact_for_observed_preferences() {
        let users = laptop_users();
        let mut ftv =
            FilterThenVerifyMonitor::with_virtual_preferences(users.clone(), one_cluster(&users))
                .with_history(crate::history::HistoryMode::Compact { cap: None });
        let mut reference = BaselineMonitor::new(users.clone());
        for o in laptop_objects() {
            ftv.process(o.clone());
            reference.process(o);
        }
        ftv.compact_history_now();
        assert!(ftv.history_len() < 14, "compaction must drop something");
        assert!(ftv.history_evicted() > 0);
        // Registering a user with an observed preference backfills exactly
        // against the full stream, and an in-place update to the other
        // observed preference does too.
        let added = ftv.add_user(users[0].clone());
        let ref_added = reference.add_user(users[0].clone());
        assert_eq!(ftv.frontier(added), reference.frontier(ref_added));
        ftv.update_user(UserId::new(1), users[0].clone());
        reference.update_user(UserId::new(1), users[0].clone());
        assert_eq!(
            ftv.frontier(UserId::new(1)),
            reference.frontier(UserId::new(1))
        );
        let stats = ftv.stats();
        assert_eq!(stats.history_objects, ftv.history_len() as u64);
        assert_eq!(stats.history_evicted, ftv.history_evicted());
    }

    #[test]
    fn empty_cluster_list_yields_no_targets() {
        let users = laptop_users();
        let mut ftv = FilterThenVerifyMonitor::with_virtual_preferences(users, vec![]);
        let arrival = ftv.process(obj(1, &[1, 0, 0]));
        assert!(arrival.target_users.is_empty());
        assert_eq!(ftv.num_clusters(), 0);
    }
}
