//! The cluster core shared by the two FilterThenVerify monitors (Alg. 2
//! and Alg. 5).
//!
//! Both algorithms group users into clusters of similar preferences. Each
//! cluster `U` is represented by a *virtual user* whose preference is the
//! common relation of the members (Def. 4.1) or its approximation
//! (Alg. 3), and keeps a shared frontier `P_U` that by Theorem 4.5 is a
//! sound filter: an arriving object dominated within `P_U` is dominated
//! for every member. The monitors differ only in what else a cluster keeps
//! — the sliding monitor adds the Def. 7.4 buffer `PB_U`, the type
//! parameter `B` — and in how they repair a cluster whose virtual
//! preference changed, so [`ClusterCore`] holds everything else: the
//! interned users and their frontiers, the clusters, the maintained
//! [`Clustering`] and the approx config. Its membership calls report which
//! clusters' virtual preferences changed and leave the repair to the
//! caller.

use pm_cluster::{
    approx_common_preference, ApproxConfig, Cluster, Clustering, Placement, Removal, Update,
};
use pm_model::{Object, ObjectId, UserId};
use pm_porder::{CompiledPreference, Dominance, Interned, Preference, PreferenceInterner};

use crate::baseline::{update_pareto_frontier_traced, Frontier};
use crate::delta::DeltaLog;
use crate::stats::MonitorStats;

/// One cluster: its members and the virtual user's preference and state.
#[derive(Debug, Clone)]
pub(crate) struct ClusterState<B> {
    pub(crate) members: Vec<UserId>,
    /// Build-time form of the virtual user's preference (introspection).
    pub(crate) virtual_preference: Preference,
    /// Bitset form the filter (and, sliding, the mend and buffer scans)
    /// runs on.
    pub(crate) compiled: CompiledPreference,
    /// `P_U`: the cluster-level frontier.
    pub(crate) frontier: Frontier,
    /// Per-monitor extra state: the buffer `PB_U` of the sliding monitor.
    pub(crate) buffer: B,
}

impl<B: Default> ClusterState<B> {
    fn new(members: Vec<UserId>, virtual_preference: Preference, frontier: Frontier) -> Self {
        Self {
            members,
            compiled: virtual_preference.compile(),
            virtual_preference,
            frontier,
            buffer: B::default(),
        }
    }
}

impl<B> ClusterState<B> {
    /// Procedure `updateParetoFrontierU` (Alg. 2; Alg. 5, line 9): filters
    /// `object` through `P_U`. Entries the object dominates leave `P_U` and
    /// — since `o ≻_U o'` implies `o ≻_c o'` for every member (Def. 4.1) —
    /// every member's frontier. Returns whether the object survives (and
    /// has joined `P_U`).
    fn filter(
        &mut self,
        user_frontiers: &mut [Frontier],
        object: &Object,
        stats: &mut MonitorStats,
        deltas: &mut DeltaLog,
    ) -> bool {
        let mut dominated: Vec<ObjectId> = Vec::new();
        for existing in self.frontier.values() {
            stats.record_comparison();
            match self.compiled.compare(object, existing) {
                Dominance::Dominates => dominated.push(existing.id()),
                Dominance::DominatedBy => return false,
                // Identical or incomparable objects stay; identical objects
                // are resolved per user during verification.
                Dominance::Identical | Dominance::Incomparable => {}
            }
        }
        for id in &dominated {
            self.frontier.remove(id);
            for member in &self.members {
                if user_frontiers[member.index()].remove(id).is_some() {
                    deltas.leave(*member, *id);
                }
            }
        }
        self.frontier.insert(object.id(), object.clone());
        true
    }
}

/// Users, clusters and clustering state of a FilterThenVerify monitor.
#[derive(Debug, Clone)]
pub(crate) struct ClusterCore<B> {
    /// Per-user interned preference handles: build-time and bitset forms
    /// are shared `Arc`s, one per *distinct* preference.
    users: Vec<Interned>,
    /// Deduplicates the users' preferences so memory and compilation scale
    /// with the number of distinct preferences, not the population size.
    interner: PreferenceInterner,
    user_frontiers: Vec<Frontier>,
    clusters: Vec<ClusterState<B>>,
    /// Incrementally maintained clustering driving dynamic membership.
    /// `None` for cores built from fixed cluster lists, which fall back to
    /// singleton insertion and `common_of` repair.
    clustering: Option<Clustering>,
    /// Alg. 3 thresholds when the virtual preferences are approximate:
    /// membership changes then rebuild the affected cluster's virtual
    /// preference with Alg. 3 instead of the exact intersection.
    approx: Option<ApproxConfig>,
}

impl<B: Default> ClusterCore<B> {
    /// A core over fixed `clusters`: their exact common relations, or the
    /// Alg. 3 approximations under `approx`.
    pub(crate) fn fixed(
        preferences: Vec<Preference>,
        clusters: &[Cluster],
        approx: Option<ApproxConfig>,
    ) -> Self {
        let clusters = virtual_clusters(&preferences, clusters, approx);
        Self::build(preferences, clusters, None, approx)
    }

    /// A core backed by an incrementally maintained [`Clustering`] over the
    /// same users: registration joins the most similar cluster (or spins up
    /// a singleton) and removal repairs only the affected cluster, both
    /// through the clustering's compiled intersect path.
    ///
    /// # Panics
    /// Panics if the clustering does not cover exactly `preferences`.
    pub(crate) fn maintained(
        preferences: Vec<Preference>,
        clustering: Clustering,
        approx: Option<ApproxConfig>,
    ) -> Self {
        assert_eq!(
            clustering.num_users(),
            preferences.len(),
            "clustering must cover exactly the monitor's users"
        );
        let clusters = virtual_clusters(&preferences, &clustering.clusters(), approx);
        Self::build(preferences, clusters, Some(clustering), approx)
    }

    /// A core over explicit `(members, virtual preference)` clusters.
    pub(crate) fn build(
        preferences: Vec<Preference>,
        clusters: Vec<(Vec<UserId>, Preference)>,
        clustering: Option<Clustering>,
        approx: Option<ApproxConfig>,
    ) -> Self {
        let mut interner = PreferenceInterner::new();
        let users: Vec<Interned> = preferences.iter().map(|p| interner.intern(p)).collect();
        Self {
            user_frontiers: vec![Frontier::new(); users.len()],
            users,
            interner,
            clusters: clusters
                .into_iter()
                .map(|(members, virtual_preference)| {
                    ClusterState::new(members, virtual_preference, Frontier::new())
                })
                .collect(),
            clustering,
            approx,
        }
    }

    /// Registers a user with the frontier `backfill` builds from its
    /// compiled preference and places it in a cluster. Returns the user's
    /// id and the cluster whose virtual preference changed: the joined
    /// cluster, or a new singleton whose `P_U` is a copy of the user's
    /// frontier.
    pub(crate) fn add_user(
        &mut self,
        preference: &Preference,
        backfill: impl FnOnce(&CompiledPreference) -> Frontier,
    ) -> (UserId, usize) {
        let user = UserId::from(self.users.len());
        let interned = self.interner.intern(preference);
        self.user_frontiers.push(backfill(&interned.compiled));
        self.users.push(interned);
        let placement = match self.clustering.as_mut() {
            Some(clustering) => clustering.insert_user(user, preference),
            None => Placement::Singleton {
                cluster: self.clusters.len(),
            },
        };
        (user, self.place(user, placement))
    }

    /// Replaces `user`'s preference and frontier (rebuilt by `backfill`)
    /// in place and repairs the clustering: the user stays put with a
    /// re-AND-folded common relation, or moves via local repair and
    /// re-insertion. Returns the clusters whose virtual preference changed,
    /// in repair order.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub(crate) fn update_user(
        &mut self,
        user: UserId,
        preference: &Preference,
        backfill: impl FnOnce(&CompiledPreference) -> Frontier,
    ) -> Vec<usize> {
        let idx = user.index();
        assert!(idx < self.users.len(), "user {user} out of range");
        // Intern the new preference before releasing the old handle so an
        // update within the same distinct preference never recompiles.
        let interned = self.interner.intern(preference);
        self.user_frontiers[idx] = backfill(&interned.compiled);
        let old = std::mem::replace(&mut self.users[idx], interned);
        self.interner.release(old.id);
        match self
            .clustering
            .as_mut()
            .map(|c| c.update_user(user, preference))
        {
            Some(Update::Stayed { cluster, common }) => {
                self.refresh(cluster, Some(common));
                vec![cluster]
            }
            Some(Update::Moved {
                from_cluster,
                from_common,
                to,
            }) => {
                self.clusters[from_cluster].members.retain(|&m| m != user);
                self.refresh(from_cluster, Some(from_common));
                vec![from_cluster, self.place(user, to)]
            }
            // Without a maintained clustering there is no branch cut to
            // judge by: the user stays in its cluster, if it has one.
            None => {
                let cluster = self.cluster_of(user);
                if let Some(cluster) = cluster {
                    self.refresh(cluster, None);
                }
                cluster.into_iter().collect()
            }
        }
    }

    /// Removes `user` in swap-remove fashion (see
    /// [`crate::ContinuousMonitor::remove_user`]) and repairs its cluster.
    /// Returns the renumbered user's previous id, if any, and the cluster
    /// whose virtual preference changed — none when the user's cluster
    /// dissolved.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub(crate) fn remove_user(&mut self, user: UserId) -> (Option<UserId>, Option<usize>) {
        let idx = user.index();
        assert!(idx < self.users.len(), "user {user} out of range");
        let shrunk = match self.clustering.as_mut() {
            Some(clustering) => match clustering.remove_user(user) {
                Removal::Dissolved { cluster } => {
                    self.clusters.swap_remove(cluster);
                    None
                }
                Removal::Shrunk { cluster, common } => Some((cluster, Some(common))),
            },
            None => match self.cluster_of(user) {
                Some(cluster) if self.clusters[cluster].members.len() == 1 => {
                    self.clusters.swap_remove(cluster);
                    None
                }
                other => other.map(|cluster| (cluster, None)),
            },
        };
        let changed = shrunk.map(|(cluster, common)| {
            self.clusters[cluster].members.retain(|&m| m != user);
            self.refresh(cluster, common);
            cluster
        });
        let last = self.users.len() - 1;
        let old = self.users.swap_remove(idx);
        self.interner.release(old.id);
        self.user_frontiers.swap_remove(idx);
        if idx == last {
            return (None, changed);
        }
        // The previously-last user now answers to `user`.
        let moved = UserId::from(last);
        if let Some(clustering) = self.clustering.as_mut() {
            clustering.rename_user(moved, user);
        }
        for cluster in &mut self.clusters {
            for member in &mut cluster.members {
                if *member == moved {
                    *member = user;
                }
            }
        }
        (Some(moved), changed)
    }

    /// Puts `user` where `placement` says, returning the cluster index.
    fn place(&mut self, user: UserId, placement: Placement) -> usize {
        match placement {
            Placement::Joined { cluster, common } => {
                self.clusters[cluster].members.push(user);
                self.refresh(cluster, Some(common));
                cluster
            }
            Placement::Singleton { cluster } => {
                debug_assert_eq!(cluster, self.clusters.len());
                let preference = self.users[user.index()].preference.as_ref().clone();
                let frontier = self.user_frontiers[user.index()].clone();
                self.clusters
                    .push(ClusterState::new(vec![user], preference, frontier));
                cluster
            }
        }
    }
}

impl<B> ClusterCore<B> {
    /// Recomputes one cluster's virtual preference after a membership or
    /// preference change: `exact_common` (from a maintained [`Clustering`])
    /// is used directly by exact cores, while approx cores (and hand-built
    /// exact ones, which have no maintained clustering) rebuild it from the
    /// members' current preferences. `P_U` is left to the caller.
    fn refresh(&mut self, cluster: usize, exact_common: Option<Preference>) {
        let virtual_preference = match (self.approx, exact_common) {
            (None, Some(common)) => common,
            (approx, _) => {
                let members = &self.clusters[cluster].members;
                let prefs = members
                    .iter()
                    .map(|m| self.users[m.index()].preference.as_ref());
                match approx {
                    Some(config) => approx_common_preference(prefs, config),
                    None => Preference::common_of(prefs),
                }
            }
        };
        let state = &mut self.clusters[cluster];
        state.compiled = virtual_preference.compile();
        state.virtual_preference = virtual_preference;
    }

    /// The cluster `user` belongs to (hand-built cores may leave a user
    /// unclustered).
    fn cluster_of(&self, user: UserId) -> Option<usize> {
        self.clusters
            .iter()
            .position(|cluster| cluster.members.contains(&user))
    }

    /// The arrival step shared by Alg. 2 and Alg. 5: every cluster filters
    /// `object` through `P_U`, and a survivor is verified against each
    /// member's own preference and frontier. Returns the target users in
    /// ascending order.
    pub(crate) fn arrive(
        &mut self,
        object: &Object,
        stats: &mut MonitorStats,
        deltas: &mut DeltaLog,
    ) -> Vec<UserId> {
        let mut targets = Vec::new();
        for cluster in &mut self.clusters {
            if !cluster.filter(&mut self.user_frontiers, object, stats, deltas) {
                continue;
            }
            for &member in &cluster.members {
                update_pareto_frontier_traced(
                    &self.users[member.index()].compiled,
                    &mut self.user_frontiers[member.index()],
                    object,
                    stats,
                )
                .report(member, object.id(), deltas, &mut targets);
            }
        }
        targets.sort_unstable();
        targets
    }

    /// The users' interned preferences, in user-id order.
    pub(crate) fn users(&self) -> &[Interned] {
        &self.users
    }

    /// The clusters.
    pub(crate) fn clusters(&self) -> &[ClusterState<B>] {
        &self.clusters
    }

    /// The users, their frontiers and the clusters, for the monitor's own
    /// frontier and buffer maintenance. Slices, so that membership changes
    /// only through the core.
    pub(crate) fn split_mut(&mut self) -> (&[Interned], &mut [Frontier], &mut [ClusterState<B>]) {
        (&self.users, &mut self.user_frontiers, &mut self.clusters)
    }

    /// The preference of `user`.
    pub(crate) fn preference(&self, user: UserId) -> &Preference {
        &self.users[user.index()].preference
    }

    /// The frontier of `user`, in ascending id order.
    pub(crate) fn frontier(&self, user: UserId) -> Vec<ObjectId> {
        self.user_frontiers[user.index()].keys().copied().collect()
    }

    /// The cluster-level frontier `P_U`, in ascending id order.
    pub(crate) fn cluster_frontier(&self, cluster: usize) -> Vec<ObjectId> {
        self.clusters[cluster].frontier.keys().copied().collect()
    }

    /// Number of distinct preferences across the current users.
    pub(crate) fn distinct_preferences(&self) -> usize {
        self.interner.distinct()
    }

    /// Fills the preference gauges of a monitor's `stats`.
    pub(crate) fn report_gauges(&self, stats: &mut MonitorStats) {
        stats.distinct_preferences = self.interner.distinct() as u64;
        stats.preference_bytes = self.interner.approx_bytes() as u64;
    }

    /// The registered preferences in user-id order.
    pub(crate) fn member_preferences(&self) -> Vec<Preference> {
        self.users
            .iter()
            .map(|u| u.preference.as_ref().clone())
            .collect()
    }
}

/// The `(members, virtual preference)` list for `clusters`: the exact
/// common relations they carry, or Alg. 3 approximations under `approx`.
fn virtual_clusters(
    preferences: &[Preference],
    clusters: &[Cluster],
    approx: Option<ApproxConfig>,
) -> Vec<(Vec<UserId>, Preference)> {
    clusters
        .iter()
        .map(|c| {
            let virtual_preference = match approx {
                Some(config) => approx_common_preference(
                    c.members.iter().map(|u| &preferences[u.index()]),
                    config,
                ),
                None => c.common.clone(),
            };
            (c.members.clone(), virtual_preference)
        })
        .collect()
}
