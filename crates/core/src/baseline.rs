//! Algorithm 1 — `Baseline`: independent Pareto-frontier maintenance per
//! user.
//!
//! Upon the arrival of a new object `o`, the baseline compares `o` with the
//! current Pareto-optimal objects of every user, one user at a time. It is
//! correct and simple, but repeats the same comparisons for users with
//! similar preferences — the inefficiency the FilterThenVerify family
//! removes.

use std::collections::BTreeMap;

use pm_model::{Object, ObjectId, UserId};
use pm_porder::{CompiledPreference, Dominance, Preference};

use crate::buckets::BucketTable;
use crate::delta::DeltaLog;
use crate::history::{History, HistoryMode};
use crate::monitor::{Arrival, ContinuousMonitor, MonitorState};
use crate::stats::MonitorStats;
use crate::timers::{timed, MonitorTimers};

/// Per-user Pareto frontier: frontier objects are stored by value so no
/// shared catalog is needed and expired/dominated objects are dropped
/// eagerly. Keyed in id order — ids are arrival timestamps — so every scan
/// visits objects oldest first and the work counted by an early-exit scan
/// is a deterministic function of the stream.
pub(crate) type Frontier = BTreeMap<ObjectId, Object>;

/// The traced outcome of [`update_pareto_frontier_traced`]: whether the
/// object was Pareto-optimal, whether its insert created a *new* frontier
/// entry, and which existing entries it evicted — exactly the information
/// a delta log needs.
pub(crate) struct FrontierUpdate {
    pub(crate) is_pareto: bool,
    pub(crate) newly_inserted: bool,
    pub(crate) evicted: Vec<ObjectId>,
}

impl FrontierUpdate {
    /// Reports this update as `member`'s outcome for the arrival of
    /// `object`: evictions and a genuinely new insert go to the delta log,
    /// and a Pareto-optimal object makes the member a target.
    pub(crate) fn report(
        &self,
        member: UserId,
        object: ObjectId,
        deltas: &mut DeltaLog,
        targets: &mut Vec<UserId>,
    ) {
        for evicted in &self.evicted {
            deltas.leave(member, *evicted);
        }
        if self.newly_inserted {
            deltas.enter(member, object);
        }
        if self.is_pareto {
            targets.push(member);
        }
    }
}

/// The outcome of updating one user's frontier with a new object
/// (Procedure `updateParetoFrontier` of Alg. 1). Runs on the compiled
/// (bitset) preference form: every dominance test is word-indexed bit math.
pub(crate) fn update_pareto_frontier(
    preference: &CompiledPreference,
    frontier: &mut Frontier,
    object: &Object,
    stats: &mut MonitorStats,
) -> bool {
    update_pareto_frontier_traced(preference, frontier, object, stats).is_pareto
}

/// Like [`update_pareto_frontier`], but reports which frontier entries the
/// update evicted and whether the insert was genuinely new, for callers
/// that log frontier deltas (replay paths use the untraced wrapper: replay
/// reports no deltas, just as it reports no notifications).
pub(crate) fn update_pareto_frontier_traced(
    preference: &CompiledPreference,
    frontier: &mut Frontier,
    object: &Object,
    stats: &mut MonitorStats,
) -> FrontierUpdate {
    let mut is_pareto = true;
    let mut dominated: Vec<ObjectId> = Vec::new();
    for existing in frontier.values() {
        stats.record_comparison();
        match preference.compare(object, existing) {
            Dominance::Dominates => dominated.push(existing.id()),
            Dominance::DominatedBy => {
                is_pareto = false;
                dominated.clear();
                break;
            }
            Dominance::Identical => {
                // An identical object is Pareto-optimal as well (Alg. 1,
                // line 6); no existing object needs to be removed.
                break;
            }
            Dominance::Incomparable => {}
        }
    }
    let mut evicted = Vec::new();
    for id in dominated {
        if frontier.remove(&id).is_some() {
            evicted.push(id);
        }
    }
    let newly_inserted = is_pareto && frontier.insert(object.id(), object.clone()).is_none();
    FrontierUpdate {
        is_pareto,
        newly_inserted,
        evicted,
    }
}

/// Rebuilds one user's frontier by replaying the retained history under
/// `preference` — the backfill step of `add_user`/`update_user`, shared by
/// the baseline and FilterThenVerify monitors. Linear histories replay
/// object by object; compacting histories dominance-test one
/// representative per distinct value vector and, when it survives, admit
/// the whole id list at once (identical objects are frontier-equivalent,
/// Def. 3.2, and a later dominating arrival evicts every duplicate in one
/// frontier scan), saving a full comparison pass per duplicate.
pub(crate) fn backfill_frontier(
    history: &History,
    preference: &CompiledPreference,
    stats: &mut MonitorStats,
) -> Frontier {
    let mut frontier = Frontier::new();
    match history.grouped() {
        Some(groups) => {
            for (values, ids) in groups {
                let representative = Object::new(ids[0], values.to_vec());
                if update_pareto_frontier(preference, &mut frontier, &representative, stats) {
                    for &id in ids.iter().skip(1) {
                        frontier.insert(id, Object::new(id, values.to_vec()));
                    }
                }
            }
        }
        None => {
            for object in history.iter() {
                update_pareto_frontier(preference, &mut frontier, &object, stats);
            }
        }
    }
    frontier
}

/// Algorithm 1: the per-user baseline monitor.
///
/// Internally the monitor keeps a bucket table: each distinct preference
/// is compiled once and its Pareto frontier maintained once, with arrivals
/// expanded to every member for notification and delta purposes. Per-user
/// observable behavior is unchanged; the work and memory per arrival scale
/// with the number of *distinct* preferences (the paper's Sec. 4
/// shared-preference premise).
#[derive(Debug, Clone)]
pub struct BaselineMonitor {
    /// One frontier per distinct preference. Twins share a bucket unless a
    /// capped history keeps them apart (see [`Self::add_user`]).
    table: BucketTable<Frontier>,
    /// Retained object history for mid-stream registration/update backfill
    /// (see [`History`] for the cap semantics).
    history: History,
    stats: MonitorStats,
    /// Optional latency histograms (see [`MonitorTimers`]); disabled slots
    /// cost nothing.
    timers: MonitorTimers,
}

impl BaselineMonitor {
    /// Creates a monitor for the given users (indexed by [`UserId`]),
    /// compiling every distinct preference to its bitset form up front. The
    /// object history is unlimited; see [`Self::with_history`].
    pub fn new(preferences: Vec<Preference>) -> Self {
        Self::with_history(preferences, HistoryMode::Unlimited)
    }

    /// Like [`Self::new`], but with an explicit history retention mode —
    /// in particular [`HistoryMode::Compact`], which keeps
    /// [`Self::add_user`]/[`Self::update_user`] backfill exact for every
    /// preference the monitor has ever observed while retaining only the
    /// skyline union (see [`crate::history`] for the full contract and the
    /// novel-preference caveat).
    pub fn with_history(preferences: Vec<Preference>, mode: HistoryMode) -> Self {
        let mut table = BucketTable::new();
        let mut history = History::new(mode);
        for preference in &preferences {
            // Widen the compaction universe once per distinct preference,
            // not once per user.
            table.add(preference, true, |_| {
                history.observe(preference);
                Frontier::new()
            });
        }
        Self {
            table,
            history,
            stats: MonitorStats::new(),
            timers: MonitorTimers::disabled(),
        }
    }

    /// Whether twins may share a bucket on registration/update: replaying
    /// the retained history must provably reproduce the live twin frontier.
    /// True for unlimited and uncapped compacting histories (compaction
    /// never drops an object any *observed* preference's frontier needs);
    /// false under a compacting history's hard cap, where backfill is
    /// best-effort over the retained set and may legitimately differ from
    /// the live twin.
    fn lossless_history(&self) -> bool {
        matches!(
            self.history.mode(),
            HistoryMode::Unlimited | HistoryMode::Compact { cap: None }
        )
    }

    /// The preference of `user`.
    pub fn preference(&self, user: UserId) -> &Preference {
        &self.table.bucket_of(user).preference.preference
    }

    /// Number of distinct preferences currently monitored (= maintained
    /// frontiers).
    pub fn distinct_preferences(&self) -> usize {
        self.table.len()
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

    /// Forces a compaction sweep of the retained history right now
    /// (no-op unless the monitor was built with [`HistoryMode::Compact`];
    /// sweeps otherwise run automatically every few hundred arrivals).
    pub fn compact_history_now(&mut self) {
        self.history.compact_now();
    }
}

impl ContinuousMonitor for BaselineMonitor {
    fn process(&mut self, object: Object) -> Arrival {
        let timer = self.timers.arrival.clone();
        timed(timer.as_ref(), || {
            let mut targets = Vec::new();
            let mut deltas = DeltaLog::new();
            for bucket in self.table.buckets_mut() {
                // One frontier update per *distinct* preference, expanded
                // to every member: identical preferences have identical
                // frontiers, so the per-user outcome is exactly Alg. 1's.
                let update = update_pareto_frontier_traced(
                    &bucket.preference.compiled,
                    &mut bucket.state,
                    &object,
                    &mut self.stats,
                );
                for &member in &bucket.members {
                    update.report(member, object.id(), &mut deltas, &mut targets);
                }
            }
            targets.sort_unstable();
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
        self.table.bucket_of(user).state.keys().copied().collect()
    }

    fn num_users(&self) -> usize {
        self.table.num_users()
    }

    fn add_user(&mut self, preference: Preference) -> UserId {
        // Widen the compaction universe *before* any replay: from this
        // point on no sweep may evict an object this preference's frontier
        // needs (objects evicted before a genuinely novel preference
        // arrived are the documented caveat — see `crate::history`).
        self.history.observe(&preference);
        // With a lossless history a twin's live frontier IS what the replay
        // would produce: join its bucket in O(1) instead of backfilling.
        let share = self.lossless_history();
        let timer = self.timers.backfill.clone();
        let (history, stats) = (&self.history, &mut self.stats);
        self.table.add(&preference, share, |compiled| {
            timed(timer.as_ref(), || {
                backfill_frontier(history, compiled, stats)
            })
        })
    }

    fn update_user(&mut self, user: UserId, preference: Preference) {
        self.history.observe(&preference);
        let share = self.lossless_history();
        let timer = self.timers.backfill.clone();
        let (history, stats) = (&self.history, &mut self.stats);
        self.table.update(user, &preference, share, |compiled| {
            timed(timer.as_ref(), || {
                backfill_frontier(history, compiled, stats)
            })
        });
    }

    fn remove_user(&mut self, user: UserId) -> Option<UserId> {
        self.table.remove(user)
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
        stats.distinct_preferences = self.table.len() as u64;
        stats.preference_bytes = self.table.preference_bytes();
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
        self.table.member_preferences()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::ContinuousMonitor;
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

    /// The laptop example of Tables 1 & 2 (users c1 and c2).
    ///
    /// display: 9.9-under=0, 10-12.9=1, 13-15.9=2, 16-18.9=3, 19-up=4
    /// brand:   Apple=0, Lenovo=1, Samsung=2, Sony=3, Toshiba=4
    /// cpu:     single=0, dual=1, triple=2, quad=3
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
        // display: 13-15.9 ≻ {10-12.9, 16-18.9}, 16-18.9 ≻ 19-up ≻ 9.9-under,
        //          10-12.9 ≻ 9.9-under
        c2.prefer(a(0), v(2), v(1));
        c2.prefer(a(0), v(2), v(3));
        c2.prefer(a(0), v(3), v(4));
        c2.prefer(a(0), v(4), v(0));
        c2.prefer(a(0), v(1), v(0));
        // brand: Apple ≻ Toshiba, Lenovo ≻ Toshiba, Toshiba ≻ Sony,
        //        Lenovo ≻ Samsung
        c2.prefer(a(1), v(0), v(4));
        c2.prefer(a(1), v(1), v(4));
        c2.prefer(a(1), v(4), v(3));
        c2.prefer(a(1), v(1), v(2));
        // cpu: quad ≻ triple ≻ dual ≻ single
        c2.prefer(a(2), v(3), v(2));
        c2.prefer(a(2), v(2), v(1));
        c2.prefer(a(2), v(1), v(0));
        vec![c1, c2]
    }

    /// Objects o1–o14 of Table 1 (see `laptop_users` for the encoding).
    fn laptop_objects() -> Vec<Object> {
        vec![
            obj(1, &[1, 0, 0]),  // o1: 12, Apple, single
            obj(2, &[2, 0, 1]),  // o2: 14, Apple, dual
            obj(3, &[2, 2, 1]),  // o3: 15, Samsung, dual
            obj(4, &[4, 4, 1]),  // o4: 19, Toshiba, dual
            obj(5, &[0, 2, 3]),  // o5: 9, Samsung, quad
            obj(6, &[1, 3, 0]),  // o6: 11.5, Sony, single
            obj(7, &[0, 1, 3]),  // o7: 9.5, Lenovo, quad
            obj(8, &[1, 0, 1]),  // o8: 12.5, Apple, dual
            obj(9, &[4, 3, 0]),  // o9: 19.5, Sony, single
            obj(10, &[0, 1, 2]), // o10: 9.5, Lenovo, triple
            obj(11, &[0, 4, 2]), // o11: 9, Toshiba, triple
            obj(12, &[0, 2, 2]), // o12: 8.5, Samsung, triple
            obj(13, &[2, 3, 1]), // o13: 14.5, Sony, dual
            obj(14, &[3, 3, 0]), // o14: 17, Sony, single
        ]
    }

    #[test]
    fn example_3_5_frontiers_after_o1_to_o14() {
        let mut m = BaselineMonitor::new(laptop_users());
        for o in laptop_objects() {
            m.process(o);
        }
        assert_eq!(m.frontier(UserId::new(0)), vec![ObjectId::new(2)]);
        // Example 3.5 lists Pc2 after o15; before o15, c2's frontier also
        // contains o7 (9.5", Lenovo, quad) per Example 4.8.
        assert_eq!(
            m.frontier(UserId::new(1)),
            vec![ObjectId::new(2), ObjectId::new(3), ObjectId::new(7)]
        );
    }

    #[test]
    fn example_1_1_o15_targets_only_c2() {
        let mut m = BaselineMonitor::new(laptop_users());
        for o in laptop_objects() {
            m.process(o);
        }
        let arrival = m.process(obj(15, &[3, 1, 3])); // 16.5, Lenovo, quad
        assert_eq!(arrival.target_users, vec![UserId::new(1)]);
        assert_eq!(
            m.frontier(UserId::new(1)),
            vec![ObjectId::new(2), ObjectId::new(3), ObjectId::new(15)]
        );
        // o16 (16, Toshiba, single) is Pareto-optimal for nobody.
        let arrival16 = m.process(obj(16, &[3, 4, 0]));
        assert!(arrival16.target_users.is_empty());
    }

    #[test]
    fn frontiers_match_naive_oracle() {
        let users = laptop_users();
        let objects = laptop_objects();
        let mut m = BaselineMonitor::new(users.clone());
        for o in objects.clone() {
            m.process(o);
        }
        for (idx, pref) in users.iter().enumerate() {
            let mut oracle = pm_porder::naive_pareto_frontier(pref, &objects);
            oracle.sort_unstable();
            assert_eq!(m.frontier(UserId::from(idx)), oracle, "user {idx}");
        }
    }

    #[test]
    fn identical_objects_share_the_frontier() {
        let users = laptop_users();
        let mut m = BaselineMonitor::new(users);
        m.process(obj(1, &[2, 0, 1]));
        let arrival = m.process(obj(2, &[2, 0, 1]));
        assert_eq!(arrival.target_users.len(), 2);
        assert_eq!(
            m.frontier(UserId::new(0)),
            vec![ObjectId::new(1), ObjectId::new(2)]
        );
    }

    #[test]
    fn dominated_object_is_removed_later() {
        let users = laptop_users();
        let mut m = BaselineMonitor::new(users);
        // o1 is initially Pareto-optimal for everyone, o2 later replaces it
        // for c1 and c2 (scenario (ii) of Sec. 1).
        let a1 = m.process(obj(1, &[1, 0, 0]));
        assert_eq!(a1.target_users.len(), 2);
        m.process(obj(2, &[2, 0, 1]));
        assert_eq!(m.frontier(UserId::new(0)), vec![ObjectId::new(2)]);
        assert_eq!(m.frontier(UserId::new(1)), vec![ObjectId::new(2)]);
    }

    #[test]
    fn stats_count_arrivals_and_comparisons() {
        let mut m = BaselineMonitor::new(laptop_users());
        for o in laptop_objects() {
            m.process(o);
        }
        let stats = m.stats();
        assert_eq!(stats.arrivals, 14);
        assert!(stats.comparisons > 0);
        assert_eq!(stats.expirations, 0);
        assert!(stats.comparisons_per_arrival() > 0.0);
    }

    #[test]
    fn empty_user_set_accepts_objects() {
        let mut m = BaselineMonitor::new(vec![]);
        let arrival = m.process(obj(1, &[0, 0, 0]));
        assert!(arrival.target_users.is_empty());
        assert_eq!(m.num_users(), 0);
    }

    #[test]
    fn added_user_is_backfilled_from_the_full_history() {
        let users = laptop_users();
        let mut m = BaselineMonitor::new(vec![users[0].clone()]);
        for o in laptop_objects() {
            m.process(o);
        }
        // Register c2 mid-stream: its frontier must equal that of a monitor
        // that had c2 from the start.
        let added = m.add_user(users[1].clone());
        assert_eq!(added, UserId::new(1));
        let mut from_start = BaselineMonitor::new(users);
        for o in laptop_objects() {
            from_start.process(o);
        }
        assert_eq!(m.frontier(added), from_start.frontier(UserId::new(1)));
        // Subsequent arrivals notify the registered user normally.
        let arrival = m.process(obj(15, &[3, 1, 3]));
        assert_eq!(arrival.target_users, vec![UserId::new(1)]);
    }

    #[test]
    fn remove_user_swap_renumbers_the_last_user() {
        let users = laptop_users();
        let mut m = BaselineMonitor::new(users.clone());
        for o in laptop_objects() {
            m.process(o);
        }
        let c2_frontier = m.frontier(UserId::new(1));
        // Removing user 0 moves user 1 into slot 0.
        assert_eq!(m.remove_user(UserId::new(0)), Some(UserId::new(1)));
        assert_eq!(m.num_users(), 1);
        assert_eq!(m.frontier(UserId::new(0)), c2_frontier);
        // Removing the (now) last user returns None.
        assert_eq!(m.remove_user(UserId::new(0)), None);
        assert_eq!(m.num_users(), 0);
    }

    #[test]
    fn updated_user_matches_from_start_monitor_and_keeps_its_id() {
        let users = laptop_users();
        let mut m = BaselineMonitor::new(users.clone());
        for o in laptop_objects() {
            m.process(o);
        }
        // Swap c1's preference for c2's mid-stream: the frontier must equal
        // that of a monitor built with c2's preference from the start, and
        // neither user's id moves.
        m.update_user(UserId::new(0), users[1].clone());
        assert_eq!(m.num_users(), 2);
        let mut from_start = BaselineMonitor::new(vec![users[1].clone(), users[1].clone()]);
        for o in laptop_objects() {
            from_start.process(o);
        }
        assert_eq!(
            m.frontier(UserId::new(0)),
            from_start.frontier(UserId::new(0))
        );
        assert_eq!(
            m.frontier(UserId::new(1)),
            from_start.frontier(UserId::new(1))
        );
        // Subsequent arrivals run against the new preference.
        let arrival = m.process(obj(15, &[3, 1, 3]));
        assert_eq!(arrival.target_users, vec![UserId::new(0), UserId::new(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_of_unknown_user_panics() {
        let mut m = BaselineMonitor::new(laptop_users());
        m.update_user(UserId::new(9), Preference::new(3));
    }

    #[test]
    fn history_cap_bounds_memory_and_makes_backfill_best_effort() {
        let users = laptop_users();
        let mut capped = BaselineMonitor::with_history(
            vec![users[0].clone()],
            HistoryMode::Compact { cap: Some(4) },
        );
        let mut unlimited = BaselineMonitor::new(vec![users[0].clone()]);
        for o in laptop_objects() {
            capped.process(o.clone());
            unlimited.process(o);
        }
        assert_eq!(capped.history_len(), 4);
        assert_eq!(unlimited.history_len(), 14);
        // Live frontiers are unaffected by the cap: only backfill is.
        assert_eq!(
            capped.frontier(UserId::new(0)),
            unlimited.frontier(UserId::new(0))
        );
        // No sweep has run yet, so the cap keeps the newest 4 objects. A
        // late registration backfills from the retained suffix only: it
        // sees every retained true-frontier object, and every object it
        // reports is from the retained suffix (ids 11..=14 here).
        let added = capped.add_user(users[1].clone());
        let reference = unlimited.add_user(users[1].clone());
        let best_effort = capped.frontier(added);
        let exact = unlimited.frontier(reference);
        for id in &exact {
            if id.raw() > 10 {
                assert!(
                    best_effort.contains(id),
                    "retained frontier object {id} lost"
                );
            }
        }
        for id in &best_effort {
            assert!(id.raw() > 10, "backfill invented a truncated object {id}");
        }
    }

    #[test]
    fn compacting_history_keeps_backfill_exact_for_observed_preferences() {
        let users = laptop_users();
        // Both preferences are observed at construction; c2 then leaves.
        let mut compact =
            BaselineMonitor::with_history(users.clone(), HistoryMode::Compact { cap: None });
        let mut unlimited = BaselineMonitor::new(users.clone());
        compact.remove_user(UserId::new(1));
        unlimited.remove_user(UserId::new(1));
        for o in laptop_objects() {
            compact.process(o.clone());
            unlimited.process(o);
        }
        compact.compact_history_now();
        // Compaction genuinely dropped objects no observed preference needs.
        assert!(compact.history_len() < unlimited.history_len());
        assert!(compact.history_evicted() > 0);
        assert_eq!(
            compact.history_evicted(),
            (unlimited.history_len() - compact.history_len()) as u64
        );
        // Live frontiers are never affected by history retention.
        assert_eq!(
            compact.frontier(UserId::new(0)),
            unlimited.frontier(UserId::new(0))
        );
        // Re-registering the previously seen preference is backfilled
        // exactly — the universe never forgets a preference.
        let a_compact = compact.add_user(users[1].clone());
        let a_unlimited = unlimited.add_user(users[1].clone());
        assert_eq!(compact.frontier(a_compact), unlimited.frontier(a_unlimited));
        // An in-place update to the other observed preference is exact too.
        compact.update_user(UserId::new(0), users[1].clone());
        unlimited.update_user(UserId::new(0), users[1].clone());
        assert_eq!(
            compact.frontier(UserId::new(0)),
            unlimited.frontier(UserId::new(0))
        );
        // The stats gauges surface the retained size and the savings.
        let stats = compact.stats();
        assert_eq!(stats.history_objects, compact.history_len() as u64);
        assert_eq!(stats.history_evicted, compact.history_evicted());
    }

    #[test]
    fn compacting_history_retains_all_value_duplicates() {
        let users = laptop_users();
        let mut m = BaselineMonitor::with_history(
            vec![users[0].clone()],
            HistoryMode::Compact { cap: None },
        );
        // Three identical strong objects plus one dominated one.
        m.process(obj(1, &[2, 0, 1]));
        m.process(obj(2, &[2, 0, 1]));
        m.process(obj(3, &[2, 0, 1]));
        m.process(obj(4, &[1, 0, 0]));
        m.compact_history_now();
        let retained = m.retained_history_ids();
        assert!(
            retained.contains(&ObjectId::new(1))
                && retained.contains(&ObjectId::new(2))
                && retained.contains(&ObjectId::new(3)),
            "identical frontier objects must all survive: {retained:?}"
        );
        // A late registration of the same preference reports all three.
        let added = m.add_user(users[0].clone());
        assert_eq!(
            m.frontier(added),
            vec![ObjectId::new(1), ObjectId::new(2), ObjectId::new(3)]
        );
    }

    #[test]
    fn compact_hard_cap_bounds_memory_best_effort() {
        let users = laptop_users();
        let mut m =
            BaselineMonitor::with_history(users.clone(), HistoryMode::Compact { cap: Some(4) });
        for o in laptop_objects() {
            m.process(o);
        }
        assert!(m.history_len() <= 4, "hard cap must bound the retained set");
        // Backfill still works (best-effort once the cap bit): every
        // reported object is genuinely retained.
        let added = m.add_user(users[1].clone());
        let retained = m.retained_history_ids();
        for id in m.frontier(added) {
            assert!(retained.contains(&id));
        }
    }

    #[test]
    fn twins_share_one_bucket_and_frontier() {
        let users = laptop_users();
        let population = vec![
            users[0].clone(),
            users[1].clone(),
            users[0].clone(),
            users[1].clone(),
        ];
        let mut m = BaselineMonitor::new(population);
        assert_eq!(m.distinct_preferences(), 2);
        for o in laptop_objects() {
            m.process(o);
        }
        assert_eq!(m.frontier(UserId::new(0)), m.frontier(UserId::new(2)));
        assert_eq!(m.frontier(UserId::new(1)), m.frontier(UserId::new(3)));
        let stats = m.stats();
        assert_eq!(stats.distinct_preferences, 2);
        assert!(stats.preference_bytes > 0);
        // A late twin joins its bucket in O(1) — no new frontier appears.
        let added = m.add_user(users[0].clone());
        assert_eq!(m.distinct_preferences(), 2);
        assert_eq!(m.frontier(added), m.frontier(UserId::new(0)));
        // An update onto the other existing preference coalesces buckets …
        m.update_user(UserId::new(2), users[1].clone());
        assert_eq!(m.distinct_preferences(), 2);
        assert_eq!(m.frontier(UserId::new(2)), m.frontier(UserId::new(1)));
        // … and an update onto a novel preference splits one off.
        m.update_user(UserId::new(3), Preference::new(3));
        assert_eq!(m.distinct_preferences(), 3);
        // Targets stay per-user and sorted.
        let arrival = m.process(obj(15, &[3, 1, 3]));
        let mut sorted = arrival.target_users.clone();
        sorted.sort_unstable();
        assert_eq!(arrival.target_users, sorted);
        // Removing the last holder of a preference drops its bucket.
        while m.num_users() > 0 {
            m.remove_user(UserId::new(0));
        }
        assert_eq!(m.distinct_preferences(), 0);
    }

    #[test]
    fn truncating_history_keeps_late_twins_exact_to_the_suffix() {
        let users = laptop_users();
        let mut m = BaselineMonitor::with_history(
            vec![users[0].clone()],
            HistoryMode::Compact { cap: Some(4) },
        );
        for o in laptop_objects() {
            m.process(o);
        }
        // Under a hard cap that truncated the oldest objects (no sweep has
        // run yet) a late twin must NOT inherit the live
        // frontier: its documented contract is the exact frontier of the
        // retained suffix (ids 11..=14 here), so it gets its own bucket.
        let added = m.add_user(users[0].clone());
        assert_eq!(m.distinct_preferences(), 2);
        for id in m.frontier(added) {
            assert!(id.raw() > 10, "backfill invented a truncated object {id}");
        }
        assert_ne!(m.frontier(added), m.frontier(UserId::new(0)));
    }

    #[test]
    fn user_with_empty_preference_keeps_everything() {
        let mut m = BaselineMonitor::new(vec![Preference::new(3)]);
        for o in laptop_objects() {
            let arrival = m.process(o);
            assert_eq!(arrival.target_users, vec![UserId::new(0)]);
        }
        assert_eq!(m.frontier(UserId::new(0)).len(), 14);
    }
}
