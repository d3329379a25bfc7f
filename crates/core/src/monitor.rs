//! The common interface implemented by every monitoring algorithm.

use pm_model::{Object, ObjectId, UserId};
use pm_porder::Preference;

use crate::delta::FrontierDelta;
use crate::stats::MonitorStats;
use crate::timers::MonitorTimers;

/// The result of processing one arriving object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// The id of the processed object.
    pub object: ObjectId,
    /// The target users `C_o`: every user for whom the object is
    /// Pareto-optimal at arrival time, in ascending user-id order.
    pub target_users: Vec<UserId>,
    /// The net frontier membership changes this arrival caused (the arriving
    /// object entering target users' frontiers, dominated objects leaving,
    /// and — for sliding-window monitors — the expiry and Def. 7.4 mending
    /// that ride on the same arrival), in canonical `(user, object)` order.
    /// See [`crate::delta`] for the canonical-form guarantees.
    pub deltas: Vec<FrontierDelta>,
}

impl Arrival {
    /// Whether the object was Pareto-optimal for at least one user.
    pub fn has_targets(&self) -> bool {
        !self.target_users.is_empty()
    }
}

/// The portion of a compacting (or linear) ingested history that must
/// survive a crash: the retained objects, the preferences whose frontiers
/// gate eviction, and the lazy-sweep bookkeeping counters.
///
/// Exported by [`crate::History::export_state`] and restored verbatim by
/// [`crate::History::import_state`] — no sweep runs during import, so the
/// retained set (and therefore every later sweep decision) evolves exactly
/// as it would have in an uninterrupted run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryState {
    /// Every preference absorbed into the eviction universe, in the order
    /// it was first observed (empty for non-compacting histories).
    pub observed: Vec<Preference>,
    /// The retained objects in ascending object-id order. For a compacting
    /// history this is the flattened group content — duplicates appear once
    /// per retaining id, so id-list multiplicity round-trips.
    pub objects: Vec<Object>,
    /// Pushes since the last lazy sweep (compact mode only).
    pub pending: u64,
    /// Objects dropped by sweeps or caps since construction.
    pub evicted: u64,
}

/// A monitor's durable state, exported for snapshots and restored on
/// recovery. Exactly one of `history` / `window` is populated: append-only
/// monitors persist their ingested [`crate::History`], sliding-window
/// monitors persist the window content (their state is a pure function of
/// the preferences and the last `W` objects in arrival order).
#[derive(Debug, Clone, Default)]
pub struct MonitorState {
    /// Ingested-history state (append-only monitors).
    pub history: Option<HistoryState>,
    /// Window content, oldest first (sliding-window monitors).
    pub window: Option<Vec<Object>>,
    /// Work counters at export time. Only the four stream counters
    /// (arrivals, expirations, comparisons, notifications) are meaningful;
    /// history gauges are recomputed live after import.
    pub stats: MonitorStats,
}

/// A continuous Pareto-frontier monitor.
///
/// Implementations differ in how much computation they share across users
/// (none for the baseline, cluster-level filtering for FilterThenVerify) and
/// in whether objects expire (sliding-window variants), but they expose the
/// same interface so that experiments can swap them freely.
pub trait ContinuousMonitor {
    /// Processes one arriving object and returns its target users.
    fn process(&mut self, object: Object) -> Arrival;

    /// The current Pareto frontier of `user`, in ascending object-id order.
    fn frontier(&self, user: UserId) -> Vec<ObjectId>;

    /// Number of users served by this monitor.
    fn num_users(&self) -> usize;

    /// Registers a new user mid-stream, assigning the next local user id
    /// (equal to [`Self::num_users`] before the call) and returning it.
    ///
    /// The user's state is backfilled from the currently *alive* objects —
    /// append-only monitors replay the retained ingested history,
    /// sliding-window monitors replay the window — so the user's frontier
    /// is identical to that of a monitor built with the user present from
    /// the start, restricted to the alive objects. With a compacting
    /// history ([`crate::HistoryMode::Compact`]) the replay is exact for
    /// every preference the monitor has ever observed (and best-effort for
    /// a genuinely novel one); with a hard cap on top it is best-effort
    /// once the cap bites. Backfilling reports no notifications; only
    /// genuine arrivals do.
    fn add_user(&mut self, preference: Preference) -> UserId;

    /// Removes `user` in O(1) swap-remove fashion: the user with the
    /// highest local id (when different from `user`) is renumbered to
    /// `user`'s id. Returns the renumbered user's previous id, or `None`
    /// when `user` already held the highest id.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    fn remove_user(&mut self, user: UserId) -> Option<UserId>;

    /// Replaces `user`'s preference **in place**, keeping its local id (no
    /// swap-remove, no renumbering of any user).
    ///
    /// The user's frontier is repaired by replay under the new preference —
    /// append-only monitors replay the retained object history (exact when
    /// the history is unlimited or compacting over observed preferences,
    /// documented best-effort once a hard cap has bitten or the new
    /// preference is genuinely novel to a compacting history), sliding
    /// monitors replay the window (frontier plus the Def. 7.4 Pareto
    /// buffer). Cluster-based monitors additionally
    /// repair the user's cluster: the user stays put when its new relations
    /// still fit, else it is moved, without touching any other user's state.
    /// Like registration backfill, the replay reports no notifications.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    fn update_user(&mut self, user: UserId, preference: Preference);

    /// Observes a preference *without* registering a user for it: monitors
    /// with a compacting history ([`crate::HistoryMode::Compact`]) widen
    /// their eviction universe so no later sweep drops an object this
    /// preference's frontier needs. A sharded engine broadcasts every
    /// registered/updated preference to all shards through this hook, so
    /// the compaction universe is global even though each shard only owns
    /// a slice of the users. Monitors without a compacting history ignore
    /// the call (the default).
    fn observe_preference(&mut self, preference: &Preference) {
        let _ = preference;
    }

    /// Attaches latency timers ([`MonitorTimers`]): monitors that support
    /// instrumentation record per-arrival processing time, backfill-replay
    /// duration and compaction-sweep duration into the attached histograms
    /// from then on. The default ignores the call — a monitor without
    /// instrumentation still satisfies the trait, and hosts may always
    /// call this unconditionally.
    fn set_timers(&mut self, timers: MonitorTimers) {
        let _ = timers;
    }

    /// Work counters accumulated so far.
    fn stats(&self) -> MonitorStats;

    /// Exports the monitor's durable state for a snapshot. The default
    /// returns an empty [`MonitorState`] for monitors without durable
    /// state.
    fn export_state(&self) -> MonitorState {
        MonitorState::default()
    }

    /// Restores durable state exported by [`Self::export_state`] into a
    /// monitor that has **no users yet**: the history (or window) is
    /// installed verbatim, after which members are re-registered through
    /// [`Self::add_user`] so their frontiers backfill from the restored
    /// alive objects. Work counters are *not* restored here — call
    /// [`Self::restore_stats`] after re-registration so backfill replay
    /// does not pollute them. The default ignores the call.
    fn import_state(&mut self, state: MonitorState) {
        let _ = state;
    }

    /// Overwrites the four stream work counters (arrivals, expirations,
    /// comparisons, notifications) with snapshot-time values; history
    /// gauges keep being computed live. The default ignores the call.
    fn restore_stats(&mut self, stats: MonitorStats) {
        let _ = stats;
    }

    /// The registered preferences in local-user-id order, so a snapshot
    /// can pair each member with its preference. The default (for monitors
    /// that do not retain build preferences) returns an empty vector.
    fn member_preferences(&self) -> Vec<Preference> {
        Vec::new()
    }

    /// Convenience: processes a whole sequence of arrivals, returning one
    /// [`Arrival`] per object.
    fn process_all<I>(&mut self, objects: I) -> Vec<Arrival>
    where
        I: IntoIterator<Item = Object>,
        Self: Sized,
    {
        objects.into_iter().map(|o| self.process(o)).collect()
    }

    /// Convenience: the frontiers of all users, indexed by user id.
    fn all_frontiers(&self) -> Vec<Vec<ObjectId>>
    where
        Self: Sized,
    {
        (0..self.num_users())
            .map(|u| self.frontier(UserId::from(u)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_has_targets() {
        let a = Arrival {
            object: ObjectId::new(1),
            target_users: vec![UserId::new(0)],
            deltas: vec![FrontierDelta::enter(UserId::new(0), ObjectId::new(1))],
        };
        assert!(a.has_targets());
        let b = Arrival {
            object: ObjectId::new(2),
            target_users: vec![],
            deltas: vec![],
        };
        assert!(!b.has_targets());
    }
}
