//! The per-preference bucket table shared by the two baseline monitors
//! (Alg. 1 and Alg. 4).
//!
//! Identical preferences induce identical frontiers — and identical
//! Def. 7.4 buffers — because both depend only on the preference relations
//! and the alive objects. The table therefore groups users into *buckets*,
//! one per distinct preference, each carrying the monitor's per-preference
//! state `S` (a frontier for Alg. 1; a frontier plus buffer for Alg. 4).
//! Preference identity comes from the [`PreferenceInterner`]: every user
//! holds one reference on its interned preference, and the interner slot
//! names the bucket twins join.

use std::collections::HashMap;

use pm_model::UserId;
use pm_porder::{CompiledPreference, Interned, Preference, PreferenceInterner};

/// One bucket: a preference, the users holding it and their shared state.
#[derive(Debug, Clone)]
pub(crate) struct Bucket<S> {
    /// The interned preference (build-time and compiled forms).
    pub(crate) preference: Interned,
    /// Users holding this preference, in registration order.
    pub(crate) members: Vec<UserId>,
    /// The per-preference monitoring state every member shares.
    pub(crate) state: S,
}

/// Users → buckets of equal preferences, with O(1) swap-remove renumbering
/// of users and buckets alike.
#[derive(Debug, Clone)]
pub(crate) struct BucketTable<S> {
    interner: PreferenceInterner,
    buckets: Vec<Bucket<S>>,
    /// User index → bucket index.
    user_bucket: Vec<usize>,
    /// Interner slot → the bucket twins of that preference join. A caller
    /// that opts out of sharing may hold further buckets of the same slot;
    /// those are never joined.
    by_slot: HashMap<u32, usize>,
}

impl<S> BucketTable<S> {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self {
            interner: PreferenceInterner::new(),
            buckets: Vec::new(),
            user_bucket: Vec::new(),
            by_slot: HashMap::new(),
        }
    }

    /// Registers a new user holding `preference` and returns its id (the
    /// next free one). With `share`, the user joins the bucket already
    /// holding an equal preference; otherwise, or when there is none, a new
    /// bucket opens with the state `open` builds from the compiled form.
    pub(crate) fn add(
        &mut self,
        preference: &Preference,
        share: bool,
        open: impl FnOnce(&CompiledPreference) -> S,
    ) -> UserId {
        let user = UserId::from(self.user_bucket.len());
        let interned = self.interner.intern(preference);
        let bucket = self.place(user, interned, share, open);
        self.user_bucket.push(bucket);
        user
    }

    /// Moves `user` to `preference`, keeping its id. With `share`, an
    /// unchanged preference is a no-op — the shared state already is the
    /// replay outcome — and a changed one joins an existing twin bucket
    /// when there is one; otherwise a new bucket opens as in [`Self::add`].
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub(crate) fn update(
        &mut self,
        user: UserId,
        preference: &Preference,
        share: bool,
        open: impl FnOnce(&CompiledPreference) -> S,
    ) {
        let idx = user.index();
        assert!(idx < self.user_bucket.len(), "user {user} out of range");
        // Intern before releasing the old reference so an unchanged or
        // twin preference never recompiles.
        let interned = self.interner.intern(preference);
        if share && interned.id == self.buckets[self.user_bucket[idx]].preference.id {
            self.interner.release(interned.id);
            return;
        }
        // Leave the old bucket first — it may die, shifting bucket indices.
        self.detach(idx);
        self.user_bucket[idx] = self.place(user, interned, share, open);
    }

    /// Removes `user` in swap-remove fashion (see
    /// [`crate::ContinuousMonitor::remove_user`]), returning the previously
    /// last user's old id when it was renumbered to `user`.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub(crate) fn remove(&mut self, user: UserId) -> Option<UserId> {
        let idx = user.index();
        assert!(idx < self.user_bucket.len(), "user {user} out of range");
        self.detach(idx);
        let last = self.user_bucket.len() - 1;
        self.user_bucket.swap_remove(idx);
        if idx == last {
            return None;
        }
        let moved = UserId::from(last);
        for member in &mut self.buckets[self.user_bucket[idx]].members {
            if *member == moved {
                *member = user;
            }
        }
        Some(moved)
    }

    /// Adds `user` to a twin bucket (when sharing) or a new one, returning
    /// its index.
    fn place(
        &mut self,
        user: UserId,
        preference: Interned,
        share: bool,
        open: impl FnOnce(&CompiledPreference) -> S,
    ) -> usize {
        if share {
            if let Some(&bucket) = self.by_slot.get(&preference.id) {
                self.buckets[bucket].members.push(user);
                return bucket;
            }
        }
        let bucket = self.buckets.len();
        let state = open(&preference.compiled);
        self.by_slot.entry(preference.id).or_insert(bucket);
        self.buckets.push(Bucket {
            preference,
            members: vec![user],
            state,
        });
        bucket
    }

    /// Takes user `idx` out of its bucket and releases its preference,
    /// dropping the bucket when its last member leaves (swap-remove; the
    /// moved bucket's slot entry and members are repointed).
    /// `user_bucket[idx]` is stale afterwards — the caller reassigns or
    /// discards it.
    fn detach(&mut self, idx: usize) {
        let b = self.user_bucket[idx];
        let user = UserId::from(idx);
        let bucket = &mut self.buckets[b];
        bucket.members.retain(|&member| member != user);
        self.interner.release(bucket.preference.id);
        if !bucket.members.is_empty() {
            return;
        }
        let slot = bucket.preference.id;
        if self.by_slot.get(&slot) == Some(&b) {
            self.by_slot.remove(&slot);
        }
        self.buckets.swap_remove(b);
        let last = self.buckets.len();
        if let Some(moved) = self.buckets.get(b) {
            if let Some(entry) = self.by_slot.get_mut(&moved.preference.id) {
                if *entry == last {
                    *entry = b;
                }
            }
            for member in &moved.members {
                self.user_bucket[member.index()] = b;
            }
        }
    }

    /// The bucket of `user`.
    pub(crate) fn bucket_of(&self, user: UserId) -> &Bucket<S> {
        &self.buckets[self.user_bucket[user.index()]]
    }

    /// Every bucket, for per-arrival maintenance.
    pub(crate) fn buckets_mut(&mut self) -> &mut [Bucket<S>] {
        &mut self.buckets
    }

    /// Number of buckets (= maintained per-preference states).
    pub(crate) fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Number of registered users.
    pub(crate) fn num_users(&self) -> usize {
        self.user_bucket.len()
    }

    /// Heap bytes of the distinct preferences and their compiled forms.
    pub(crate) fn preference_bytes(&self) -> u64 {
        self.interner.approx_bytes() as u64
    }

    /// The registered preferences in user-id order.
    pub(crate) fn member_preferences(&self) -> Vec<Preference> {
        self.user_bucket
            .iter()
            .map(|&b| self.buckets[b].preference.preference.as_ref().clone())
            .collect()
    }
}
