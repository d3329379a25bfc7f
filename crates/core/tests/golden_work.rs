//! Golden per-monitor work: every monitor runs one seeded stream with
//! `add_user`/`update_user`/`remove_user` churn, and the exact work
//! counters plus a hash of every [`Arrival`] are pinned.
//!
//! Frontier scans visit objects in arrival order, so the comparison count
//! of an early-exit dominance scan is a deterministic function of the
//! stream. A refactor of the monitors' bookkeeping must reproduce these
//! values exactly; a change to the work done per arrival shows up here.

use pm_cluster::{ApproxConfig, Clustering, ExactMeasure};
use pm_core::{
    Arrival, BaselineMonitor, BaselineSwMonitor, ContinuousMonitor, FilterThenVerifyMonitor,
    FilterThenVerifySwMonitor,
};
use pm_model::{AttrId, Object, ObjectId, UserId, ValueId};
use pm_porder::Preference;

const ARITY: u32 = 3;
const DOMAIN: u32 = 6;
const WINDOW: usize = 24;
const BRANCH_CUT: f64 = 0.5;

/// splitmix64: a tiny seeded generator, stable across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random strict partial order per attribute: pairs are drawn only in
/// the direction of a random ranking, so no cycle can arise.
fn random_preference(rng: &mut Rng) -> Preference {
    let mut p = Preference::new(ARITY as usize);
    for attr in 0..ARITY {
        let mut rank: Vec<u32> = (0..DOMAIN).collect();
        for i in (1..rank.len()).rev() {
            rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for i in 0..rank.len() {
            for j in i + 1..rank.len() {
                if rng.below(3) == 0 {
                    p.prefer(
                        AttrId::new(attr),
                        ValueId::new(rank[i]),
                        ValueId::new(rank[j]),
                    );
                }
            }
        }
    }
    p
}

/// Six distinct preferences; users draw from this pool, so twins share
/// buckets and clusters.
fn pool(rng: &mut Rng) -> Vec<Preference> {
    (0..6).map(|_| random_preference(rng)).collect()
}

fn pick(rng: &mut Rng, pool: &[Preference]) -> Preference {
    pool[rng.below(pool.len() as u64) as usize].clone()
}

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn arrival(&mut self, arrival: &Arrival) {
        self.write(arrival.object.raw());
        self.write(arrival.target_users.len() as u64);
        for user in &arrival.target_users {
            self.write(user.raw() as u64);
        }
        self.write(arrival.deltas.len() as u64);
        for delta in &arrival.deltas {
            self.write(delta.user.raw() as u64);
            self.write(delta.object.raw());
            self.write(u64::from(delta.entered));
        }
    }
}

/// The pinned outcome of one run: comparisons, notifications, expirations
/// and a hash of every arrival plus the final frontiers.
type Work = (u64, u64, u64, u64);

/// Runs 400 arrivals with a membership change every 10th one, cycling
/// through add, update and remove.
fn run(monitor: &mut dyn ContinuousMonitor, seed: u64, pool: &[Preference]) -> Work {
    let mut rng = Rng(seed);
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for t in 0..400u64 {
        if t % 10 == 9 {
            let users = monitor.num_users() as u64;
            match (t / 10) % 3 {
                0 => {
                    let preference = if rng.below(4) == 0 {
                        random_preference(&mut rng)
                    } else {
                        pick(&mut rng, pool)
                    };
                    monitor.add_user(preference);
                }
                1 if users > 0 => {
                    let user = UserId::from(rng.below(users) as usize);
                    let preference = pick(&mut rng, pool);
                    monitor.update_user(user, preference);
                }
                2 if users > 1 => {
                    monitor.remove_user(UserId::from(rng.below(users) as usize));
                }
                _ => {}
            }
        }
        let values = (0..ARITY)
            .map(|_| ValueId::new(rng.below(u64::from(DOMAIN)) as u32))
            .collect();
        let arrival = monitor.process(Object::new(ObjectId::new(t), values));
        hash.arrival(&arrival);
    }
    for user in 0..monitor.num_users() {
        for id in monitor.frontier(UserId::from(user)) {
            hash.write(id.raw());
        }
    }
    let stats = monitor.stats();
    (
        stats.comparisons,
        stats.notifications,
        stats.expirations,
        hash.0,
    )
}

fn clustering(users: &[Preference]) -> Clustering {
    Clustering::new(users, ExactMeasure::Jaccard, BRANCH_CUT)
}

fn approx() -> ApproxConfig {
    ApproxConfig::new(8, 0.5)
}

type Build = fn(Vec<Preference>) -> Box<dyn ContinuousMonitor>;

#[test]
fn per_monitor_work_is_pinned() {
    let monitors: [(&str, Build, Work); 6] = [
        (
            "baseline",
            |users| Box::new(BaselineMonitor::new(users)),
            (66676, 1315, 0, 788792127772104594),
        ),
        (
            "baseline-sw",
            |users| Box::new(BaselineSwMonitor::new(users, WINDOW)),
            (113154, 3091, 376, 6491461675973969601),
        ),
        (
            "ftv",
            |users| {
                let clustering = clustering(&users);
                Box::new(FilterThenVerifyMonitor::with_clustering(users, clustering))
            },
            (145482, 1155, 0, 10170747341534532592),
        ),
        (
            "ftv-approx",
            |users| {
                let clustering = clustering(&users);
                Box::new(FilterThenVerifyMonitor::with_approx_clustering(
                    users,
                    clustering,
                    approx(),
                ))
            },
            (174782, 1471, 0, 149399414716426903),
        ),
        (
            "ftv-sw",
            |users| {
                let clustering = clustering(&users);
                Box::new(FilterThenVerifySwMonitor::with_clustering(
                    users, clustering, WINDOW,
                ))
            },
            (148151, 2760, 376, 2522083619792524034),
        ),
        (
            "ftv-approx-sw",
            |users| {
                let clustering = clustering(&users);
                Box::new(FilterThenVerifySwMonitor::with_approx_clustering(
                    users,
                    clustering,
                    approx(),
                    WINDOW,
                ))
            },
            (179726, 3483, 376, 10591290293500190717),
        ),
    ];
    for (i, (name, build, want)) in monitors.into_iter().enumerate() {
        // Each monitor draws its own population and stream.
        let mut rng = Rng(11 + i as u64);
        let pool = pool(&mut rng);
        let users = (0..12).map(|_| pick(&mut rng, &pool)).collect();
        let got = run(build(users).as_mut(), 101 + i as u64, &pool);
        assert_eq!(got, want, "{name}: per-monitor work changed");
    }
}
