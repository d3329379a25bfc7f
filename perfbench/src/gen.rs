//! Workload definitions and seeded input generation.
//!
//! Every input the program under test receives is generated here from the
//! run's seed: the user population (preferences), the fresh object stream
//! and the open-loop request schedule. The same seed yields the same
//! inputs byte for byte.

use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::BackendSpec;
use pm_model::{Object, ObjectId, ValueId};
use pm_porder::Preference;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the program under test is deployed for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// One `pm-server --node` with `shards` shard threads.
    Single { shards: usize },
    /// `pm-coord` in front of `nodes` `pm-server --node --wal-dir`
    /// processes with `shards` shard threads each.
    Cluster { nodes: usize, shards: usize },
}

/// One benchmark workload: deployment, input shape and load plan.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: &'static str,
    pub deploy: Deploy,
    /// Registered population size.
    pub users: usize,
    /// `Some(k)`: preferences drawn Zipf(`skew`) from a pool of `k`
    /// prototypes; `None`: one derived preference per user.
    pub distinct: Option<usize>,
    pub skew: f64,
    /// Users subscribed on the event connection (the first ones).
    pub subscribed: usize,
    /// Objects ingested (batched) during set-up to fill the window.
    pub warm: usize,
    /// Objects of the closed-loop phase (batched, one batch in flight).
    pub closed: usize,
    /// Open-loop `INGEST` rates (objects/s), ascending; steps [`LOW`] and
    /// [`HIGH`] are the fixed-rate points.
    pub ladder: &'static [f64],
    /// Share of open-loop requests that are `FRONTIER`/`QUERY` reads and
    /// `REGISTER`/`UPDATE`/`UNREGISTER` membership changes; the rest are
    /// single-object `INGEST`s. A workload whose mix has no reads (or no
    /// membership changes) times them in a closed-loop probe after the
    /// ladder instead.
    pub read_share: f64,
    pub churn_share: f64,
    /// The `ingest_p99_ms` limit a ladder step must meet.
    pub limit_ms: f64,
}

/// Ladder steps of the two fixed-rate points reported on their own, at
/// about 20% and 40% of the knee the ladder finds on an unloaded 2-core
/// host: the host's speed halves at times, and a point nearer the knee
/// then measures an overload, not the program.
pub const LOW: usize = 0;
pub const HIGH: usize = 1;

/// Objects per `INGEST` in the warm and closed phases.
pub const BATCH: usize = 20;

/// Open-loop rounds per run: each round runs the `low` and `high` points
/// and climbs the ladder above them until a step misses the limit.
/// Reported figures are medians over rounds, so a slow spell of the host
/// moves one round, not the run.
pub const ROUNDS: usize = 4;

impl Spec {
    /// Ladder step weights within a round: the `low` and `high` points run
    /// twice as long as the steps above them, since their latencies are
    /// reported on their own.
    fn weight(&self, k: usize) -> f64 {
        if k <= HIGH {
            2.0
        } else {
            1.0
        }
    }

    /// Duration of ladder step `k` in a run measuring `seconds`.
    pub fn step_seconds(&self, seconds: f64, k: usize) -> f64 {
        let total: f64 = (0..self.ladder.len()).map(|k| self.weight(k)).sum();
        seconds / ROUNDS as f64 * self.weight(k) / total
    }

    /// Ingest objects the open-loop phase can consume at most.
    pub fn open_ingests_max(&self, seconds: f64) -> usize {
        let per_round: usize = self
            .ladder
            .iter()
            .enumerate()
            .map(|(k, r)| (r * self.step_seconds(seconds, k)).ceil() as usize + 1)
            .sum();
        per_round * ROUNDS
    }

    /// Share of open-loop requests that are `INGEST`s.
    pub fn ingest_share(&self) -> f64 {
        1.0 - self.read_share - self.churn_share
    }

    /// The backend as the server parses it.
    pub fn backend_spec(&self) -> BackendSpec {
        BackendSpec::parse(self.backend).expect("workload backends parse")
    }

    /// Sliding-window size of the backend (`None` for append-only).
    pub fn window(&self) -> Option<usize> {
        match self.backend_spec() {
            BackendSpec::BaselineSw { window }
            | BackendSpec::FilterThenVerifySw { window, .. }
            | BackendSpec::FilterThenVerifyApproxSw { window, .. } => Some(window),
            _ => None,
        }
    }

    /// Whether the backend is exact (target sets must equal the
    /// reference): the baselines and append-only FTV (Lemma 4.6). The
    /// others are approximate; recall and precision are reported.
    pub fn exact(&self) -> bool {
        matches!(
            self.backend_spec(),
            BackendSpec::Baseline { .. }
                | BackendSpec::BaselineSw { .. }
                | BackendSpec::FilterThenVerify { .. }
        )
    }
}

/// The three workloads, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Spec> {
    vec![
        Spec {
            name: "window-shared",
            why: "monitor-bound: Zipf-shared preferences over a full sliding window",
            backend: "ftv-sw:0.4:400",
            deploy: Deploy::Single { shards: 2 },
            users: 600,
            distinct: Some(128),
            skew: 1.1,
            subscribed: 32,
            warm: 400,
            closed: 400,
            ladder: &[80.0, 150.0, 230.0, 310.0, 390.0, 470.0, 550.0],
            read_share: 0.0,
            churn_share: 0.0,
            limit_ms: 100.0,
        },
        Spec {
            name: "append-distinct",
            why: "kernel, append-only history and FTV filter with one user per preference",
            backend: "ftv:0.4",
            deploy: Deploy::Single { shards: 2 },
            users: 300,
            distinct: None,
            skew: 0.0,
            subscribed: 16,
            warm: 0,
            closed: 1_500,
            ladder: &[70.0, 130.0, 190.0, 250.0, 310.0, 370.0, 430.0],
            read_share: 0.0,
            churn_share: 0.0,
            limit_ms: 100.0,
        },
        Spec {
            name: "serve-churn",
            why: "serving layers: coordinator, reactor, WAL and membership churn around a light monitor",
            backend: "ftv-sw:0.4:200",
            deploy: Deploy::Cluster { nodes: 2, shards: 1 },
            users: 100,
            distinct: None,
            skew: 0.0,
            subscribed: 100,
            warm: 200,
            closed: 600,
            ladder: &[100.0, 180.0, 280.0, 380.0, 480.0, 580.0, 680.0],
            read_share: 0.30,
            churn_share: 0.10,
            limit_ms: 50.0,
        },
    ]
}

/// Object arity of the movie profile.
pub const ARITY: usize = 4;

/// First id of users registered by the churn mix (base users are
/// `0..users`).
pub const CHURN_USER_BASE: u32 = 100_000;

/// The generated inputs of one run.
pub struct Inputs {
    /// Base population, registered in index order during set-up.
    pub population: Vec<Preference>,
    /// Spare preferences for churn `REGISTER`/`UPDATE` requests.
    pub spares: Vec<Preference>,
    /// Fresh objects: warm, then closed, then open-loop ingests, in order.
    /// Object ids are their positions (the server assigns ids in arrival
    /// order from 0).
    pub objects: Vec<Object>,
    /// Seed of the open-loop request-mix generator.
    pub mix_seed: u64,
}

/// Seed of every workload's user population. The population plays the
/// part of the paper's fixed real-world datasets: it is the same in every
/// run, while the run seed draws the object stream and the request mix.
/// Per-arrival cost depends mostly on a few heavy preferences, so
/// re-drawing the population per run would swamp every comparison
/// between commits with population-to-population variance.
pub const POPULATION_SEED: u64 = 2018;

/// Generates a run's inputs: the fixed population and, from `seed`, the
/// object stream and request mix.
pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
    let spare_count = 64;
    let base = DatasetProfile::movie();
    let profile = match spec.distinct {
        Some(k) => base.with_distinct_preferences(k, spec.skew),
        None => base,
    }
    .with_users(spec.users + spare_count);
    let dataset = Dataset::generate(&profile, POPULATION_SEED);
    let mut population = dataset.preferences;
    let spares = population.split_off(spec.users);

    // Fresh, never-cycled objects from a stream of their own: ids follow
    // arrival order exactly as the server assigns them.
    let needed = spec.warm + spec.closed + spec.open_ingests_max(seconds) + 64;
    let stream_profile = DatasetProfile::movie()
        .with_users(1)
        .with_interactions(1)
        .with_objects(needed);
    let objects = Dataset::generate(&stream_profile, seed ^ 0x5EED_0B1E)
        .objects
        .into_iter()
        .enumerate()
        .map(|(i, o)| Object::new(ObjectId::from(i), o.values().to_vec()))
        .collect();
    Inputs {
        population,
        spares,
        objects,
        mix_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE,
    }
}

/// One open-loop request, before object ids are known.
#[derive(Debug, Clone, PartialEq)]
pub enum Planned {
    Ingest,
    Frontier(u32),
    /// `QUERY` of the object ingested `back` ingests ago (clamped).
    Query {
        back: usize,
    },
    Register {
        user: u32,
        spare: usize,
    },
    Update {
        user: u32,
        spare: usize,
    },
    Unregister {
        user: u32,
    },
}

/// Draws the open-loop request kinds. Churn keeps the subscribed base
/// users registered: `UPDATE` targets base users, while `REGISTER` and
/// `UNREGISTER` add and remove extra users above [`CHURN_USER_BASE`].
pub struct MixGen {
    rng: StdRng,
    users: u32,
    spares: usize,
    read_share: f64,
    churn_share: f64,
    next_churn_user: u32,
    live_churn: Vec<u32>,
}

impl MixGen {
    pub fn new(spec: &Spec, inputs: &Inputs) -> Self {
        Self {
            rng: StdRng::seed_from_u64(inputs.mix_seed),
            users: spec.users as u32,
            spares: inputs.spares.len(),
            read_share: spec.read_share,
            churn_share: spec.churn_share,
            next_churn_user: CHURN_USER_BASE,
            live_churn: Vec::new(),
        }
    }

    pub fn next(&mut self) -> Planned {
        let roll = self.rng.gen_range(0.0..1.0);
        if roll < self.read_share {
            if self.rng.gen_bool(0.5) {
                Planned::Frontier(self.rng.gen_range(0..self.users))
            } else {
                Planned::Query {
                    back: self.rng.gen_range(0..64usize),
                }
            }
        } else if roll < self.read_share + self.churn_share {
            let spare = self.rng.gen_range(0..self.spares);
            match self.rng.gen_range(0..3u32) {
                0 => {
                    let user = self.next_churn_user;
                    self.next_churn_user += 1;
                    self.live_churn.push(user);
                    Planned::Register { user, spare }
                }
                1 if !self.live_churn.is_empty() => {
                    let at = self.rng.gen_range(0..self.live_churn.len());
                    Planned::Unregister {
                        user: self.live_churn.swap_remove(at),
                    }
                }
                _ => Planned::Update {
                    user: self.rng.gen_range(0..self.users),
                    spare,
                },
            }
        } else {
            Planned::Ingest
        }
    }
}

/// `INGEST a,b,c,d;...` for a batch of objects.
pub fn ingest_line(objects: &[Object]) -> String {
    let rows: Vec<String> = objects.iter().map(object_row).collect();
    format!("INGEST {}", rows.join(";"))
}

/// `REGISTER <user> <rows>`.
pub fn register_line(user: u32, preference: &Preference) -> String {
    format!("REGISTER {user} {}", preference_rows(preference))
}

/// `a,b,c,d` — an object's values in `INGEST` syntax.
fn object_row(object: &Object) -> String {
    object
        .values()
        .iter()
        .map(|v| v.raw().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// A preference in `REGISTER`/`UPDATE` row syntax.
pub fn preference_rows(preference: &Preference) -> String {
    preference
        .relations()
        .map(|(_, relation)| {
            let mut pairs: Vec<(u32, u32)> =
                relation.pairs().map(|(x, y)| (x.raw(), y.raw())).collect();
            if pairs.is_empty() {
                return "-".to_owned();
            }
            pairs.sort_unstable();
            pairs
                .iter()
                .map(|(x, y)| format!("{x}>{y}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Share of objects whose value vector already occurred earlier in the
/// stream.
pub fn dup_vector_share(objects: &[Object]) -> f64 {
    let mut seen: std::collections::HashSet<&[ValueId]> = std::collections::HashSet::new();
    let dups = objects.iter().filter(|o| !seen.insert(o.values())).count();
    dups as f64 / objects.len().max(1) as f64
}

/// Users per distinct preference of a population.
pub fn users_per_pref(population: &[Preference]) -> f64 {
    let distinct: std::collections::HashSet<_> =
        population.iter().map(Preference::fingerprint).collect();
    population.len() as f64 / distinct.len().max(1) as f64
}
