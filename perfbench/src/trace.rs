//! The traced run: one identical input fed up the layer ladder, with a
//! span around every call into a layer's public functions.
//!
//! Rungs, each built the way a server builds itself (an empty population
//! plus `register` in registration order) and fed the same objects:
//! kernel -> cluster maintenance -> bare monitor -> `ShardedEngine` ->
//! `EngineService` -> reactor over loopback -> WAL -> coordinator. A
//! rung's self time is its total minus the rung below on the same input.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_cluster::{Clustering, ExactMeasure};
use pm_coord::{spawn_coordinator, spawn_node, ClusterConfig, NodeSpec, Topology};
use pm_core::{ContinuousMonitor, FilterThenVerifyMonitor, FilterThenVerifySwMonitor, HistoryMode};
use pm_engine::{
    parse_request, render_text, serve_with_signal, shutdown_pair, BackendSpec, DurabilityConfig,
    EngineConfig, EngineService, ReactorConfig, ShardedEngine,
};
use pm_model::{Object, Partitioner, UserId};
use pm_porder::{CompiledPreference, Preference};
use pm_reactor::{Interest, Poller};
use pm_wal::{encode_ingest_batch, SyncPolicy, Wal};

use crate::gen::{self, Deploy, Inputs, Spec, ARITY};
use crate::reference::Members;
use crate::stats::{median, percentile, Metrics};
use crate::wire::{run_open, Client, EventSink};

/// Objects measured on every rung (after the window warm-up), and the
/// further objects of the reactor's open-loop event-lag pass.
const MEASURED: usize = 240;
const EXTRA: usize = 120;
/// Membership changes and reads timed on the rungs that serve them.
const CHURN_OPS: usize = 48;
const READS: usize = 200;

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
}

/// Replies compared with what they should be, and how many were wrong.
#[derive(Default, Clone, Copy)]
struct Checked {
    attempted: u64,
    failed: u64,
}

impl Checked {
    fn check(&mut self, wrong: bool) {
        self.attempted += 1;
        self.failed += u64::from(wrong);
    }

    fn add(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(f64::NAN)
}

/// Median ns per `CompiledPreference::compare` over the run's own
/// preferences and object pairs: the host-speed calibrator.
pub fn compare_ns(inputs: &Inputs) -> f64 {
    let prefs: Vec<CompiledPreference> = inputs
        .population
        .iter()
        .take(64)
        .map(CompiledPreference::compile)
        .collect();
    let objects = &inputs.objects[..inputs.objects.len().min(257)];
    let mut rounds = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut n = 0u64;
        let mut acc = 0u64;
        for pref in &prefs {
            for pair in objects.windows(2) {
                acc += std::hint::black_box(pref.compare(&pair[0], &pair[1])) as u64;
                n += 1;
            }
        }
        std::hint::black_box(acc);
        rounds.push(start.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&rounds).unwrap_or(f64::NAN)
}

/// The shared input of every rung.
struct Ladder<'a> {
    spec: &'a Spec,
    backend: BackendSpec,
    branch_cut: f64,
    population: &'a [Preference],
    warm: &'a [Object],
    measured: &'a [Object],
    /// Further objects, for the open-loop event-lag pass.
    extra: &'a [Object],
    /// `(user, Some(preference))` registers or updates, `(user, None)`
    /// unregisters; users above [`gen::CHURN_USER_BASE`] are new.
    churn: Vec<(u32, Option<Preference>)>,
    reads: Vec<u32>,
}

impl Ladder<'_> {
    fn shards(&self) -> usize {
        match self.spec.deploy {
            Deploy::Single { shards } => shards,
            Deploy::Cluster { shards, .. } => shards,
        }
    }

    fn register_lines(&self) -> Vec<String> {
        self.population
            .iter()
            .enumerate()
            .map(|(u, pref)| gen::register_line(u as u32, pref))
            .collect()
    }
}

fn build_ladder<'a>(spec: &'a Spec, inputs: &'a Inputs) -> Result<Ladder<'a>, String> {
    let backend = spec.backend_spec();
    let branch_cut = match backend {
        BackendSpec::FilterThenVerify { branch_cut, .. }
        | BackendSpec::FilterThenVerifySw { branch_cut, .. } => branch_cut,
        _ => {
            return Err(format!(
                "the ladder expects an FTV backend, got {}",
                spec.backend
            ))
        }
    };
    let warm = &inputs.objects[..spec.warm];
    let measured = &inputs.objects[spec.warm..spec.warm + MEASURED];
    let extra = &inputs.objects[spec.warm + MEASURED..spec.warm + MEASURED + EXTRA];
    // Register a new user, update a base user, unregister the new user.
    let mut churn = Vec::new();
    for i in 0..CHURN_OPS / 3 {
        let spare = inputs.spares[i % inputs.spares.len()].clone();
        let user = gen::CHURN_USER_BASE + i as u32;
        churn.push((user, Some(spare.clone())));
        churn.push(((i * 7919 % spec.users) as u32, Some(spare)));
        churn.push((user, None));
    }
    let reads = (0..READS).map(|i| (i * 7919 % spec.users) as u32).collect();
    Ok(Ladder {
        spec,
        backend,
        branch_cut,
        population: &inputs.population,
        warm,
        measured,
        extra,
        churn,
        reads,
    })
}

/// A bare FilterThenVerify monitor with its cluster-level view.
enum Core {
    Append(Box<FilterThenVerifyMonitor>),
    Window(Box<FilterThenVerifySwMonitor>),
}

impl Core {
    fn new(ladder: &Ladder) -> Self {
        let clustering = Clustering::new(&[], ExactMeasure::Jaccard, ladder.branch_cut);
        match ladder.spec.window() {
            Some(w) => Core::Window(Box::new(FilterThenVerifySwMonitor::with_clustering(
                Vec::new(),
                clustering,
                w,
            ))),
            None => Core::Append(Box::new(
                FilterThenVerifyMonitor::with_clustering(Vec::new(), clustering)
                    .with_history(HistoryMode::Unlimited),
            )),
        }
    }

    fn monitor(&mut self) -> &mut dyn ContinuousMonitor {
        match self {
            Core::Append(m) => m.as_mut(),
            Core::Window(m) => m.as_mut(),
        }
    }

    /// Clusters whose cluster-level frontier does not hold `object` (the
    /// arrival was filtered for all their members at once, Thm. 4.5), and
    /// the cluster count.
    fn filtered(&self, object: &Object) -> (usize, usize) {
        let id = object.id();
        let count = |clusters: usize, holds: &dyn Fn(usize) -> bool| {
            ((0..clusters).filter(|&c| !holds(c)).count(), clusters)
        };
        match self {
            Core::Append(m) => count(m.num_clusters(), &|c| m.cluster_frontier(c).contains(&id)),
            Core::Window(m) => count(m.num_clusters(), &|c| m.cluster_frontier(c).contains(&id)),
        }
    }
}

/// Runs the bare monitor over the ladder input. With `spans` every call
/// is timed; without, only the measured stream as a whole (the tracing
/// overhead is the difference).
fn core_pass(ladder: &Ladder, m: &mut Metrics, spans: bool) -> (u64, Duration) {
    let mut core = Core::new(ladder);
    let mut add_us = Vec::new();
    let mut members = Members::default();
    for (u, pref) in ladder.population.iter().enumerate() {
        let start = Instant::now();
        members.add(core.monitor(), u as u32, pref.clone());
        add_us.push(us(start.elapsed()));
    }
    for object in ladder.warm {
        core.monitor().process(object.clone());
    }
    let before = core.monitor().stats();
    let mut process_us = Vec::new();
    let mut filtered = (0usize, 0usize);
    let total_start = Instant::now();
    for object in ladder.measured {
        if spans {
            let start = Instant::now();
            core.monitor().process(object.clone());
            process_us.push(us(start.elapsed()));
            let (f, c) = core.filtered(object);
            filtered.0 += f;
            filtered.1 += c;
        } else {
            core.monitor().process(object.clone());
        }
    }
    let total = total_start.elapsed();
    let after = core.monitor().stats();
    let comparisons = after.comparisons - before.comparisons;
    if !spans {
        return (comparisons, total);
    }
    let arrivals = (after.arrivals - before.arrivals).max(1) as f64;
    let users = core.monitor().num_users();
    let frontier_total: usize = (0..users)
        .map(|u| core.monitor().frontier(UserId::from(u)).len())
        .sum();
    m.put("core.process_us.p50", p(&process_us, 0.5), "us");
    m.put("core.process_us.p99", p(&process_us, 0.99), "us");
    m.put(
        "core.comparisons_per_arrival",
        comparisons as f64 / arrivals,
        "count",
    );
    m.put(
        "core.filter_rate",
        filtered.0 as f64 / filtered.1.max(1) as f64,
        "ratio",
    );
    m.put(
        "core.frontier_mean",
        frontier_total as f64 / users.max(1) as f64,
        "count",
    );
    m.put(
        "core.notifications_per_arrival",
        (after.notifications - before.notifications) as f64 / arrivals,
        "count",
    );
    m.put(
        "core.distinct_preferences",
        after.distinct_preferences as f64,
        "count",
    );
    m.put(
        "core.preference_bytes_per_user",
        after.preference_bytes as f64 / users.max(1) as f64,
        "B",
    );
    m.put("core.history_bytes", after.history_bytes as f64, "B");
    m.put("core.add_user_us.p99", p(&add_us, 0.99), "us");
    let mut update_us = Vec::new();
    for (user, pref) in &ladder.churn {
        match (pref, members.local(*user)) {
            (Some(pref), Some(local)) => {
                let start = Instant::now();
                core.monitor().update_user(local, pref.clone());
                update_us.push(us(start.elapsed()));
            }
            (Some(pref), None) => members.add(core.monitor(), *user, pref.clone()),
            (None, _) => members.remove(core.monitor(), *user),
        }
    }
    m.put("core.update_user_us.p99", p(&update_us, 0.99), "us");
    (comparisons, total)
}

fn cluster_rung(ladder: &Ladder, m: &mut Metrics) {
    let mut clustering = Clustering::new(&[], ExactMeasure::Jaccard, ladder.branch_cut);
    let start = Instant::now();
    for (u, pref) in ladder.population.iter().enumerate() {
        clustering.insert_user(UserId::from(u), pref);
    }
    m.put("cluster.build_s", start.elapsed().as_secs_f64(), "s");
    m.put(
        "cluster.clusters",
        clustering.num_clusters() as f64,
        "count",
    );
    let (mut insert_us, mut remove_us) = (Vec::new(), Vec::new());
    for (user, pref) in &ladder.churn {
        if *user < gen::CHURN_USER_BASE {
            continue;
        }
        let user = UserId::from(*user);
        match pref {
            Some(pref) => {
                let start = Instant::now();
                clustering.insert_user(user, pref);
                insert_us.push(us(start.elapsed()));
            }
            None => {
                let start = Instant::now();
                clustering.remove_user(user);
                remove_us.push(us(start.elapsed()));
            }
        }
    }
    m.put("cluster.insert_us.p99", p(&insert_us, 0.99), "us");
    m.put("cluster.remove_us.p99", p(&remove_us, 0.99), "us");
}

fn engine_rung(ladder: &Ladder, m: &mut Metrics) -> Duration {
    let config = EngineConfig::new(ladder.shards());
    let engine = ShardedEngine::empty(&config, &ladder.backend);
    let mut register_us = Vec::new();
    for (u, pref) in ladder.population.iter().enumerate() {
        let start = Instant::now();
        engine
            .register(UserId::from(u), pref.clone())
            .expect("fresh user registers");
        register_us.push(us(start.elapsed()));
    }
    for chunk in ladder.warm.chunks(gen::BATCH) {
        let _ = engine.submit_batch(chunk.to_vec()).wait();
    }
    let before: Vec<u64> = engine.shard_stats().iter().map(|s| s.comparisons).collect();
    let (mut batch_us, mut lock_us, mut fan_us) = (Vec::new(), Vec::new(), Vec::new());
    let start_all = Instant::now();
    for object in ladder.measured {
        let (_, timing) = engine.submit_batch(vec![object.clone()]).wait_timed();
        batch_us.push(us(timing.total));
        lock_us.push(us(timing.lock_hold));
        fan_us.push(us(timing.fan_in));
    }
    let total = start_all.elapsed();
    let per_shard: Vec<f64> = engine
        .shard_stats()
        .iter()
        .zip(&before)
        .map(|(s, b)| (s.comparisons - b) as f64)
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    m.put("engine.batch_us.p50", p(&batch_us, 0.5), "us");
    m.put("engine.batch_us.p99", p(&batch_us, 0.99), "us");
    m.put("engine.lock_hold_us.p99", p(&lock_us, 0.99), "us");
    m.put("engine.fan_in_us.p99", p(&fan_us, 0.99), "us");
    m.put(
        "engine.shard_comparison_skew",
        if mean > 0.0 { max / mean } else { 1.0 },
        "ratio",
    );
    m.put("engine.register_us.p99", p(&register_us, 0.99), "us");
    let (mut update_us, mut unregister_us) = (Vec::new(), Vec::new());
    for (user, pref) in &ladder.churn {
        let id = UserId::from(*user);
        let start = Instant::now();
        match pref {
            Some(pref) if engine.is_registered(id) => {
                engine
                    .update(id, pref.clone())
                    .expect("registered user updates");
                update_us.push(us(start.elapsed()));
            }
            Some(pref) => engine
                .register(id, pref.clone())
                .expect("new user registers"),
            None => {
                engine.unregister(id).expect("registered user unregisters");
                unregister_us.push(us(start.elapsed()));
            }
        }
    }
    m.put("engine.update_us.p99", p(&update_us, 0.99), "us");
    m.put("engine.unregister_us.p99", p(&unregister_us, 0.99), "us");
    let mut frontier_us = Vec::new();
    for user in &ladder.reads {
        let start = Instant::now();
        std::hint::black_box(engine.frontier(UserId::from(*user)));
        frontier_us.push(us(start.elapsed()));
    }
    m.put("engine.frontier_us.p99", p(&frontier_us, 0.99), "us");
    total
}

fn new_service(ladder: &Ladder) -> EngineService {
    let engine = ShardedEngine::empty(&EngineConfig::new(ladder.shards()), &ladder.backend);
    EngineService::new(engine, ladder.backend.clone(), ARITY, 4096).with_slow_op(None)
}

/// Times parse -> handle -> render on a service, pairing every measured
/// `handle` with the same object on a twin engine in the same state: the
/// median of the paired differences is the service's own cost.
fn service_rung(ladder: &Ladder, m: &mut Metrics) -> (Checked, Duration) {
    let service = new_service(ladder);
    let twin = ShardedEngine::empty(&EngineConfig::new(ladder.shards()), &ladder.backend);
    let mut checked = Checked::default();
    for (u, line) in ladder.register_lines().iter().enumerate() {
        checked.check(service.respond_line(line).starts_with("ERR"));
        twin.register(UserId::from(u), ladder.population[u].clone())
            .expect("fresh user registers");
    }
    for chunk in ladder.warm.chunks(gen::BATCH) {
        checked.check(
            service
                .respond_line(&gen::ingest_line(chunk))
                .starts_with("ERR"),
        );
        let _ = twin.submit_batch(chunk.to_vec()).wait();
    }
    let (mut parse, mut own, mut render) = (Vec::new(), Vec::new(), Vec::new());
    let mut total = Duration::ZERO;
    // The pair runs in alternating order, so neither side always meets
    // caches the other has just warmed.
    let engine_us = |object: &Object| {
        let start = Instant::now();
        let _ = twin.submit_batch(vec![object.clone()]).wait();
        us(start.elapsed())
    };
    for (i, object) in ladder.measured.iter().enumerate() {
        let line = gen::ingest_line(std::slice::from_ref(object));
        let engine_first = if i % 2 == 1 { engine_us(object) } else { 0.0 };
        let start = Instant::now();
        let request = parse_request(&line).expect("generated requests parse");
        parse.push(us(start.elapsed()));
        let start = Instant::now();
        let response = service.handle(request);
        let handle = start.elapsed();
        let start = Instant::now();
        let text = render_text(&response);
        render.push(us(start.elapsed()));
        total += handle;
        checked.check(text.starts_with("ERR"));
        let engine = if i % 2 == 1 {
            engine_first
        } else {
            engine_us(object)
        };
        own.push(us(handle) - engine);
    }
    m.put("service.parse_us", median(&parse).unwrap_or(f64::NAN), "us");
    m.put(
        "service.render_us",
        median(&render).unwrap_or(f64::NAN),
        "us",
    );
    m.put("service.handle_us", median(&own).unwrap_or(f64::NAN), "us");
    (checked, total)
}

/// An in-process reactor server twinned with a direct service in the same
/// state: the round trip minus the twin's `respond_line` is the wire tax.
fn reactor_rung(ladder: &Ladder, m: &mut Metrics) -> Result<(Checked, Duration, f64), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let served = Arc::new(new_service(ladder));
    let twin = new_service(ladder);
    let (shutdown, signal) = shutdown_pair().map_err(|e| e.to_string())?;
    let server = {
        let served = Arc::clone(&served);
        std::thread::spawn(move || {
            serve_with_signal(listener, served, ReactorConfig::default(), signal)
        })
    };
    let result = (|| -> Result<(Checked, Duration, f64), String> {
        let mut checked = Checked::default();
        let mut client = Client::connect(&addr)?;
        let setup: Vec<String> = ladder
            .register_lines()
            .into_iter()
            .chain(ladder.warm.chunks(gen::BATCH).map(gen::ingest_line))
            .collect();
        for (line, reply) in setup.iter().zip(client.pipeline(&setup)?) {
            let direct = twin.respond_line(line);
            checked.check(reply.starts_with("ERR") || direct != reply);
        }
        let mut sub = Client::connect(&addr)?;
        let subs: Vec<String> = (0..ladder.spec.subscribed)
            .map(|u| format!("SUBSCRIBE {u}"))
            .collect();
        for reply in sub.pipeline(&subs)? {
            checked.check(!reply.starts_with("OK SUBSCRIBED"));
        }
        // Wire tax: each measured ingest's round trip, one in flight, minus
        // the twin's `respond_line` on the same request.
        let mut tax = Vec::new();
        let mut rtt_total = Duration::ZERO;
        let mut reply_bytes = 0usize;
        for object in ladder.measured {
            let line = gen::ingest_line(std::slice::from_ref(object));
            let start = Instant::now();
            let reply = client.ask(&line)?;
            let rtt = start.elapsed();
            let start = Instant::now();
            let direct = twin.respond_line(&line);
            tax.push(us(rtt) - us(start.elapsed()));
            rtt_total += rtt;
            reply_bytes += reply.len() + 1;
            checked.check(reply.starts_with("ERR") || direct != reply);
        }
        // Event lag: further ingests open loop at a modest fixed rate, so
        // nothing queues; events are timed on the subscriber connection.
        let rate = ladder.spec.ladder[gen::LOW] / 2.0;
        let schedule: Vec<(Duration, String)> = ladder
            .extra
            .iter()
            .enumerate()
            .map(|(i, o)| {
                (
                    Duration::from_secs_f64(i as f64 / rate),
                    gen::ingest_line(std::slice::from_ref(o)),
                )
            })
            .collect();
        let req = client.into_stream();
        let mut sub_stream = sub.into_stream();
        let mut sink = EventSink::default();
        sink.drain(&mut sub_stream)?;
        sink.first_enter.clear();
        let start = Instant::now() + Duration::from_millis(5);
        let records = run_open(&req, Some((&sub_stream, &mut sink)), start, &schedule)?;
        let mut lag = Vec::new();
        for record in &records {
            checked.check(record.reply.starts_with("ERR"));
            let subscribed_target = crate::reference::parse_ingested(&record.reply)
                .and_then(|v| v.into_iter().next())
                .filter(|(_, users)| users.iter().any(|u| (*u as usize) < ladder.spec.subscribed));
            if let Some((id, _)) = subscribed_target {
                if let Some(at) = sink.first_enter.get(&id) {
                    lag.push(us(at.saturating_duration_since(record.due)));
                }
            }
        }
        let late: Vec<f64> = records
            .iter()
            .map(|r| r.gen_late.as_secs_f64() * 1e3)
            .collect();
        m.put("reactor.wire_tax_us.p50", p(&tax, 0.5), "us");
        m.put("reactor.wire_tax_us.p99", p(&tax, 0.99), "us");
        m.put("reactor.event_lag_us.p99", p(&lag, 0.99), "us");
        m.put(
            "reactor.reply_bytes_per_obj",
            reply_bytes as f64 / ladder.measured.len() as f64,
            "B",
        );
        Ok((checked, rtt_total, p(&late, 0.99)))
    })();
    shutdown.shutdown();
    let _ = server.join();
    result
}

fn wal_rung(ladder: &Ladder, work: &Path, m: &mut Metrics) -> Result<(Checked, Duration), String> {
    let raw_dir = work.join("trace-wal-raw");
    let svc_dir = work.join("trace-wal-service");
    for dir in [&raw_dir, &svc_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let result = (|| -> Result<(Checked, Duration), String> {
        let wal = Wal::open(&raw_dir, SyncPolicy::Batch).map_err(|e| e.to_string())?;
        let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
        let before = wal.stats().bytes;
        for (i, object) in ladder.measured.iter().enumerate() {
            let payload = encode_ingest_batch(std::slice::from_ref(object));
            let start = Instant::now();
            wal.append_payload(&payload).map_err(|e| e.to_string())?;
            append_us.push(us(start.elapsed()));
            if i % 8 == 7 {
                let start = Instant::now();
                wal.sync().map_err(|e| e.to_string())?;
                sync_us.push(us(start.elapsed()));
            }
        }
        let bytes = wal.stats().bytes - before;
        drop(wal);
        m.put("wal.append_us.p99", p(&append_us, 0.99), "us");
        m.put("wal.sync_us.p99", p(&sync_us, 0.99), "us");
        m.put(
            "wal.bytes_per_obj",
            bytes as f64 / ladder.measured.len() as f64,
            "B",
        );

        // A durable service fed the whole ladder input, then recovered.
        let durability = DurabilityConfig {
            dir: svc_dir.clone(),
            sync: SyncPolicy::Batch,
            snapshot_every: 0,
        };
        let config = EngineConfig::new(ladder.shards());
        let open = || {
            pm_engine::durability::recover_or_create(
                Vec::new(),
                &config,
                &ladder.backend,
                ARITY,
                4096,
                &durability,
            )
            .map_err(|e| e.to_string())
        };
        let (service, _) = open()?;
        let mut checked = Checked::default();
        let setup = ladder
            .register_lines()
            .into_iter()
            .chain(ladder.warm.chunks(gen::BATCH).map(gen::ingest_line));
        for line in setup {
            checked.check(service.respond_line(&line).starts_with("ERR"));
        }
        let start = Instant::now();
        for object in ladder.measured {
            let line = gen::ingest_line(std::slice::from_ref(object));
            checked.check(service.respond_line(&line).starts_with("ERR"));
        }
        let total = start.elapsed();
        drop(service);
        let start = Instant::now();
        let (recovered, _) = open()?;
        m.put("wal.recover_s", start.elapsed().as_secs_f64(), "s");
        drop(recovered);
        Ok((checked, total))
    })();
    for dir in [&raw_dir, &svc_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

/// Sends `line` to every stream at once and returns each reply's arrival
/// time, in stream order.
fn replicate(
    streams: &mut [TcpStream],
    poller: &mut Poller,
    line: &str,
) -> Result<Vec<Instant>, String> {
    for s in streams.iter_mut() {
        s.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
    }
    let mut at: Vec<Option<Instant>> = vec![None; streams.len()];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut events = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while at.iter().any(Option::is_none) {
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        if events.is_empty() {
            return Err("replica reply timed out".to_owned());
        }
        let now = Instant::now();
        for ev in &events {
            let i = ev.token as usize;
            let n = streams[i].read(&mut chunk).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("replica closed the connection".to_owned());
            }
            bufs[i].extend_from_slice(&chunk[..n]);
            if at[i].is_none() && bufs[i].contains(&b'\n') {
                at[i] = Some(now);
                let line = String::from_utf8_lossy(&bufs[i]).into_owned();
                if line.starts_with("ERR") {
                    return Err(format!("replica refused: {}", line.trim()));
                }
            }
        }
    }
    Ok(at.into_iter().map(|t| t.expect("all replied")).collect())
}

fn coord_rung(ladder: &Ladder, m: &mut Metrics) -> Result<(Checked, Duration), String> {
    const NODES: usize = 2;
    let node_spec = || {
        let mut spec = NodeSpec::new(ladder.backend.clone(), 1);
        spec.slow_op = None;
        spec
    };
    let partitioner = Partitioner::new(NODES);
    let owner = |u: u32| partitioner.owner_of(UserId::from(u));
    let mut checked = Checked::default();

    // Replica skew: the same SEQ-fenced batch sent to both nodes at once.
    let replicas = (0..NODES)
        .map(|_| spawn_node(&node_spec()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let skew = (|| -> Result<Vec<f64>, String> {
        let mut clients = replicas
            .iter()
            .map(|n| Client::connect(n.addr()))
            .collect::<Result<Vec<_>, _>>()?;
        for (u, line) in ladder.register_lines().iter().enumerate() {
            let reply = clients[owner(u as u32)].ask(line)?;
            if !reply.starts_with("OK") {
                return Err(format!("node refused a registration: {reply}"));
            }
        }
        let mut streams: Vec<TcpStream> = clients.into_iter().map(Client::into_stream).collect();
        let mut poller = Poller::new().map_err(|e| e.to_string())?;
        for (i, s) in streams.iter().enumerate() {
            poller
                .register(s.as_raw_fd(), i as u64, Interest::Read)
                .map_err(|e| e.to_string())?;
        }
        let mut seq = 0usize;
        for chunk in ladder.warm.chunks(gen::BATCH) {
            replicate(
                &mut streams,
                &mut poller,
                &format!("SEQ {seq} {}", gen::ingest_line(chunk)),
            )?;
            seq += chunk.len();
        }
        let mut skew = Vec::new();
        for object in ladder.measured {
            let line = format!(
                "SEQ {seq} {}",
                gen::ingest_line(std::slice::from_ref(object))
            );
            let at = replicate(&mut streams, &mut poller, &line)?;
            let first = at.iter().min().expect("two replicas");
            let last = at.iter().max().expect("two replicas");
            skew.push(us(*last - *first));
            seq += 1;
        }
        Ok(skew)
    })();
    for node in replicas {
        node.kill();
    }
    m.put("coord.replica_skew_us.p99", p(&skew?, 0.99), "us");

    // Coordinator tax: the same FRONTIER through pm-coord and straight to
    // the owning node, interleaved.
    let nodes = (0..NODES)
        .map(|_| spawn_node(&node_spec()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let topology = Topology::new(nodes.iter().map(|n| n.addr().to_owned()).collect())?;
    let coordinator = spawn_coordinator(&topology, ClusterConfig::default());
    let result = (|| -> Result<(Checked, Duration), String> {
        let coordinator = coordinator.as_ref().map_err(Clone::clone)?;
        let mut via = Client::connect(coordinator.addr())?;
        let mut direct = nodes
            .iter()
            .map(|n| Client::connect(n.addr()))
            .collect::<Result<Vec<_>, _>>()?;
        let setup: Vec<String> = ladder
            .register_lines()
            .into_iter()
            .chain(ladder.warm.chunks(gen::BATCH).map(gen::ingest_line))
            .collect();
        for reply in via.pipeline(&setup)? {
            checked.check(reply.starts_with("ERR"));
        }
        let mut total = Duration::ZERO;
        for object in ladder.measured {
            let start = Instant::now();
            let reply = via.ask(&gen::ingest_line(std::slice::from_ref(object)))?;
            total += start.elapsed();
            checked.check(reply.starts_with("ERR"));
        }
        let mut tax = Vec::new();
        for user in &ladder.reads {
            let line = format!("FRONTIER {user}");
            let start = Instant::now();
            let through = via.ask(&line)?;
            let via_us = us(start.elapsed());
            let start = Instant::now();
            let straight = direct[owner(*user)].ask(&line)?;
            tax.push(via_us - us(start.elapsed()));
            checked.check(through != straight);
        }
        m.put("coord.tax_us.p50", p(&tax, 0.5), "us");
        m.put("coord.tax_us.p99", p(&tax, 0.99), "us");
        Ok((checked, total))
    })();
    if let Ok(c) = coordinator {
        c.kill();
    }
    for node in nodes {
        node.kill();
    }
    result
}

pub fn run(spec: &Spec, inputs: &Inputs, work: &Path) -> Result<Outcome, String> {
    let ladder = build_ladder(spec, inputs)?;
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut checked = Checked::default();
    // (rung, total on the measured objects, the rung it builds on)
    let mut rows: Vec<(&str, Duration, &str)> = Vec::new();

    m.put("porder.compare_ns", compare_ns(inputs), "ns");
    cluster_rung(&ladder, &mut m);
    let (comparisons, core_total) = core_pass(&ladder, &mut m, true);
    let (again, untraced) = core_pass(&ladder, &mut Metrics::default(), false);
    notes.push(format!(
        "core.comparisons repeat exactly on the same seed: {} ({comparisons} vs {again})",
        comparisons == again
    ));
    notes.push(format!(
        "tracing overhead on the bare monitor: traced {:.3} ms, untraced {:.3} ms ({:+.1}%)",
        core_total.as_secs_f64() * 1e3,
        untraced.as_secs_f64() * 1e3,
        (core_total.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0
    ));
    rows.push(("core", untraced, ""));
    let engine_total = engine_rung(&ladder, &mut m);
    rows.push(("engine", engine_total, "core"));
    let (service_checked, service_total) = service_rung(&ladder, &mut m);
    checked.add(service_checked);
    rows.push(("service", service_total, "engine"));
    let (reactor_checked, reactor_total, late_p99) = reactor_rung(&ladder, &mut m)?;
    checked.add(reactor_checked);
    rows.push(("reactor", reactor_total, "service"));
    let (wal_checked, wal_total) = wal_rung(&ladder, work, &mut m)?;
    checked.add(wal_checked);
    rows.push(("wal", wal_total, "service"));
    let (coord_checked, coord_total) = coord_rung(&ladder, &mut m)?;
    checked.add(coord_checked);
    rows.push(("coord", coord_total, "reactor"));
    m.put(
        "input.dup_vector_share",
        gen::dup_vector_share(&inputs.objects),
        "ratio",
    );
    m.put(
        "input.users_per_pref",
        gen::users_per_pref(&inputs.population),
        "count",
    );
    m.put("loadgen.late_p99_ms", late_p99, "ms");

    // The ladder: each rung's total on the same measured objects, and its
    // self time over the rung below.
    for (rung, total, base) in &rows {
        let below = rows
            .iter()
            .find(|(r, _, _)| r == base)
            .map_or(Duration::ZERO, |(_, t, _)| *t);
        notes.push(format!(
            "ladder {rung:8} total {:9.3} ms  self {:9.3} ms over {:8} ({} objects)",
            total.as_secs_f64() * 1e3,
            (total.as_secs_f64() - below.as_secs_f64()) * 1e3,
            if base.is_empty() { "-" } else { base },
            ladder.measured.len()
        ));
    }
    Ok(Outcome {
        metrics: m,
        attempted: checked.attempted,
        failed: checked.failed,
        correct: checked.failed == 0,
        notes,
    })
}
