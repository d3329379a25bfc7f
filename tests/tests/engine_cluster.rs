//! Cluster oracle battery: a `pm-coord` cluster must be indistinguishable
//! from one engine over the whole population.
//!
//! Three oracles, all driven over real TCP through the in-process harness:
//!
//! * **One node is a bare server.** A 1-node cluster answers every
//!   deterministic verb byte-identically to an `EngineService` fed the
//!   same lines — the coordinator adds routing, not semantics.
//! * **Three nodes are one engine.** Under interleaved churn (REGISTER /
//!   INGEST / UPDATE / UNREGISTER), a 3-node cluster matches a
//!   single-engine oracle at every barrier on `FRONTIER` for every user,
//!   `QUERY` across the retained window, and the cluster `STATS` rollup
//!   fields — across four backends and 1/2/4 shards per node.
//! * **A killed node degrades, a rejoined node recovers.** With per-node
//!   WALs, killing a node leaves its key range answering
//!   `ERR degraded node=<n>` while every other range keeps serving and
//!   replication continues; respawning it on the same WAL and barriering
//!   on one `HEALTH` round trip replays the missed backlog suffix and
//!   restores full oracle equality.
//!
//! Plus the resize building block: [`pm_coord::Cluster::migrate_user`]
//! drains a user to another node via EXPORT + REGISTER + UNREGISTER and
//! the new owner's backfilled frontier matches the oracle.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use pm_coord::{
    spawn_coordinator, spawn_node, spawn_node_at, Cluster, ClusterConfig, NodeHandle, NodeSpec,
    TextClient, Topology,
};
use pm_engine::durability::DurabilityConfig;
use pm_engine::{BackendSpec, EngineConfig, EngineService, ShardedEngine};
use pm_model::{Partitioner, UserId};
use pm_wal::SyncPolicy;

const ARITY: usize = 3;
const DOM: usize = 6;
const HISTORY: usize = 64;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pm-cluster-test-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The single-engine oracle: the same backend and shard count, the whole
/// population, driven through `respond_line`.
fn oracle(backend: &str, shards: usize) -> EngineService {
    let spec = BackendSpec::parse(backend).unwrap();
    let engine = ShardedEngine::new(Vec::new(), &EngineConfig::new(shards), &spec);
    EngineService::new(engine, spec, ARITY, HISTORY)
}

fn node_spec(backend: &str, shards: usize) -> NodeSpec {
    let mut spec = NodeSpec::new(BackendSpec::parse(backend).unwrap(), shards);
    spec.arity = ARITY;
    spec.history = HISTORY;
    spec
}

/// Spawns `n` nodes plus a coordinator over them; returns the node
/// handles, the coordinator handle and a connected client.
fn spawn_cluster(
    backend: &str,
    shards: usize,
    n: usize,
) -> (Vec<NodeHandle>, NodeHandle, TextClient) {
    let nodes: Vec<NodeHandle> = (0..n)
        .map(|_| spawn_node(&node_spec(backend, shards)).unwrap())
        .collect();
    let topology = Topology::new(nodes.iter().map(|h| h.addr().to_owned()).collect()).unwrap();
    let coord = spawn_coordinator(&topology, ClusterConfig::default()).unwrap();
    let client = TextClient::connect(coord.addr()).unwrap();
    (nodes, coord, client)
}

/// A user-specific chain preference in REGISTER/UPDATE row syntax.
fn preference_rows(user: u32) -> String {
    (0..ARITY)
        .map(|attr| {
            let skip = (user as usize + attr) % (DOM - 1);
            let pairs: Vec<String> = (0..DOM - 1)
                .filter(|&v| v != skip)
                .map(|v| format!("{}>{}", v + 1, v))
                .collect();
            if pairs.is_empty() {
                "-".to_owned()
            } else {
                pairs.join(",")
            }
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// A deterministic `INGEST` line for objects `start..start + count`.
fn ingest_line(start: usize, count: usize) -> String {
    let groups: Vec<String> = (start..start + count)
        .map(|i| {
            (0..ARITY)
                .map(|a| (((i * 7 + a * 3) ^ (i / 4)) % DOM).to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    format!("INGEST {}", groups.join(";"))
}

/// The rollup fields the cluster `STATS` line must agree on with the
/// oracle. (`comparisons` is iteration-order dependent and partitioning
/// changes it; `shards`/`shard_users` describe topology, not state.)
const ROLLUP_KEYS: [&str; 7] = [
    "ingested=",
    "users=",
    "registrations=",
    "unregistrations=",
    "updates=",
    "notifications=",
    "expirations=",
];

fn stat_field(body: &str, key: &str) -> u64 {
    body.split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

/// Extracts the rollup fields from the coordinator's cluster `STATS` line
/// (the part before the per-node breakdown).
fn cluster_rollup(response: &str) -> Vec<u64> {
    let cluster = response.split(" | ").next().unwrap();
    assert!(
        cluster.starts_with("OK STATS cluster "),
        "not a cluster STATS line: {response}"
    );
    ROLLUP_KEYS
        .iter()
        .map(|key| stat_field(cluster, key))
        .collect()
}

/// Extracts the same fields from a bare-engine `STATS` response.
fn oracle_rollup(response: &str) -> Vec<u64> {
    let body = response.strip_prefix("OK STATS ").unwrap();
    ROLLUP_KEYS
        .iter()
        .map(|key| stat_field(body, key))
        .collect()
}

/// Oracle equality at one barrier: every user's frontier, the whole
/// QUERY-able window, and the STATS rollup.
fn check_barrier(
    client: &mut TextClient,
    oracle: &EngineService,
    users: &[u32],
    ingested: usize,
    tag: &str,
) {
    for &user in users {
        let q = format!("FRONTIER {user}");
        assert_eq!(
            client.ask(&q).unwrap(),
            oracle.respond_line(&q),
            "{tag}: frontier of user {user} diverged"
        );
    }
    for id in ingested.saturating_sub(HISTORY)..ingested {
        let q = format!("QUERY {id}");
        assert_eq!(
            client.ask(&q).unwrap(),
            oracle.respond_line(&q),
            "{tag}: QUERY {id} diverged"
        );
    }
    assert_eq!(
        cluster_rollup(&client.ask("STATS").unwrap()),
        oracle_rollup(&oracle.respond_line("STATS")),
        "{tag}: STATS rollup diverged"
    );
}

/// Interleaved churn driven through cluster and oracle simultaneously,
/// asserting byte-identical responses on every deterministic verb and
/// full barrier equality after each churn step.
fn churn_against_oracle(backend: &str, shards: usize, n: usize) {
    let (nodes, coord, mut client) = spawn_cluster(backend, shards, n);
    let oracle = oracle(backend, shards);
    let tag = format!("{backend}/{shards}x{n}");
    let mut users: Vec<u32> = Vec::new();
    let mut ingested = 0usize;

    let drive = |client: &mut TextClient, line: &str| -> String {
        let cluster_response = client.ask(line).unwrap();
        let oracle_response = oracle.respond_line(line);
        assert_eq!(
            cluster_response, oracle_response,
            "{tag}: `{line}` diverged"
        );
        cluster_response
    };

    for user in 0..9u32 {
        let r = drive(
            &mut client,
            &format!("REGISTER {user} {}", preference_rows(user)),
        );
        assert!(r.starts_with(&format!("OK REGISTERED {user}")), "{r}");
        users.push(user);
    }
    for _ in 0..5 {
        let r = drive(&mut client, &ingest_line(ingested, 8));
        assert!(r.starts_with("OK INGESTED 8"), "{r}");
        ingested += 8;
    }
    check_barrier(&mut client, &oracle, &users, ingested, &tag);

    // Mid-stream registration backfills from the replicated history.
    let r = drive(
        &mut client,
        &format!("REGISTER 100 {}", preference_rows(100)),
    );
    assert!(r.starts_with("OK REGISTERED 100"), "{r}");
    users.push(100);
    let r = drive(&mut client, &ingest_line(ingested, 8));
    assert!(r.starts_with("OK INGESTED 8"), "{r}");
    ingested += 8;
    check_barrier(&mut client, &oracle, &users, ingested, &tag);

    // In-place update rebuilds one frontier; arity errors stay identical.
    let r = drive(&mut client, &format!("UPDATE 3 {}", preference_rows(77)));
    assert!(r.starts_with("OK UPDATED 3"), "{r}");
    drive(&mut client, "INGEST 1,2");
    drive(&mut client, "FRONTIER 9999");
    let r = drive(&mut client, "UNREGISTER 5");
    assert!(r.starts_with("OK UNREGISTERED 5"), "{r}");
    users.retain(|&u| u != 5);
    for _ in 0..2 {
        let r = drive(&mut client, &ingest_line(ingested, 8));
        assert!(r.starts_with("OK INGESTED 8"), "{r}");
        ingested += 8;
    }
    drive(&mut client, "EXPIRE");
    check_barrier(&mut client, &oracle, &users, ingested, &tag);

    coord.kill();
    for node in nodes {
        node.kill();
    }
}

#[test]
fn one_node_cluster_is_byte_identical_to_a_bare_server() {
    churn_against_oracle("baseline", 2, 1);
}

#[test]
fn three_node_cluster_matches_the_oracle_baseline() {
    for shards in [1, 2, 4] {
        churn_against_oracle("baseline", shards, 3);
    }
}

#[test]
fn three_node_cluster_matches_the_oracle_baseline_compact() {
    for shards in [1, 2, 4] {
        churn_against_oracle("baseline:compact", shards, 3);
    }
}

#[test]
fn three_node_cluster_matches_the_oracle_filter_then_verify() {
    for shards in [1, 2, 4] {
        churn_against_oracle("ftv:0.4:compact", shards, 3);
    }
}

#[test]
fn three_node_cluster_matches_the_oracle_sliding_window() {
    for shards in [1, 2, 4] {
        churn_against_oracle("baseline-sw:32", shards, 3);
    }
}

#[test]
fn killed_node_degrades_its_range_and_rejoins_through_wal_plus_backlog() {
    let backend = "baseline";
    let shards = 2;
    let wal_dirs: Vec<PathBuf> = (0..3).map(|i| test_dir(&format!("wal-{i}"))).collect();
    let spec_for = |dir: &PathBuf| {
        let mut spec = node_spec(backend, shards);
        spec.wal = Some(DurabilityConfig {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            snapshot_every: 0,
        });
        spec
    };
    let mut nodes: Vec<Option<NodeHandle>> = wal_dirs
        .iter()
        .map(|dir| Some(spawn_node(&spec_for(dir)).unwrap()))
        .collect();
    let addrs: Vec<String> = nodes
        .iter()
        .map(|h| h.as_ref().unwrap().addr().to_owned())
        .collect();
    let topology = Topology::new(addrs.clone()).unwrap();
    let coord = spawn_coordinator(&topology, ClusterConfig::default()).unwrap();
    let mut client = TextClient::connect(coord.addr()).unwrap();
    let oracle = oracle(backend, shards);

    let users: Vec<u32> = (0..12).collect();
    for &user in &users {
        let line = format!("REGISTER {user} {}", preference_rows(user));
        assert_eq!(client.ask(&line).unwrap(), oracle.respond_line(&line));
    }
    let mut ingested = 0usize;
    for _ in 0..4 {
        let line = ingest_line(ingested, 8);
        assert_eq!(client.ask(&line).unwrap(), oracle.respond_line(&line));
        ingested += 8;
    }
    check_barrier(&mut client, &oracle, &users, ingested, "pre-kill");

    // Partition the users the way the coordinator does, and kill the
    // owner of user 0.
    let partitioner = Partitioner::new(3);
    let victim = partitioner.owner_of(UserId::new(0));
    nodes[victim].take().unwrap().kill();

    // The victim's key range degrades; everything else keeps serving and
    // matching the oracle (which never went down).
    let (mut dark, mut lit) = (Vec::new(), Vec::new());
    for &user in &users {
        if partitioner.owner_of(UserId::new(user)) == victim {
            dark.push(user);
        } else {
            lit.push(user);
        }
    }
    assert!(!dark.is_empty() && !lit.is_empty(), "both ranges populated");
    for &user in &dark {
        assert_eq!(
            client.ask(&format!("FRONTIER {user}")).unwrap(),
            format!("ERR degraded node={victim}"),
            "user {user} should be dark"
        );
    }
    for &user in &lit {
        let q = format!("FRONTIER {user}");
        assert_eq!(client.ask(&q).unwrap(), oracle.respond_line(&q));
    }
    // QUERY unions across all nodes, so it degrades rather than lie.
    assert_eq!(
        client.ask("QUERY 0").unwrap(),
        format!("ERR degraded node={victim}")
    );
    // Replication continues into the backlog (and the oracle).
    for _ in 0..3 {
        let line = ingest_line(ingested, 8);
        let r = client.ask(&line).unwrap();
        assert!(r.starts_with("OK INGESTED 8"), "{r}");
        oracle.respond_line(&line);
        ingested += 8;
    }
    let health = client.ask("HEALTH").unwrap();
    assert!(health.contains(" live=2 "), "{health}");
    assert!(health.contains(&format!(" degraded={victim} ")), "{health}");

    // Respawn on the same address and WAL; one HEALTH round trip is the
    // rejoin barrier (reconnect, fence, replay the backlog suffix).
    nodes[victim] = Some(spawn_node_at(&addrs[victim], &spec_for(&wal_dirs[victim])).unwrap());
    let health = client.ask("HEALTH").unwrap();
    assert!(health.contains(" live=3 "), "{health}");
    assert!(health.contains(" degraded=- "), "{health}");
    check_barrier(&mut client, &oracle, &users, ingested, "post-rejoin");

    coord.kill();
    for node in nodes.into_iter().flatten() {
        node.kill();
    }
    for dir in wal_dirs {
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn subscriptions_fan_events_and_degrade_when_the_owner_dies() {
    let (mut nodes, coord, mut control) = spawn_cluster("baseline", 1, 3);
    let user = 1u32;
    let owner = Partitioner::new(3).owner_of(UserId::new(user));
    let r = control
        .ask(&format!("REGISTER {user} {}", preference_rows(user)))
        .unwrap();
    assert!(r.starts_with("OK REGISTERED 1"), "{r}");

    let mut sub_a = TextClient::connect(coord.addr()).unwrap();
    let r = sub_a.ask(&format!("SUBSCRIBE {user}")).unwrap();
    assert!(r.starts_with("OK SUBSCRIBED 1"), "{r}");
    assert_eq!(
        sub_a.ask(&format!("SUBSCRIBE {user}")).unwrap(),
        "ERR already subscribed to user 1"
    );
    // Second subscriber rides the existing node-side subscription via a
    // FRONTIER snapshot on the event connection.
    let mut sub_b = TextClient::connect(coord.addr()).unwrap();
    let r = sub_b.ask(&format!("SUBSCRIBE {user}")).unwrap();
    assert!(r.starts_with("OK SUBSCRIBED 1"), "{r}");

    // The first arrival always enters the frontier: both subscribers see
    // the delta.
    let r = control.ask("INGEST 1,2,3").unwrap();
    assert!(r.starts_with("OK INGESTED 1"), "{r}");
    let event = sub_a.recv().unwrap();
    assert!(
        event.starts_with("EVENT 1 ") && event.contains("+0"),
        "{event}"
    );
    let event = sub_b.recv().unwrap();
    assert!(
        event.starts_with("EVENT 1 ") && event.contains("+0"),
        "{event}"
    );

    assert_eq!(sub_b.ask("UNSUBSCRIBE 1").unwrap(), "OK UNSUBSCRIBED 1");
    assert_eq!(
        sub_b.ask("UNSUBSCRIBE 1").unwrap(),
        "ERR not subscribed to user 1"
    );

    // The owner dies: the remaining subscriber gets a pushed terminal
    // degraded line, and a fresh SUBSCRIBE is refused while dark.
    nodes.remove(owner).kill();
    assert_eq!(sub_a.recv().unwrap(), format!("ERR degraded node={owner}"));
    let mut sub_c = TextClient::connect(coord.addr()).unwrap();
    assert_eq!(
        sub_c.ask(&format!("SUBSCRIBE {user}")).unwrap(),
        format!("ERR degraded node={owner}")
    );

    coord.kill();
    for node in nodes {
        node.kill();
    }
}

#[test]
fn overlong_client_line_gets_a_terminal_err_and_others_are_still_served() {
    let (nodes, coord, mut control) = spawn_cluster("baseline", 1, 1);
    // One byte past `pm-server`'s 16 MiB line limit, and no newline: the
    // coordinator must refuse the line loudly instead of buffering it.
    let limit = 16 << 20;
    let mut hostile = TcpStream::connect(coord.addr()).unwrap();
    hostile
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    hostile.write_all(&vec![b'x'; limit + 1]).unwrap();
    let mut reply = String::new();
    hostile.read_to_string(&mut reply).unwrap();
    assert_eq!(reply, format!("ERR request line exceeds {limit} bytes\n"));

    // Connections old and new keep being served.
    assert!(control.ask("HEALTH").unwrap().starts_with("OK HEALTH"));
    let mut fresh = TextClient::connect(coord.addr()).unwrap();
    assert!(fresh.ask("HEALTH").unwrap().starts_with("OK HEALTH"));

    coord.kill();
    for node in nodes {
        node.kill();
    }
}

#[test]
fn migrate_user_drains_and_backfills_through_export_register_unregister() {
    let nodes: Vec<NodeHandle> = (0..2)
        .map(|_| spawn_node(&node_spec("baseline", 2)).unwrap())
        .collect();
    let topology = Topology::new(nodes.iter().map(|h| h.addr().to_owned()).collect()).unwrap();
    let mut cluster = Cluster::connect(&topology, ClusterConfig::default()).unwrap();
    let oracle = oracle("baseline", 2);

    let user = 4u32;
    let from = cluster.owner_of(UserId::new(user));
    let to = 1 - from;
    let mut handle = |line: &str| -> String {
        match cluster.handle(line) {
            pm_coord::Routed::Line(text) => text,
            other => panic!("unexpected routing for `{line}`: {other:?}"),
        }
    };
    let register = format!("REGISTER {user} {}", preference_rows(user));
    assert_eq!(handle(&register), oracle.respond_line(&register));
    for start in (0..24).step_by(8) {
        let line = ingest_line(start, 8);
        assert_eq!(handle(&line), oracle.respond_line(&line));
    }
    let frontier = format!("FRONTIER {user}");
    let before = handle(&frontier);
    assert_eq!(before, oracle.respond_line(&frontier));

    cluster.migrate_user(UserId::new(user), from, to).unwrap();

    // The old owner no longer knows the user; the new owner's backfilled
    // frontier is exactly the oracle's.
    let mut old_owner = TextClient::connect(topology.addr(from)).unwrap();
    let r = old_owner.ask(&frontier).unwrap();
    assert!(r.starts_with("ERR "), "drained user still present: {r}");
    let mut new_owner = TextClient::connect(topology.addr(to)).unwrap();
    assert_eq!(new_owner.ask(&frontier).unwrap(), before);

    for node in nodes {
        node.kill();
    }
}
