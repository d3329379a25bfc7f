//! Observability contract of the serving stack: the `METRICS` verb's
//! Prometheus text-format exposition (metric names, HELP/TYPE headers and
//! label sets are wire contract, pinned by a golden file and stable across
//! shard counts), the STATS latency percentiles, and the protocol rules
//! around the new verb (trailing arguments answer `ERR` without killing
//! the connection).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pm_engine::reactor::ReactorConfig;
use pm_engine::{BackendSpec, EngineConfig, EngineService, ShardedEngine};
use pm_integration_tests::{small_movie_dataset, TestServer};

/// Arity of the movie schema used by all tests here.
const ARITY: usize = 4;

fn movie_service(backend: &str, shards: usize) -> EngineService {
    let dataset = small_movie_dataset(7);
    assert_eq!(dataset.dimensions(), ARITY);
    let spec = BackendSpec::parse(backend).expect("valid backend");
    let engine = ShardedEngine::new(dataset.preferences, &EngineConfig::new(shards), &spec);
    EngineService::new(engine, spec, ARITY, 64)
}

/// Drives every verb once so each per-verb series and stage histogram has
/// recorded at least one observation before the scrape.
fn exercise(svc: &EngineService) {
    for i in 0..8 {
        let r = svc.respond_line(&format!("INGEST {},{},{},{}", i % 3, i % 2, i % 4, i % 5));
        assert!(r.starts_with("OK INGESTED"), "{r}");
    }
    assert!(svc.respond_line("QUERY 0").starts_with("OK"));
    assert!(svc.respond_line("FRONTIER 0").starts_with("OK"));
    assert!(svc.respond_line("REGISTER 99 0>1;-;-;-").starts_with("OK"));
    assert!(svc.respond_line("UPDATE 99 1>0;-;-;-").starts_with("OK"));
    assert!(svc.respond_line("UNREGISTER 99").starts_with("OK"));
    assert!(svc.respond_line("EXPIRE").starts_with("OK"));
    assert!(svc.respond_line("STATS").starts_with("OK"));
    assert!(svc.respond_line("HEALTH").starts_with("OK"));
    // One parse failure, so the error counter is exercised too.
    assert!(svc.respond_line("GARBAGE").starts_with("ERR"));
}

/// Scrapes via the wire verb and strips the `OK METRICS <bytes>` header,
/// checking the advertised byte length against the body.
fn scrape(svc: &EngineService) -> String {
    let response = svc.respond_line("METRICS");
    let (header, body) = response.split_once('\n').expect("header + body");
    let bytes: usize = header
        .strip_prefix("OK METRICS ")
        .unwrap_or_else(|| panic!("bad METRICS header: {header}"))
        .parse()
        .expect("byte length");
    assert_eq!(body.len(), bytes, "header length must match the body");
    body.to_owned()
}

/// Reduces an exposition to its structural skeleton: comment lines are kept
/// verbatim, sample lines lose their value, and the label values that vary
/// with deployment shape or data (`shard`, `le`, `backend`, `shards`) are
/// normalized to `*` with consecutive duplicates collapsed. The skeleton is
/// therefore identical for any shard count and any ingested stream — it
/// pins exactly the wire contract: names, HELP/TYPE lines and label sets.
fn skeleton(exposition: &str) -> Vec<String> {
    let normalize = |name_and_labels: &str| -> String {
        let Some((name, labels)) = name_and_labels.split_once('{') else {
            return name_and_labels.to_owned();
        };
        let labels = labels.trim_end_matches('}');
        let normalized: Vec<String> = labels
            .split(',')
            .map(|pair| {
                let (key, _value) = pair.split_once('=').expect("k=\"v\" label");
                match key {
                    "shard" | "le" | "backend" | "shards" => format!("{key}=\"*\""),
                    _ => pair.to_owned(),
                }
            })
            .collect();
        format!("{name}{{{}}}", normalized.join(","))
    };
    let mut lines: Vec<String> = Vec::new();
    for line in exposition.lines() {
        let entry = if line.starts_with('#') {
            line.to_owned()
        } else {
            let name_and_labels = line.rsplit_once(' ').map_or(line, |(head, _value)| head);
            normalize(name_and_labels)
        };
        if lines.last() != Some(&entry) {
            lines.push(entry);
        }
    }
    lines
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/metrics_exposition.golden"
);

#[test]
fn metrics_exposition_skeleton_matches_golden_file() {
    let svc = movie_service("baseline", 2);
    exercise(&svc);
    let skeleton = skeleton(&scrape(&svc)).join("\n") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &skeleton).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        skeleton, golden,
        "metric names / HELP / TYPE / label sets changed; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and document the rename"
    );
}

#[test]
fn metrics_skeleton_is_stable_across_shard_counts_and_backends() {
    let reference = {
        let svc = movie_service("baseline", 1);
        exercise(&svc);
        skeleton(&scrape(&svc))
    };
    for (backend, shards) in [("baseline", 4), ("ftv:0.4", 2), ("baseline-sw:16", 3)] {
        let svc = movie_service(backend, shards);
        exercise(&svc);
        assert_eq!(
            skeleton(&scrape(&svc)),
            reference,
            "skeleton differs for backend={backend} shards={shards}"
        );
    }
}

#[test]
fn exposition_is_well_formed_prometheus_text_format() {
    let svc = movie_service("baseline", 2);
    exercise(&svc);
    let body = scrape(&svc);
    let mut typed: std::collections::HashMap<String, String> = Default::default();
    let mut helped: std::collections::HashSet<String> = Default::default();
    for line in body.lines() {
        assert!(!line.trim().is_empty(), "no blank lines inside the body");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap();
            assert!(helped.insert(name.to_owned()), "duplicate HELP for {name}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line}");
            assert!(helped.contains(name), "TYPE before HELP for {name}");
            typed.insert(name.to_owned(), kind.to_owned());
        } else {
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let sample_name = series.split('{').next().unwrap();
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad sample value: {line}"));
            // Histogram samples append _bucket/_sum/_count to the family name.
            let family = typed.keys().find(|family| {
                sample_name == **family
                    || ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suffix| sample_name == format!("{family}{suffix}"))
            });
            assert!(family.is_some(), "sample without TYPE header: {line}");
        }
    }
    // The acceptance-critical series are present with real observations.
    assert!(
        body.contains("pm_request_duration_seconds_count{verb=\"ingest\"}"),
        "{body}"
    );
    assert!(body.contains("pm_shard_queue_depth{shard=\"1\"}"), "{body}");
    assert!(body.contains("pm_ingest_stage_duration_seconds_count{stage=\"fan_in\"}"));
    let ingested = body
        .lines()
        .find(|l| l.starts_with("pm_objects_ingested_total"))
        .unwrap();
    assert_eq!(ingested, "pm_objects_ingested_total 8");
}

#[test]
fn stats_reports_latency_percentiles_and_recent_rate() {
    let svc = movie_service("baseline", 2);
    exercise(&svc);
    let stats = svc.respond_line("STATS");
    let field = |key: &str| -> f64 {
        stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key))
            .unwrap_or_else(|| panic!("STATS lacks {key}: {stats}"))
            .parse()
            .unwrap()
    };
    let p50 = field("ingest_p50_us=");
    let p95 = field("ingest_p95_us=");
    let p99 = field("ingest_p99_us=");
    assert!(p50 > 0.0, "{stats}");
    assert!(p50 <= p95 && p95 <= p99, "{stats}");
    assert!(field("recent_arrivals_per_sec=") > 0.0, "{stats}");
}

#[test]
fn metrics_with_trailing_args_is_err_and_metrics_off_is_err() {
    let svc = movie_service("baseline", 2);
    assert!(svc.respond_line("METRICS 0.0.4").starts_with("ERR"));
    assert!(svc.respond_line("METRICS please").starts_with("ERR"));
    // The service still answers a clean scrape afterwards.
    assert!(svc.respond_line("METRICS").starts_with("OK METRICS "));

    let dataset = small_movie_dataset(7);
    let spec = BackendSpec::parse("baseline").unwrap();
    let off = ShardedEngine::new(
        dataset.preferences,
        &EngineConfig::new(2).with_metrics(false),
        &spec,
    );
    let off = EngineService::new(off, spec, ARITY, 64);
    assert!(off.respond_line("INGEST 1,1,1,1").starts_with("OK"));
    assert!(off
        .respond_line("METRICS")
        .starts_with("ERR metrics are disabled"));
    // STATS still answers, with zeroed percentiles.
    let stats = off.respond_line("STATS");
    assert!(stats.contains("ingest_p50_us=0"), "{stats}");
}

#[test]
fn metrics_over_tcp_survives_bad_args_and_streams_the_exposition() {
    let svc = Arc::new(movie_service("baseline", 2));
    exercise(&svc);
    let server = TestServer::spawn(Arc::clone(&svc), ReactorConfig::default());
    let addr = server.addr;

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut send = |req: &str| {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
    };
    let read_line = |reader: &mut BufReader<TcpStream>| -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_owned()
    };

    // A malformed METRICS answers ERR and the connection keeps serving.
    send("METRICS 0.0.4");
    assert!(read_line(&mut reader).starts_with("ERR"));

    // A clean scrape: header advertises the body length; the body is
    // followed by one terminating blank line.
    send("METRICS");
    let header = read_line(&mut reader);
    let bytes: usize = header
        .strip_prefix("OK METRICS ")
        .unwrap_or_else(|| panic!("bad header: {header}"))
        .parse()
        .unwrap();
    let mut body = vec![0u8; bytes];
    reader.read_exact(&mut body).unwrap();
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("# TYPE pm_request_duration_seconds histogram"));
    assert!(body.contains("pm_shard_queue_depth{shard=\"0\"}"));
    assert_eq!(read_line(&mut reader), "", "blank-line terminator");

    // The same connection still serves ordinary verbs afterwards.
    send("HEALTH");
    assert!(read_line(&mut reader).starts_with("OK HEALTH"));
    send("QUIT");
    assert_eq!(read_line(&mut reader), "OK BYE");
}
