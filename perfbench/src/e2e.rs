//! The untraced end-to-end run: set up real processes, drive the
//! workload over TCP, check every reply against the exact reference.
//!
//! A run sets the deployment up [`SETUPS`] times. Each set-up is timed
//! (`setup_s` is their median) and followed by the closed-loop phase
//! (`closed_obj_s` is their median). The first one stays up for the
//! open-loop rate ladder and, for verbs the workload's mix does not carry,
//! the closed-loop probes; the others run between the ladder's rounds and
//! are torn down at once.
//!
//! Tail latencies are reported as the median, over consecutive windows of
//! [`WINDOW`] samples, of each window's p99: the host's speed wanders by
//! tens of percent from second to second, and one slow second should move
//! one window, not the result.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::gen::{self, Inputs, MixGen, Planned, Spec};
use crate::procs::{CpuTicks, Deployment};
use crate::reference::{self, Op};
use crate::stats::{median, percentile, Metrics};
use crate::wire::{run_open, Client, EventSink, Record};

/// Timed set-ups per run: the live one, then the rest spread over the
/// gaps after the ladder rounds, so their median samples the host over
/// the whole run rather than one stretch of it.
const SETUPS: usize = 7;

/// Ports between the first ports of consecutive set-ups (a set-up uses at
/// most three: two nodes and the coordinator).
const PORT_STRIDE: u16 = 5;

/// Samples per window of the windowed p99.
const WINDOW: usize = 100;

/// A run whose generator started its sends later (p99) than this share of
/// the workload's latency limit measured the load generator, not the
/// program: it is reported invalid.
const GEN_LATE_SHARE: f64 = 0.1;

/// Closed-loop probe sizes for reads and membership changes, on workloads
/// whose open-loop mix carries none.
const PROBE_READS: usize = 400;
const PROBE_CHURN: usize = 201;

pub struct Options<'a> {
    pub bin_dir: &'a Path,
    pub work: &'a Path,
    pub port: u16,
    pub seconds: f64,
}

/// What one end-to-end run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Human-readable lines for the log (steps, problems).
    pub notes: Vec<String>,
    pub gen_late_p99_ms: f64,
    pub valid: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over consecutive windows of about [`WINDOW`] samples of each
/// window's p99 (samples in time order); NaN when empty.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    let windows = (samples.len() / WINDOW).max(1);
    let p99s: Vec<f64> = (0..windows)
        .filter_map(|i| {
            let from = i * samples.len() / windows;
            let to = (i + 1) * samples.len() / windows;
            percentile(&samples[from..to], 0.99)
        })
        .collect();
    median(&p99s).unwrap_or(f64::NAN)
}

/// A ladder step's outcome.
struct Step {
    ingest_ms: Vec<f64>,
    read_ms: Vec<f64>,
    churn_ms: Vec<f64>,
    /// (object id, due) of the step's ingests.
    ingests: Vec<(u64, Instant)>,
    achieved: f64,
    backlog: usize,
    errors: usize,
    pass: bool,
}

/// Spawns the deployment and brings it to the measured state: population
/// registered, window filled, subscriptions open.
fn set_up(
    spec: &Spec,
    inputs: &Inputs,
    opts: &Options,
    port: u16,
    ops: &mut Vec<(Op, String)>,
    phases: &mut Vec<(&'static str, Duration)>,
) -> Result<(Deployment, Client, Client), String> {
    let mut mark = Instant::now();
    let mut phase = |name: &'static str| {
        phases.push((name, mark.elapsed()));
        mark = Instant::now();
    };
    let deployment = Deployment::start(spec, opts.bin_dir, opts.work, port)?;
    phase("spawn");
    let mut req = Client::connect(&deployment.addr)?;
    let lines: Vec<String> = inputs
        .population
        .iter()
        .enumerate()
        .map(|(u, p)| gen::register_line(u as u32, p))
        .collect();
    let replies = req.pipeline(&lines)?;
    for ((u, p), reply) in inputs.population.iter().enumerate().zip(replies) {
        ops.push((Op::Register(u as u32, p.clone()), reply));
    }
    phase("register");
    for chunk in inputs.objects[..spec.warm].chunks(gen::BATCH) {
        let reply = req.ask(&gen::ingest_line(chunk))?;
        ops.push((Op::Ingest(chunk.to_vec()), reply));
    }
    phase("warm");
    let mut sub = Client::connect(&deployment.addr)?;
    let lines: Vec<String> = (0..spec.subscribed)
        .map(|u| format!("SUBSCRIBE {u}"))
        .collect();
    for reply in sub.pipeline(&lines)? {
        ops.push((Op::Subscribe, reply));
    }
    phase("subscribe");
    Ok((deployment, req, sub))
}

/// Batched ingest with one batch in flight; returns objects per second.
fn closed_phase(
    spec: &Spec,
    inputs: &Inputs,
    req: &mut Client,
    sub: &mut std::net::TcpStream,
    sink: &mut EventSink,
    ops: &mut Vec<(Op, String)>,
) -> Result<f64, String> {
    let closed = &inputs.objects[spec.warm..spec.warm + spec.closed];
    let start = Instant::now();
    for chunk in closed.chunks(gen::BATCH) {
        let reply = req.ask(&gen::ingest_line(chunk))?;
        ops.push((Op::Ingest(chunk.to_vec()), reply));
        sink.drain(sub)?;
    }
    Ok(closed.len() as f64 / start.elapsed().as_secs_f64())
}

/// The open-loop request plan of one ladder step: `n` requests at
/// `total_rate` per second.
fn plan_step(
    inputs: &Inputs,
    mix: &mut MixGen,
    next_obj: &mut usize,
    n: usize,
    total_rate: f64,
) -> (Vec<(Duration, String)>, Vec<Op>) {
    let mut schedule = Vec::with_capacity(n);
    let mut planned = Vec::with_capacity(n);
    for i in 0..n {
        let offset = Duration::from_secs_f64(i as f64 / total_rate);
        let (op, line) = match mix.next() {
            Planned::Ingest => {
                let object = inputs.objects[*next_obj].clone();
                *next_obj += 1;
                let line = gen::ingest_line(std::slice::from_ref(&object));
                (Op::Ingest(vec![object]), line)
            }
            Planned::Frontier(u) => (Op::Frontier(u), format!("FRONTIER {u}")),
            Planned::Query { back } => {
                let object = (*next_obj - 1).saturating_sub(back) as u64;
                (Op::Query(object), format!("QUERY {object}"))
            }
            Planned::Register { user, spare } => {
                let p = &inputs.spares[spare];
                let line = gen::register_line(user, p);
                (Op::Register(user, p.clone()), line)
            }
            Planned::Update { user, spare } => {
                let p = &inputs.spares[spare];
                let line = format!("UPDATE {user} {}", gen::preference_rows(p));
                (Op::Update(user, p.clone()), line)
            }
            Planned::Unregister { user } => (Op::Unregister(user), format!("UNREGISTER {user}")),
        };
        schedule.push((offset, line));
        planned.push(op);
    }
    (schedule, planned)
}

/// Closed-loop probes of reads and membership changes, one request in
/// flight, for the verbs the workload's open-loop mix does not carry.
fn probes(
    spec: &Spec,
    inputs: &Inputs,
    req: &mut Client,
    next_obj: usize,
    ops: &mut Vec<(Op, String)>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut read_ms = Vec::new();
    let mut churn_ms = Vec::new();
    let mut ask = |op: Op, line: String, into: &mut Vec<f64>| -> Result<(), String> {
        let start = Instant::now();
        let reply = req.ask(&line)?;
        into.push(ms(start.elapsed()));
        ops.push((op, reply));
        Ok(())
    };
    if spec.read_share == 0.0 {
        for i in 0..PROBE_READS {
            if i % 2 == 0 {
                let user = (i * 7919 % spec.users) as u32;
                ask(Op::Frontier(user), format!("FRONTIER {user}"), &mut read_ms)?;
            } else {
                let object = (next_obj - 1).saturating_sub(i % 64) as u64;
                ask(Op::Query(object), format!("QUERY {object}"), &mut read_ms)?;
            }
        }
    }
    if spec.churn_share == 0.0 {
        // Register a new user, update a base user, unregister the new one.
        for i in 0..PROBE_CHURN {
            let spare = &inputs.spares[i % inputs.spares.len()];
            let user = gen::CHURN_USER_BASE + (i / 3) as u32;
            let rows = gen::preference_rows(spare);
            match i % 3 {
                0 => ask(
                    Op::Register(user, spare.clone()),
                    format!("REGISTER {user} {rows}"),
                    &mut churn_ms,
                )?,
                1 => {
                    let base = (i * 7919 % spec.users) as u32;
                    ask(
                        Op::Update(base, spare.clone()),
                        format!("UPDATE {base} {rows}"),
                        &mut churn_ms,
                    )?
                }
                _ => ask(
                    Op::Unregister(user),
                    format!("UNREGISTER {user}"),
                    &mut churn_ms,
                )?,
            }
        }
    }
    Ok((read_ms, churn_ms))
}

/// The timed set-ups of a run: their times, closed-loop rates, and the
/// replies of the ones torn down (checked for `ERR` only; the live one's
/// go to the reference check).
#[derive(Default)]
struct SetUps {
    setup_s: Vec<f64>,
    closed_obj_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// A set-up brought to the measured state, with its connections and the
/// requests it has answered so far.
struct Live {
    deployment: Deployment,
    req: Client,
    sub: std::net::TcpStream,
    sink: EventSink,
    ops: Vec<(Op, String)>,
}

impl SetUps {
    /// The next timed set-up, on ports of its own, followed by the
    /// closed-loop phase.
    fn next(
        &mut self,
        spec: &Spec,
        inputs: &Inputs,
        opts: &Options,
        notes: &mut Vec<String>,
    ) -> Result<Live, String> {
        let rep = self.setup_s.len();
        let mut ops = Vec::new();
        let mut phases = Vec::new();
        let ticks = CpuTicks::now();
        let start = Instant::now();
        let (deployment, mut req, sub) = set_up(
            spec,
            inputs,
            opts,
            opts.port + PORT_STRIDE * rep as u16,
            &mut ops,
            &mut phases,
        )?;
        self.setup_s.push(start.elapsed().as_secs_f64());
        notes.push(format!(
            "set-up {rep}: {:.3} s ({}; host steal {:.1}%)",
            self.setup_s[rep],
            phases
                .iter()
                .map(|(name, d)| format!("{name} {:.3}", d.as_secs_f64()))
                .collect::<Vec<_>>()
                .join(", "),
            CpuTicks::steal_share_since(ticks) * 100.0
        ));
        let mut sink = EventSink::default();
        let mut sub = sub.into_stream();
        self.closed_obj_s.push(closed_phase(
            spec, inputs, &mut req, &mut sub, &mut sink, &mut ops,
        )?);
        Ok(Live {
            deployment,
            req,
            sub,
            sink,
            ops,
        })
    }

    /// A further timed set-up, torn down at once.
    fn throwaway(
        &mut self,
        spec: &Spec,
        inputs: &Inputs,
        opts: &Options,
        notes: &mut Vec<String>,
    ) -> Result<(), String> {
        let live = self.next(spec, inputs, opts, notes)?;
        self.attempted += live.ops.len() as u64;
        self.failed += live
            .ops
            .iter()
            .filter(|(_, r)| r.starts_with("ERR"))
            .count() as u64;
        Ok(())
    }
}

pub fn run(spec: &Spec, inputs: &Inputs, opts: &Options) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut setups = SetUps::default();
    let Live {
        mut deployment,
        req,
        mut sub,
        mut sink,
        mut ops,
    } = setups.next(spec, inputs, opts, &mut notes)?;

    // Open loop: rounds of the rate ladder, each climbing until a step
    // past the high point misses the limit.
    let req = req.into_stream();
    let mut mix = MixGen::new(spec, inputs);
    let mut next_obj = spec.warm + spec.closed;
    let mut rounds: Vec<Vec<Step>> = Vec::new();
    let mut gen_late: Vec<f64> = Vec::new();
    for round in 0..gen::ROUNDS {
        let mut steps = Vec::new();
        for (k, &rate) in spec.ladder.iter().enumerate() {
            let total_rate = rate / spec.ingest_share();
            let n = (total_rate * spec.step_seconds(opts.seconds, k))
                .round()
                .max(1.0) as usize;
            let (schedule, planned) = plan_step(inputs, &mut mix, &mut next_obj, n, total_rate);
            deployment.check_alive()?;
            let start = Instant::now() + Duration::from_millis(5);
            let records = run_open(&req, Some((&sub, &mut sink)), start, &schedule)?;
            let step_end = start + Duration::from_secs_f64(n as f64 / total_rate);
            let step = evaluate(spec, rate, &planned, &records, step_end);
            let step_late: Vec<f64> = records.iter().map(|r| ms(r.gen_late)).collect();
            notes.push(format!(
                "round {round} step {k}: rate {rate:.0} obj/s achieved {:.1} p50 {:.2} ms \
                 p99 {:.2} ms backlog {} errors {} generator late p99 {:.3} ms {}",
                step.achieved,
                percentile(&step.ingest_ms, 0.5).unwrap_or(f64::NAN),
                windowed_p99(&step.ingest_ms),
                step.backlog,
                step.errors,
                percentile(&step_late, 0.99).unwrap_or(0.0),
                if step.pass { "pass" } else { "FAIL" }
            ));
            gen_late.extend(step_late);
            ops.extend(
                planned
                    .into_iter()
                    .zip(records.into_iter().map(|r| r.reply)),
            );
            let pass = step.pass;
            steps.push(step);
            if !pass && k >= gen::HIGH {
                break;
            }
        }
        rounds.push(steps);
        let extras = (SETUPS - 1) * (round + 1) / gen::ROUNDS - (SETUPS - 1) * round / gen::ROUNDS;
        for _ in 0..extras {
            setups.throwaway(spec, inputs, opts, &mut notes)?;
        }
    }

    let mut req = Client::from_stream(req)?;
    let probe_start = Instant::now();
    let (probe_read_ms, probe_churn_ms) = probes(spec, inputs, &mut req, next_obj, &mut ops)?;
    notes.push(format!(
        "probes took {:.1} s",
        probe_start.elapsed().as_secs_f64()
    ));

    // Barrier: the server answers HEALTH on the subscriber connection after
    // writing every event queued before it.
    {
        use std::io::Write;
        sub.write_all(b"HEALTH\n")
            .map_err(|e| format!("send: {e}"))?;
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sink.replies.iter().any(|r| r.starts_with("OK HEALTH")) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        sink.drain(&mut sub)?;
    }
    std::thread::sleep(Duration::from_millis(100));
    sink.drain(&mut sub)?;
    let rss_mb = deployment.peak_rss_mb();
    deployment.check_alive()?;
    drop((req, sub, deployment));
    let attempted = setups.attempted + ops.len() as u64 + 1;

    // Correctness, outside every timed region.
    let check_start = Instant::now();
    let verdict = reference::check(&ops, spec.window(), spec.exact());
    notes.push(format!(
        "reference check of {} requests took {:.1} s",
        ops.len(),
        check_start.elapsed().as_secs_f64()
    ));
    let mut failed = setups.failed + verdict.failed;
    // Objects from `spec.warm` on arrived after the subscriptions opened:
    // every subscribed target user must have been told.
    let mut missing_events = 0u64;
    for (object, targets) in &verdict.targets {
        for user in targets {
            if *object >= spec.warm as u64
                && (*user as usize) < spec.subscribed
                && !sink.entered.contains(&(*user, *object))
            {
                missing_events += 1;
            }
        }
    }
    if missing_events > 0 {
        notes.push(format!(
            "{missing_events} subscribed target deliveries without an EVENT"
        ));
        failed += missing_events;
    }
    notes.extend(verdict.problems.iter().map(|p| format!("check: {p}")));

    // Metrics: medians over rounds. Read, membership and event latencies
    // pool the low and high points of every round, where the workload runs
    // below its knee.
    let knees: Vec<f64> = rounds
        .iter()
        .map(|steps| {
            steps
                .iter()
                .rev()
                .find(|s| s.pass)
                .map_or(0.0, |s| s.achieved)
        })
        .collect();
    let sustained = median(&knees).unwrap_or(0.0);
    notes.push(format!("sustained per round: {knees:.1?} obj/s"));
    let below_knee: Vec<&Step> = rounds
        .iter()
        .flat_map(|steps| steps.iter().take(gen::HIGH + 1))
        .collect();
    let pooled = |f: fn(&Step) -> &Vec<f64>| -> Vec<f64> {
        below_knee
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect()
    };
    let read_ms = if spec.read_share > 0.0 {
        pooled(|s| &s.read_ms)
    } else {
        probe_read_ms
    };
    let churn_ms = if spec.churn_share > 0.0 {
        pooled(|s| &s.churn_ms)
    } else {
        probe_churn_ms
    };
    // Event lag of objects that entered a subscribed user's frontier on
    // arrival (a later `+` from window expiry is not a delivery delay).
    let subscribed_target = |id: &u64| {
        verdict
            .targets
            .get(id)
            .is_some_and(|t| t.iter().any(|u| (*u as usize) < spec.subscribed))
    };
    let event_ms: Vec<f64> = below_knee
        .iter()
        .flat_map(|s| s.ingests.iter())
        .filter(|(id, _)| subscribed_target(id))
        .filter_map(|(id, due)| {
            sink.first_enter
                .get(id)
                .map(|at| ms(at.saturating_duration_since(*due)))
        })
        .collect();
    notes.push(format!(
        "samples: read {} churn {} event {}",
        read_ms.len(),
        churn_ms.len(),
        event_ms.len()
    ));
    // A fixed-rate point: the median over rounds of each round's figure.
    let point = |k: usize, tail: bool| {
        let per_round: Vec<f64> = rounds
            .iter()
            .filter_map(|steps| steps.get(k))
            .map(|s| {
                if tail {
                    windowed_p99(&s.ingest_ms)
                } else {
                    percentile(&s.ingest_ms, 0.5).unwrap_or(f64::NAN)
                }
            })
            .collect();
        median(&per_round).unwrap_or(f64::NAN)
    };

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups.setup_s).unwrap_or(f64::NAN), "s");

    m.put("target_recall", verdict.recall(), "ratio");
    m.put("target_precision", verdict.precision(), "ratio");
    m.put("rss_mb", rss_mb, "MiB");
    // Printed, not registered: on a shared 2-core host whose speed swings
    // several-fold for minutes at a time, throughput, latencies and the
    // knee follow the host more than the program (their spread over ten
    // runs exceeds the 0.25 a gate may use).
    m.info(
        "closed_obj_s",
        median(&setups.closed_obj_s).unwrap_or(f64::NAN),
        "obj/s",
    );
    m.info("sustained_obj_s", sustained, "obj/s");
    m.info("ingest_p50_ms.low", point(gen::LOW, false), "ms");
    m.info("ingest_p50_ms.high", point(gen::HIGH, false), "ms");
    m.info("churn_p99_ms", windowed_p99(&churn_ms), "ms");
    m.info("ingest_p99_ms.low", point(gen::LOW, true), "ms");
    m.info("ingest_p99_ms.high", point(gen::HIGH, true), "ms");
    m.info("event_p99_ms", windowed_p99(&event_ms), "ms");
    m.info("read_p99_ms", windowed_p99(&read_ms), "ms");

    let gen_late_p99_ms = percentile(&gen_late, 0.99).unwrap_or(0.0);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        correct: failed == 0,
        notes,
        gen_late_p99_ms,
        valid: gen_late_p99_ms <= spec.limit_ms * GEN_LATE_SHARE,
    })
}

fn evaluate(spec: &Spec, rate: f64, ops: &[Op], records: &[Record], step_end: Instant) -> Step {
    let mut step = Step {
        ingest_ms: Vec::new(),
        read_ms: Vec::new(),
        churn_ms: Vec::new(),
        ingests: Vec::new(),
        achieved: 0.0,
        backlog: 0,
        errors: 0,
        pass: false,
    };
    let mut first_due = None;
    let mut last_done = None;
    for (op, r) in ops.iter().zip(records) {
        let latency = ms(r.done.saturating_duration_since(r.due));
        if r.reply.starts_with("ERR") {
            step.errors += 1;
        }
        if r.due <= step_end && r.done > step_end {
            step.backlog += 1;
        }
        match op {
            Op::Ingest(objects) => {
                step.ingest_ms.push(latency);
                step.ingests.push((objects[0].id().raw(), r.due));
                first_due.get_or_insert(r.due);
                last_done = Some(r.done);
            }
            Op::Frontier(_) | Op::Query(_) => step.read_ms.push(latency),
            _ => step.churn_ms.push(latency),
        }
    }
    if let (Some(a), Some(b)) = (first_due, last_done) {
        step.achieved = step.ingest_ms.len() as f64 / b.saturating_duration_since(a).as_secs_f64();
    }
    // A growing backlog shows as requests still unanswered when the step's
    // schedule ends; a stable queue holds about rate x latency of them.
    let backlog_limit = ((rate / spec.ingest_share()) * spec.limit_ms / 1e3).ceil() as usize + 1;
    step.pass = step.errors == 0
        && windowed_p99(&step.ingest_ms) <= spec.limit_ms
        && step.backlog <= backlog_limit;
    step
}
