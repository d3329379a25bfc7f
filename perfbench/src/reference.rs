//! The correctness check: replays the request sequence a server applied
//! on an exact `pm-core` monitor (`BaselineMonitor` for append-only
//! backends, `BaselineSwMonitor` for sliding windows) and compares every
//! reply.

use std::collections::{HashMap, HashSet};

use pm_core::{BaselineMonitor, BaselineSwMonitor, ContinuousMonitor};
use pm_model::{Object, UserId};
use pm_porder::Preference;

/// One request of a server's life, with the reply it got.
#[derive(Debug, Clone)]
pub enum Op {
    Register(u32, Preference),
    Update(u32, Preference),
    Unregister(u32),
    Ingest(Vec<Object>),
    Frontier(u32),
    Query(u64),
    Subscribe,
}

/// The replayed outcome.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests that answered `ERR`, were refused, or (exact backends)
    /// returned a wrong target set or frontier.
    pub failed: u64,
    /// Micro-averaged target-set agreement over every ingested object.
    pub true_pos: u64,
    pub false_pos: u64,
    pub false_neg: u64,
    /// First few failure descriptions, for the log.
    pub problems: Vec<String>,
    /// Server-reported targets per object id.
    pub targets: HashMap<u64, Vec<u32>>,
}

impl Verdict {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    pub fn recall(&self) -> f64 {
        ratio(self.true_pos, self.true_pos + self.false_neg)
    }

    pub fn precision(&self) -> f64 {
        ratio(self.true_pos, self.true_pos + self.false_pos)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        1.0
    } else {
        a as f64 / b as f64
    }
}

enum Exact {
    Append(Box<BaselineMonitor>),
    Window(Box<BaselineSwMonitor>),
}

impl Exact {
    fn monitor(&mut self) -> &mut dyn ContinuousMonitor {
        match self {
            Exact::Append(m) => m.as_mut(),
            Exact::Window(m) => m.as_mut(),
        }
    }
}

/// Maps global user ids to a monitor's dense local ids, which
/// `remove_user` renumbers (the highest local id takes the removed one's).
#[derive(Default)]
pub struct Members {
    local_of: HashMap<u32, UserId>,
    global_of: Vec<u32>,
}

impl Members {
    pub fn add(&mut self, monitor: &mut dyn ContinuousMonitor, user: u32, preference: Preference) {
        let local = monitor.add_user(preference);
        self.local_of.insert(user, local);
        self.global_of.push(user);
    }

    pub fn remove(&mut self, monitor: &mut dyn ContinuousMonitor, user: u32) {
        if let Some(local) = self.local_of.remove(&user) {
            if let Some(moved) = monitor.remove_user(local) {
                let moved_global = self.global_of[moved.index()];
                self.global_of[local.index()] = moved_global;
                self.local_of.insert(moved_global, local);
            }
            self.global_of.pop();
        }
    }

    pub fn local(&self, user: u32) -> Option<UserId> {
        self.local_of.get(&user).copied()
    }

    pub fn global(&self, local: UserId) -> u32 {
        self.global_of[local.index()]
    }
}

/// The exact answers for one partition of the users: target users per
/// ingested object (in arrival order) and the frontier at every
/// `FRONTIER` request for one of its users.
#[derive(Default)]
struct Answers {
    targets: Vec<Vec<u32>>,
    frontiers: HashMap<usize, Vec<u64>>,
}

/// Replays `ops` on an exact monitor holding only the users `u` with
/// `u % parts == part`. Users are independent, so the partitions together
/// answer exactly what one monitor over everyone would.
fn replay(ops: &[(Op, String)], window: Option<usize>, part: u32, parts: u32) -> Answers {
    let mut reference = match window {
        Some(w) => Exact::Window(Box::new(BaselineSwMonitor::new(Vec::new(), w))),
        None => Exact::Append(Box::new(BaselineMonitor::new(Vec::new()))),
    };
    let mine = |user: &u32| user % parts == part;
    let mut members = Members::default();
    let mut answers = Answers::default();
    for (i, (op, _)) in ops.iter().enumerate() {
        let monitor = reference.monitor();
        match op {
            Op::Register(user, preference) if mine(user) => {
                members.add(monitor, *user, preference.clone());
            }
            Op::Update(user, preference) if mine(user) => {
                if let Some(local) = members.local(*user) {
                    monitor.update_user(local, preference.clone());
                }
            }
            Op::Unregister(user) if mine(user) => members.remove(monitor, *user),
            Op::Ingest(objects) => {
                for object in objects {
                    let arrival = monitor.process(object.clone());
                    answers.targets.push(
                        arrival
                            .target_users
                            .iter()
                            .map(|u| members.global(*u))
                            .collect(),
                    );
                }
            }
            Op::Frontier(user) if mine(user) => {
                if let Some(local) = members.local(*user) {
                    let frontier = monitor.frontier(local).iter().map(|o| o.raw()).collect();
                    answers.frontiers.insert(i, frontier);
                }
            }
            _ => {}
        }
    }
    answers
}

/// Replays `ops` with their `replies`. `exact` demands equal target sets
/// and frontiers; otherwise target sets feed recall and precision only.
pub fn check(ops: &[(Op, String)], window: Option<usize>, exact: bool) -> Verdict {
    const PARTS: u32 = 2;
    let answers: Vec<Answers> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PARTS)
            .map(|part| scope.spawn(move || replay(ops, window, part, PARTS)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference replay panicked"))
            .collect()
    });
    let mut next_id: u64 = 0;
    let mut v = Verdict::default();
    for (i, (op, reply)) in ops.iter().enumerate() {
        match op {
            Op::Register(..) => expect_ok(&mut v, reply, "OK REGISTERED"),
            Op::Update(..) => expect_ok(&mut v, reply, "OK UPDATED"),
            Op::Unregister(_) => expect_ok(&mut v, reply, "OK UNREGISTERED"),
            Op::Subscribe => expect_ok(&mut v, reply, "OK SUBSCRIBED"),
            Op::Ingest(objects) => {
                let parsed = parse_ingested(reply);
                if parsed.as_ref().map(Vec::len) != Some(objects.len()) {
                    v.fail(format!("bad INGEST reply: {}", clip(reply)));
                }
                let parsed = parsed.unwrap_or_default();
                let first = next_id;
                next_id += objects.len() as u64;
                for (position, (id, got)) in (first..).zip(parsed) {
                    if id != position {
                        v.fail(format!("object id {id}, expected {position}"));
                    }
                    let want_set: HashSet<u32> = answers
                        .iter()
                        .filter_map(|a| a.targets.get(position as usize))
                        .flatten()
                        .copied()
                        .collect();
                    let got_set: HashSet<u32> = got.iter().copied().collect();
                    let tp = got_set.intersection(&want_set).count() as u64;
                    v.true_pos += tp;
                    v.false_pos += got_set.len() as u64 - tp;
                    v.false_neg += want_set.len() as u64 - tp;
                    if exact && got_set != want_set {
                        let mut want: Vec<u32> = want_set.into_iter().collect();
                        want.sort_unstable();
                        v.fail(format!("object {id}: targets {got:?}, reference {want:?}"));
                    }
                    v.targets.insert(id, got);
                }
            }
            Op::Frontier(user) => {
                let Some(mut got) = parse_list(reply, "OK FRONTIER ") else {
                    v.fail(format!("bad FRONTIER reply: {}", clip(reply)));
                    continue;
                };
                got.sort_unstable();
                let want = answers.iter().find_map(|a| a.frontiers.get(&i));
                if exact && want.is_some_and(|w| *w != got) {
                    v.fail(format!("frontier of {user} differs from the reference"));
                }
            }
            Op::Query(object) => {
                let Some(got) = parse_list(reply, "OK QUERY ") else {
                    v.fail(format!("bad QUERY reply: {}", clip(reply)));
                    continue;
                };
                let got: Vec<u32> = got.into_iter().map(|u| u as u32).collect();
                match v.targets.get(object) {
                    Some(at_ingest) if *at_ingest == got => {}
                    _ => v.fail(format!("QUERY {object} disagrees with its INGEST reply")),
                }
            }
        }
    }
    v
}

fn clip(s: &str) -> &str {
    &s[..s.len().min(120)]
}

fn expect_ok(v: &mut Verdict, reply: &str, prefix: &str) {
    if !reply.starts_with(prefix) {
        v.fail(format!("expected {prefix}: {}", clip(reply)));
    }
}

/// `OK INGESTED <n> id:u,u;id:u` -> `[(id, [u, ...]), ...]`.
pub fn parse_ingested(reply: &str) -> Option<Vec<(u64, Vec<u32>)>> {
    let rest = reply.strip_prefix("OK INGESTED ")?;
    let (count, body) = rest.split_once(' ').unwrap_or((rest, ""));
    let count: usize = count.parse().ok()?;
    let mut out = Vec::with_capacity(count);
    for entry in body.split(';').filter(|e| !e.is_empty()) {
        let (id, users) = entry.split_once(':')?;
        let users = users
            .split(',')
            .filter(|u| !u.is_empty())
            .map(str::parse)
            .collect::<Result<Vec<u32>, _>>()
            .ok()?;
        out.push((id.parse().ok()?, users));
    }
    (out.len() == count).then_some(out)
}

/// `<prefix><id> a,b,c` -> `[a, b, c]`.
fn parse_list(reply: &str, prefix: &str) -> Option<Vec<u64>> {
    let rest = reply.strip_prefix(prefix)?;
    let list = rest.split_once(' ').map_or("", |(_, l)| l);
    list.split(',')
        .filter(|x| !x.is_empty())
        .map(|x| x.parse().ok())
        .collect()
}
