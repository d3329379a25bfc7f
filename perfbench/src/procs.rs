//! Child-process supervision: spawn `pm-server`/`pm-coord`, wait for their
//! listeners, read their peak RSS, and kill them (and remove their WAL
//! directories) on every exit path, panics included.

use std::fs::File;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::{Deploy, Spec};

/// Owns every child process and scratch file of one deployment. Dropping
/// it kills and reaps the children and removes their WAL directories, logs
/// and topology file.
pub struct Deployment {
    children: Vec<(String, Child, PathBuf)>,
    dirs: Vec<PathBuf>,
    files: Vec<PathBuf>,
    /// The client-facing address (`pm-coord` or the single server).
    pub addr: String,
}

/// Fails when something already listens on (or holds) `port`, so a stale
/// server from an earlier run is never measured by mistake.
pub fn ensure_port_free(port: u16) -> Result<(), String> {
    let addr: SocketAddr = ([127, 0, 0, 1], port).into();
    if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
        return Err(format!("port {port} is already served by another process"));
    }
    TcpListener::bind(addr)
        .map(drop)
        .map_err(|e| format!("port {port} is not free: {e}"))
}

/// The servers run at a lower scheduling priority than the load generator,
/// so on a small host a saturated server delays the generator's sends and
/// reply timestamps as little as possible.
fn niced(program: &Path) -> Command {
    let mut cmd = Command::new("nice");
    cmd.args(["-n", "5"]).arg(program);
    cmd
}

fn wait_listening(addr: &str, child: &mut Child, name: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let sock: SocketAddr = addr.parse().map_err(|e| format!("{addr}: {e}"))?;
    loop {
        if TcpStream::connect_timeout(&sock, Duration::from_millis(100)).is_ok() {
            return Ok(());
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("{name} exited during start-up: {status}"));
        }
        if Instant::now() > deadline {
            return Err(format!("{name} did not listen on {addr} within 60 s"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl Deployment {
    /// Starts the workload's processes with an empty population and waits
    /// until the client-facing listener accepts connections. Ports are
    /// `port..port + 3`.
    pub fn start(spec: &Spec, bin_dir: &Path, work: &Path, port: u16) -> Result<Self, String> {
        let mut this = Deployment {
            children: Vec::new(),
            dirs: Vec::new(),
            files: Vec::new(),
            addr: String::new(),
        };
        let (nodes, shards, wal) = match spec.deploy {
            Deploy::Single { shards } => (1, shards, false),
            Deploy::Cluster { nodes, shards } => (nodes, shards, true),
        };
        let ports: Vec<u16> = (0..=nodes as u16).map(|i| port + i).collect();
        for &p in &ports {
            ensure_port_free(p)?;
        }
        let mut node_addrs = Vec::new();
        for (node, client_port) in ports[..nodes].iter().enumerate() {
            let addr = format!("127.0.0.1:{client_port}");
            let mut cmd = niced(&bin_dir.join("pm-server"));
            cmd.args(["--node", "--addr", &addr, "--backend", spec.backend])
                .args(["--shards", &shards.to_string()])
                // `--node` ignores the simulated population; keep the
                // schema-only dataset tiny so start-up is fast.
                .args(["--users", "1", "--objects", "64", "--interactions", "8"])
                .args(["--slow-op-ms", "0", "--log", "error"]);
            if wal {
                let dir = work.join(format!("wal-{port}-{node}"));
                // A leftover directory would be recovered, not measured.
                let _ = std::fs::remove_dir_all(&dir);
                this.dirs.push(dir.clone());
                cmd.arg("--wal-dir").arg(&dir).args(["--wal-sync", "batch"]);
            }
            this.spawn(cmd, &format!("pm-server-{node}"), work, &addr)?;
            node_addrs.push(addr);
        }
        if wal {
            let topo = work.join(format!("cluster-{port}.topo"));
            this.files.push(topo.clone());
            std::fs::write(&topo, node_addrs.join("\n") + "\n")
                .map_err(|e| format!("cannot write topology: {e}"))?;
            let addr = format!("127.0.0.1:{}", ports[nodes]);
            let mut cmd = niced(&bin_dir.join("pm-coord"));
            cmd.arg("--topology")
                .arg(&topo)
                .args(["--addr", &addr, "--log", "error"]);
            this.spawn(cmd, "pm-coord", work, &addr)?;
            this.addr = addr;
        } else {
            this.addr = node_addrs.swap_remove(0);
        }
        Ok(this)
    }

    fn spawn(
        &mut self,
        mut cmd: Command,
        name: &str,
        work: &Path,
        addr: &str,
    ) -> Result<(), String> {
        let log_path = work.join(format!("{name}-{}.log", addr.replace(':', "_")));
        let log = File::create(&log_path).map_err(|e| format!("cannot create log: {e}"))?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        self.children.push((name.to_owned(), child, log_path));
        let (_, child, _) = self.children.last_mut().expect("just pushed");
        wait_listening(addr, child, name)
    }

    /// Peak resident set size (`VmHWM`) summed over the serving processes
    /// (every `pm-server` and, on a cluster, `pm-coord`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|(_, child, _)| {
                let status =
                    std::fs::read_to_string(format!("/proc/{}/status", child.id())).ok()?;
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
                Some(kb / 1024.0)
            })
            .sum()
    }

    /// Whether every child is still running; names the first that is not.
    pub fn check_alive(&mut self) -> Result<(), String> {
        for (name, child, log) in &mut self.children {
            if let Ok(Some(status)) = child.try_wait() {
                let tail = std::fs::read_to_string(&*log).unwrap_or_default();
                return Err(format!("{name} died ({status}): {}", tail.trim()));
            }
        }
        Ok(())
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for (_, child, _) in &mut self.children {
            let _ = child.kill();
        }
        for (_, child, log) in &mut self.children {
            let _ = child.wait();
            let _ = std::fs::remove_file(log);
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        for file in &self.files {
            let _ = std::fs::remove_file(file);
        }
    }
}

/// The host's CPU time counters (`/proc/stat`, all CPUs, in ticks): how
/// much time the hypervisor gave to other guests (steal) shows when a run
/// measured a slow spell of the host rather than the program.
#[derive(Clone, Copy)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user and nice).
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some(CpuTicks {
            total: fields.iter().sum(),
            steal: *fields.get(7)?,
        })
    }

    /// Share of the host's CPU time stolen since `self`; NaN when unknown.
    pub fn steal_share_since(start: Option<Self>) -> f64 {
        match (start, Self::now()) {
            (Some(a), Some(b)) if b.total > a.total => {
                (b.steal - a.steal) as f64 / (b.total - a.total) as f64
            }
            _ => f64::NAN,
        }
    }
}
