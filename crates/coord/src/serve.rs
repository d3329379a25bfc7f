//! The coordinator's serving loop: one readiness reactor over the client
//! listener, every client connection and one *event connection* per node.
//!
//! Client traffic is the plain text protocol (the coordinator does not
//! speak frame mode; `HELLO frame` answers `ERR`). Request/response verbs
//! go through [`Cluster::handle`] synchronously — the control connections
//! are blocking with a read timeout, so a wedged node degrades instead of
//! hanging the loop forever.
//!
//! Subscriptions need an asynchronous channel: a node pushes `EVENT` lines
//! whenever a subscribed user's frontier changes. Each live node therefore
//! gets a second, nonblocking *event connection*, registered with the
//! poller. The coordinator subscribes **once per user** on that connection
//! and fans the node's `EVENT` lines out to every subscribed client
//! (refcounted); a second client subscribing to an already-subscribed user
//! gets its snapshot from a `FRONTIER` round trip on the same event
//! connection, which the node answers *in order with the event stream*, so
//! the snapshot is exactly consistent with the deltas already delivered.
//! When a node dies, every subscription it carried ends with a pushed
//! `ERR degraded node=<n>` line and the client must re-subscribe after the
//! node rejoins.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;

use pm_engine::ShutdownSignal;
use pm_model::UserId;
use pm_reactor::{Interest, Poller};

use crate::cluster::{Cluster, Routed};
use crate::node::connect_stream;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-client outbox bound in bytes; a subscriber that stops reading
    /// is evicted with a terminal `ERR lagged`, like a node would.
    pub max_outbox: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_outbox: 1 << 20,
        }
    }
}

const LISTENER: u64 = 0;
const SHUTDOWN: u64 = u64::MAX;
/// Node `i`'s event connection is registered under `EVENT_BASE + i`.
const EVENT_BASE: u64 = 1;
/// Longest line a peer may send, in bytes: `pm-server`'s default
/// `max_line`. A longer line ends the connection with a terminal `ERR`
/// instead of growing the input buffer without bound.
const MAX_LINE: usize = 16 << 20;

/// Why [`Buffered::read_lines`] stopped reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadEnd {
    /// The socket has nothing more to read for now.
    Drained,
    /// The peer closed its write half.
    Eof,
    /// The unterminated last line outgrew [`MAX_LINE`] and was discarded.
    Overlong,
}

/// A nonblocking buffered connection: line-split input, bounded output.
#[derive(Debug)]
struct Buffered {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_head: usize,
}

impl Buffered {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_head: 0,
        })
    }

    /// Reads whatever is available and returns the complete lines plus
    /// why reading stopped. Reading stops early once the unterminated last
    /// line exceeds [`MAX_LINE`]; the lines before it are still returned.
    fn read_lines(&mut self) -> std::io::Result<(Vec<String>, ReadEnd)> {
        let mut end = ReadEnd::Drained;
        let mut chunk = [0u8; 4096];
        // Bytes after the last newline: every earlier call drained its
        // complete lines, so the buffer holds one unterminated line.
        let mut tail = self.inbuf.len();
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    end = ReadEnd::Eof;
                    break;
                }
                Ok(n) => {
                    let read = &chunk[..n];
                    tail = match read.iter().rposition(|&b| b == b'\n') {
                        Some(at) => n - at - 1,
                        None => tail + n,
                    };
                    self.inbuf.extend_from_slice(read);
                    if tail > MAX_LINE {
                        end = ReadEnd::Overlong;
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let complete = self.inbuf.len() - tail;
        let mut lines = Vec::new();
        if complete > 0 {
            for raw in self.inbuf[..complete - 1].split(|&b| b == b'\n') {
                let mut line = String::from_utf8_lossy(raw).into_owned();
                while line.ends_with('\r') {
                    line.pop();
                }
                lines.push(line);
            }
        }
        self.inbuf.drain(..complete);
        if end == ReadEnd::Overlong {
            self.inbuf.clear();
        }
        Ok((lines, end))
    }

    fn enqueue(&mut self, line: &str) {
        self.outbuf.extend_from_slice(line.as_bytes());
        self.outbuf.push(b'\n');
    }

    /// Writes as much buffered output as the socket accepts. Returns
    /// whether unsent bytes remain (the caller keeps write interest).
    fn flush(&mut self) -> std::io::Result<bool> {
        while self.out_head < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_head..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_head += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_head == self.outbuf.len() {
            self.outbuf.clear();
            self.out_head = 0;
        }
        Ok(!self.outbuf.is_empty())
    }

    fn pending(&self) -> usize {
        self.outbuf.len() - self.out_head
    }
}

/// One client connection.
#[derive(Debug)]
struct Client {
    buf: Buffered,
    subscriptions: HashSet<UserId>,
    closing: bool,
}

/// An in-flight request on a node's event connection; responses arrive
/// in FIFO order, interleaved with (but distinguishable from) `EVENT`
/// pushes.
#[derive(Debug)]
enum Pending {
    /// First subscriber: a node-side `SUBSCRIBE` was sent.
    Subscribe { client: u64, user: UserId },
    /// Later subscriber: a `FRONTIER` snapshot was sent; the response is
    /// rewritten to `OK SUBSCRIBED` for the client.
    Snapshot { client: u64, user: UserId },
    /// A node-side `UNSUBSCRIBE` whose response nobody awaits.
    Discard,
}

/// One node's event connection plus its in-flight request queue.
#[derive(Debug)]
struct EventConn {
    buf: Buffered,
    pending: VecDeque<Pending>,
}

/// The refcounted node-side subscription for one user.
#[derive(Debug)]
struct SubState {
    node: usize,
    clients: Vec<u64>,
}

struct CoordServer {
    cluster: Cluster,
    config: ServeConfig,
    clients: HashMap<u64, Client>,
    event_conns: Vec<Option<EventConn>>,
    user_subs: HashMap<UserId, SubState>,
    next_token: u64,
}

/// Serves the cluster on `listener` until the process dies.
pub fn serve(listener: TcpListener, cluster: Cluster, config: ServeConfig) -> std::io::Result<()> {
    serve_impl(listener, cluster, config, None)
}

/// [`serve`] with an in-process shutdown handle (tests, benches): the
/// loop returns cleanly when the paired [`pm_engine::Shutdown`] fires.
pub fn serve_with_signal(
    listener: TcpListener,
    cluster: Cluster,
    config: ServeConfig,
    signal: ShutdownSignal,
) -> std::io::Result<()> {
    serve_impl(listener, cluster, config, Some(signal))
}

fn serve_impl(
    listener: TcpListener,
    cluster: Cluster,
    config: ServeConfig,
    signal: Option<ShutdownSignal>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::Read)?;
    if let Some(signal) = &signal {
        poller.register(signal.as_raw_fd(), SHUTDOWN, Interest::Read)?;
    }
    let nodes = cluster.nodes();
    let mut server = CoordServer {
        cluster,
        config,
        clients: HashMap::new(),
        event_conns: (0..nodes).map(|_| None).collect(),
        user_subs: HashMap::new(),
        next_token: EVENT_BASE + nodes as u64,
    };
    for node in 0..nodes {
        if server.cluster.is_up(node) {
            server.open_event_conn(node, &mut poller);
        }
    }
    server.reap_transitions(&mut poller);

    let mut events = Vec::new();
    loop {
        poller.wait(&mut events, None)?;
        let batch = std::mem::take(&mut events);
        for event in &batch {
            match event.token {
                SHUTDOWN => return Ok(()),
                LISTENER => server.accept_all(&listener, &mut poller),
                token if token < EVENT_BASE + nodes as u64 => {
                    let node = (token - EVENT_BASE) as usize;
                    server.event_conn_ready(node, event.readable, event.writable, &mut poller);
                }
                token => server.client_ready(token, event.readable, event.writable, &mut poller),
            }
            server.reap_transitions(&mut poller);
        }
        events = batch;
    }
}

impl CoordServer {
    fn accept_all(&mut self, listener: &TcpListener, poller: &mut Poller) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let buf = match Buffered::new(stream) {
                        Ok(buf) => buf,
                        Err(_) => continue,
                    };
                    let token = self.next_token;
                    self.next_token += 1;
                    if poller
                        .register(buf.stream.as_raw_fd(), token, Interest::Read)
                        .is_err()
                    {
                        continue;
                    }
                    self.clients.insert(
                        token,
                        Client {
                            buf,
                            subscriptions: HashSet::new(),
                            closing: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Applies node up/down transitions the cluster recorded during the
    /// last operation: drop dead nodes' event state, open fresh event
    /// connections for rejoined nodes.
    fn reap_transitions(&mut self, poller: &mut Poller) {
        for node in self.cluster.take_failures() {
            self.on_node_down(node, poller);
        }
        for node in self.cluster.take_rejoined() {
            self.open_event_conn(node, poller);
        }
    }

    fn open_event_conn(&mut self, node: usize, poller: &mut Poller) {
        if self.event_conns[node].is_some() {
            return;
        }
        let timeout = std::time::Duration::from_secs(5);
        let conn = connect_stream(self.cluster.node_addr(node), timeout)
            .ok()
            .and_then(|stream| Buffered::new(stream).ok())
            .and_then(|buf| {
                poller
                    .register(
                        buf.stream.as_raw_fd(),
                        EVENT_BASE + node as u64,
                        Interest::Read,
                    )
                    .ok()
                    .map(|()| buf)
            });
        match conn {
            Some(buf) => {
                self.event_conns[node] = Some(EventConn {
                    buf,
                    pending: VecDeque::new(),
                });
            }
            None => {
                pm_obs::warn!("pm_coord", "event connection failed", node = node);
                self.cluster.mark_down(node);
                // The failure is reaped by the caller.
            }
        }
    }

    /// A node died: close its event connection, terminate every
    /// subscription it carried with a pushed `ERR degraded` line.
    fn on_node_down(&mut self, node: usize, poller: &mut Poller) {
        if let Some(conn) = self.event_conns[node].take() {
            let _ = poller.deregister(conn.buf.stream.as_raw_fd());
            for pending in conn.pending {
                if let Pending::Subscribe { client, .. } | Pending::Snapshot { client, .. } =
                    pending
                {
                    self.push_line(client, &format!("ERR degraded node={node}"), poller);
                }
            }
        }
        let dropped: Vec<UserId> = self
            .user_subs
            .iter()
            .filter(|(_, state)| state.node == node)
            .map(|(&user, _)| user)
            .collect();
        for user in dropped {
            if let Some(state) = self.user_subs.remove(&user) {
                for client in state.clients {
                    if let Some(c) = self.clients.get_mut(&client) {
                        c.subscriptions.remove(&user);
                    }
                    self.push_line(client, &format!("ERR degraded node={node}"), poller);
                }
            }
        }
        self.refresh_subscription_gauge();
    }

    fn refresh_subscription_gauge(&self) {
        let total: usize = self.user_subs.values().map(|s| s.clients.len()).sum();
        self.cluster.metrics.subscriptions.set(total as f64);
    }

    /// Enqueues one line to a client and re-arms its write interest,
    /// evicting it if its outbox is over budget.
    fn push_line(&mut self, token: u64, line: &str, poller: &mut Poller) {
        let max_outbox = self.config.max_outbox;
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        if client.closing {
            return;
        }
        client.buf.enqueue(line);
        if client.buf.pending() > max_outbox {
            // Same contract as a node: a subscriber that stops reading is
            // evicted, not buffered without bound.
            client.buf.outbuf.clear();
            client.buf.out_head = 0;
            client.buf.enqueue("ERR lagged");
            client.closing = true;
        }
        self.arm_client(token, poller);
    }

    fn arm_client(&mut self, token: u64, poller: &mut Poller) {
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        let done = match client.buf.flush() {
            Ok(pending) => !pending,
            Err(_) => {
                self.drop_client(token, poller);
                return;
            }
        };
        if done && client.closing {
            self.drop_client(token, poller);
            return;
        }
        let interest = if done {
            Interest::Read
        } else {
            Interest::ReadWrite
        };
        let _ = poller.modify(client.buf.stream.as_raw_fd(), token, interest);
    }

    fn drop_client(&mut self, token: u64, poller: &mut Poller) {
        let Some(client) = self.clients.remove(&token) else {
            return;
        };
        let _ = poller.deregister(client.buf.stream.as_raw_fd());
        for user in client.subscriptions {
            self.release_subscription(user, token);
        }
        self.refresh_subscription_gauge();
    }

    /// Drops `client` from `user`'s subscription; when the last client is
    /// gone the node-side subscription is torn down too (unless responses
    /// are still in flight for the user, in which case the node-side
    /// subscription is left standing for the next subscriber).
    fn release_subscription(&mut self, user: UserId, client: u64) {
        let Some(state) = self.user_subs.get_mut(&user) else {
            return;
        };
        state.clients.retain(|&c| c != client);
        if !state.clients.is_empty() {
            return;
        }
        let node = state.node;
        let in_flight = self.event_conns[node].as_ref().is_some_and(|conn| {
            conn.pending.iter().any(|p| {
                matches!(p, Pending::Subscribe { user: u, .. } | Pending::Snapshot { user: u, .. } if *u == user)
            })
        });
        if in_flight {
            return;
        }
        self.user_subs.remove(&user);
        if let Some(conn) = self.event_conns[node].as_mut() {
            conn.buf.enqueue(&format!("UNSUBSCRIBE {}", user.raw()));
            conn.pending.push_back(Pending::Discard);
            let _ = conn.buf.flush();
        }
    }

    fn client_ready(&mut self, token: u64, readable: bool, writable: bool, poller: &mut Poller) {
        if !self.clients.contains_key(&token) {
            return;
        }
        if readable {
            let result = self
                .clients
                .get_mut(&token)
                .map(|client| client.buf.read_lines());
            match result {
                Some(Ok((lines, end))) => {
                    for line in lines {
                        if self.clients.get(&token).map_or(true, |c| c.closing) {
                            break;
                        }
                        self.handle_client_line(token, &line, poller);
                    }
                    if end == ReadEnd::Overlong {
                        let error = format!("ERR request line exceeds {MAX_LINE} bytes");
                        self.push_line(token, &error, poller);
                    }
                    if end != ReadEnd::Drained {
                        if let Some(client) = self.clients.get_mut(&token) {
                            client.closing = true;
                        }
                    }
                }
                Some(Err(_)) => {
                    self.drop_client(token, poller);
                    return;
                }
                None => return,
            }
        }
        if writable || self.clients.get(&token).is_some_and(|c| c.closing) {
            self.arm_client(token, poller);
        }
    }

    fn handle_client_line(&mut self, token: u64, line: &str, poller: &mut Poller) {
        if line.trim().is_empty() {
            return;
        }
        match self.cluster.handle(line) {
            Routed::Line(text) => self.push_line(token, &text, poller),
            Routed::Bye(text) => {
                self.push_line(token, &text, poller);
                if let Some(client) = self.clients.get_mut(&token) {
                    client.closing = true;
                }
                self.arm_client(token, poller);
            }
            Routed::Subscribe(user) => self.subscribe(token, user, poller),
            Routed::Unsubscribe(user) => self.unsubscribe(token, user, poller),
        }
        self.reap_transitions(poller);
    }

    fn subscribe(&mut self, token: u64, user: UserId, poller: &mut Poller) {
        let node = self.cluster.owner_of(user);
        if !self.cluster.is_up(node) || self.event_conns[node].is_none() {
            self.cluster.metrics.errors.inc();
            self.push_line(token, &format!("ERR degraded node={node}"), poller);
            return;
        }
        if self
            .clients
            .get(&token)
            .is_some_and(|c| c.subscriptions.contains(&user))
        {
            self.cluster.metrics.errors.inc();
            self.push_line(
                token,
                &format!("ERR already subscribed to user {}", user.raw()),
                poller,
            );
            return;
        }
        let conn = self.event_conns[node]
            .as_mut()
            .expect("checked above: the event connection is open");
        match self.user_subs.entry(user) {
            Entry::Occupied(_) => {
                // The node-side subscription exists; this client only needs
                // a snapshot, answered in order with the event stream.
                conn.buf.enqueue(&format!("FRONTIER {}", user.raw()));
                conn.pending.push_back(Pending::Snapshot {
                    client: token,
                    user,
                });
            }
            Entry::Vacant(slot) => {
                conn.buf.enqueue(&format!("SUBSCRIBE {}", user.raw()));
                conn.pending.push_back(Pending::Subscribe {
                    client: token,
                    user,
                });
                slot.insert(SubState {
                    node,
                    clients: Vec::new(),
                });
            }
        }
        if conn.buf.flush().is_err() {
            self.cluster.mark_down(node);
        }
        self.reap_transitions(poller);
    }

    fn unsubscribe(&mut self, token: u64, user: UserId, poller: &mut Poller) {
        let subscribed = self
            .clients
            .get_mut(&token)
            .is_some_and(|c| c.subscriptions.remove(&user));
        if !subscribed {
            self.cluster.metrics.errors.inc();
            self.push_line(
                token,
                &format!("ERR not subscribed to user {}", user.raw()),
                poller,
            );
            return;
        }
        self.release_subscription(user, token);
        self.refresh_subscription_gauge();
        self.push_line(token, &format!("OK UNSUBSCRIBED {}", user.raw()), poller);
    }

    fn event_conn_ready(
        &mut self,
        node: usize,
        readable: bool,
        writable: bool,
        poller: &mut Poller,
    ) {
        let Some(conn) = self.event_conns[node].as_mut() else {
            return;
        };
        if writable {
            let _ = conn.buf.flush();
        }
        if !readable {
            return;
        }
        let (lines, eof) = match conn.buf.read_lines() {
            Ok((lines, end)) => (lines, end != ReadEnd::Drained),
            Err(_) => (Vec::new(), true),
        };
        for line in lines {
            self.handle_event_line(node, &line, poller);
        }
        if eof {
            pm_obs::warn!("pm_coord", "event connection closed", node = node);
            self.cluster.mark_down(node);
            self.reap_transitions(poller);
        }
    }

    fn handle_event_line(&mut self, node: usize, line: &str, poller: &mut Poller) {
        if line.is_empty() {
            return;
        }
        if let Some(rest) = line.strip_prefix("EVENT ") {
            let user = rest
                .split_whitespace()
                .next()
                .and_then(|t| t.parse::<u32>().ok())
                .map(UserId::new);
            if let Some(user) = user {
                let targets: Vec<u64> = self
                    .user_subs
                    .get(&user)
                    .map(|state| state.clients.clone())
                    .unwrap_or_default();
                for client in targets {
                    self.push_line(client, line, poller);
                }
            }
            return;
        }
        let Some(pending) = self.event_conns[node]
            .as_mut()
            .and_then(|conn| conn.pending.pop_front())
        else {
            // A non-EVENT line with nothing in flight: the node evicted
            // this connection (`ERR lagged`) or is otherwise confused.
            pm_obs::warn!(
                "pm_coord",
                "unexpected line on event connection",
                node = node,
                line = line
            );
            self.cluster.mark_down(node);
            self.reap_transitions(poller);
            return;
        };
        match pending {
            Pending::Subscribe { client, user } => {
                if line.starts_with("OK SUBSCRIBED ") {
                    self.confirm_subscription(node, client, user);
                    self.push_line(client, line, poller);
                } else {
                    // The node refused (e.g. unknown user): no node-side
                    // subscription exists, so forget the placeholder
                    // unless a later subscriber already piled on.
                    if self
                        .user_subs
                        .get(&user)
                        .is_some_and(|state| state.clients.is_empty())
                    {
                        self.user_subs.remove(&user);
                    }
                    self.cluster.metrics.errors.inc();
                    self.push_line(client, line, poller);
                }
            }
            Pending::Snapshot { client, user } => {
                let prefix = format!("OK FRONTIER {} ", user.raw());
                if let Some(snapshot) = line.strip_prefix(&prefix) {
                    if self.user_subs.contains_key(&user) {
                        self.confirm_subscription(node, client, user);
                        self.push_line(
                            client,
                            &format!("OK SUBSCRIBED {} {snapshot}", user.raw()),
                            poller,
                        );
                    } else {
                        self.cluster.metrics.errors.inc();
                        self.push_line(client, &format!("ERR degraded node={node}"), poller);
                    }
                } else {
                    self.cluster.metrics.errors.inc();
                    self.push_line(client, line, poller);
                }
            }
            Pending::Discard => {}
        }
    }

    fn confirm_subscription(&mut self, node: usize, client: u64, user: UserId) {
        let state = self.user_subs.entry(user).or_insert(SubState {
            node,
            clients: Vec::new(),
        });
        if !state.clients.contains(&client) {
            state.clients.push(client);
        }
        if let Some(c) = self.clients.get_mut(&client) {
            c.subscriptions.insert(user);
        }
        self.refresh_subscription_gauge();
    }
}
