//! The load generator's side of the text protocol: a blocking client for
//! set-up and closed-loop phases, an event sink for `SUBSCRIBE` pushes,
//! and the open-loop sender (one writer thread on a precomputed due-time
//! schedule, one reader thread polling both connections).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pm_reactor::{Interest, Poller};

/// A blocking line client.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Self::from_stream(stream)
    }

    pub fn from_stream(stream: TcpStream) -> Result<Self, String> {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { stream, reader })
    }

    /// Sends one request line and reads its one-line reply.
    pub fn ask(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("connection closed by the server".to_owned());
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(line)
    }

    /// Sends `lines` pipelined in windows of 64 and returns the replies in
    /// order.
    pub fn pipeline(&mut self, lines: &[String]) -> Result<Vec<String>, String> {
        let mut replies = Vec::with_capacity(lines.len());
        for window in lines.chunks(64) {
            let mut buf = Vec::new();
            for line in window {
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
            }
            self.stream
                .write_all(&buf)
                .map_err(|e| format!("send: {e}"))?;
            for _ in window {
                replies.push(self.recv()?);
            }
        }
        Ok(replies)
    }

    /// The underlying stream, for the open-loop sender. Any bytes already
    /// buffered by the line reader would be lost, so callers hand the
    /// client over only between complete replies.
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

/// Collects `EVENT <user> +a,-b,...` pushes: for every object the time
/// its first `+` delta arrived, and every `(user, object)` entry seen.
#[derive(Default)]
pub struct EventSink {
    partial: Vec<u8>,
    /// Object id -> arrival time of the first `+object` delta.
    pub first_enter: HashMap<u64, Instant>,
    /// Every `(user, object)` enter delta received.
    pub entered: std::collections::HashSet<(u32, u64)>,
    /// Non-`EVENT` lines on the subscriber connection (replies to the
    /// subscriber's own requests).
    pub replies: Vec<String>,
}

impl EventSink {
    fn feed(&mut self, data: &[u8], at: Instant) {
        self.partial.extend_from_slice(data);
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line);
            self.line(line.trim_end(), at);
        }
    }

    fn line(&mut self, line: &str, at: Instant) {
        let Some(rest) = line.strip_prefix("EVENT ") else {
            self.replies.push(line.to_owned());
            return;
        };
        let mut parts = rest.splitn(2, ' ');
        let user: u32 = parts
            .next()
            .and_then(|u| u.parse().ok())
            .unwrap_or(u32::MAX);
        for delta in parts.next().unwrap_or("").split(',') {
            if let Some(object) = delta.strip_prefix('+').and_then(|o| o.parse::<u64>().ok()) {
                self.first_enter.entry(object).or_insert(at);
                self.entered.insert((user, object));
            }
        }
    }

    /// Reads whatever the subscriber connection holds right now without
    /// blocking.
    pub fn drain(&mut self, stream: &mut TcpStream) -> Result<(), String> {
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let mut buf = [0u8; 64 * 1024];
        let result = loop {
            match stream.read(&mut buf) {
                Ok(0) => break Err("subscriber connection closed".to_owned()),
                Ok(n) => self.feed(&buf[..n], Instant::now()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) => break Err(format!("subscriber read: {e}")),
            }
        };
        stream.set_nonblocking(false).map_err(|e| e.to_string())?;
        result
    }
}

/// One open-loop request's timeline.
#[derive(Debug, Clone)]
pub struct Record {
    /// When the schedule said the request was due.
    pub due: Instant,
    /// How late the generator itself started the send: time past the later
    /// of the due time and the end of the previous send (a send blocked by
    /// server backpressure is the server's delay, not the generator's).
    pub gen_late: Duration,
    /// When the reply line arrived.
    pub done: Instant,
    pub reply: String,
}

/// Sends `schedule` (due offsets from `start`, request lines) open loop on
/// `req`, while one reader thread collects the replies and feeds any
/// pushes on `sub` into `sink`. Returns one record per request, in order.
pub fn run_open(
    req: &TcpStream,
    mut sub: Option<(&TcpStream, &mut EventSink)>,
    start: Instant,
    schedule: &[(Duration, String)],
) -> Result<Vec<Record>, String> {
    let total = schedule.len();
    let (tx, rx) = mpsc::channel::<(Instant, Duration)>();
    let mut writer = req.try_clone().map_err(|e| e.to_string())?;
    let mut reader = req.try_clone().map_err(|e| e.to_string())?;
    let mut sub_reader = match &sub {
        Some((s, _)) => Some(s.try_clone().map_err(|e| e.to_string())?),
        None => None,
    };
    let sink = sub.as_mut().map(|(_, sink)| &mut **sink);

    std::thread::scope(|scope| {
        let reader_thread = scope.spawn(move || -> Result<Vec<Record>, String> {
            let mut poller = Poller::new().map_err(|e| e.to_string())?;
            poller
                .register(reader.as_raw_fd(), 0, Interest::Read)
                .map_err(|e| e.to_string())?;
            if let Some(s) = &sub_reader {
                poller
                    .register(s.as_raw_fd(), 1, Interest::Read)
                    .map_err(|e| e.to_string())?;
            }
            let mut sink = sink;
            let mut records = Vec::with_capacity(total);
            let mut partial: Vec<u8> = Vec::new();
            let mut events = Vec::new();
            let mut buf = vec![0u8; 256 * 1024];
            let mut last_progress = Instant::now();
            while records.len() < total {
                poller
                    .wait(&mut events, Some(Duration::from_millis(20)))
                    .map_err(|e| e.to_string())?;
                let now = Instant::now();
                if events.is_empty() && now - last_progress > Duration::from_secs(60) {
                    return Err(format!(
                        "no reply for 60 s ({}/{total} answered)",
                        records.len()
                    ));
                }
                for ev in &events {
                    // Level-triggered readiness: one read on a blocking
                    // socket returns what is there without blocking.
                    if ev.token == 1 {
                        let s = sub_reader.as_mut().expect("registered");
                        let n = s
                            .read(&mut buf)
                            .map_err(|e| format!("subscriber read: {e}"))?;
                        if n == 0 {
                            return Err("subscriber connection closed".to_owned());
                        }
                        if let Some(sink) = sink.as_mut() {
                            sink.feed(&buf[..n], now);
                        }
                        continue;
                    }
                    let n = reader.read(&mut buf).map_err(|e| format!("read: {e}"))?;
                    if n == 0 {
                        return Err(format!(
                            "server closed the connection ({}/{total} answered)",
                            records.len()
                        ));
                    }
                    partial.extend_from_slice(&buf[..n]);
                    let mut from = 0;
                    while let Some(pos) = partial[from..].iter().position(|&b| b == b'\n') {
                        let line = String::from_utf8_lossy(&partial[from..from + pos]).into_owned();
                        from += pos + 1;
                        let (due, gen_late) = rx
                            .recv()
                            .map_err(|_| "reply without a request".to_owned())?;
                        records.push(Record {
                            due,
                            gen_late,
                            done: now,
                            reply: line,
                        });
                        last_progress = now;
                    }
                    partial.drain(..from);
                }
            }
            Ok(records)
        });

        let mut prev_end = start;
        let mut send_error = None;
        for (offset, line) in schedule {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let begin = Instant::now();
            let gen_late = begin.saturating_duration_since(due.max(prev_end));
            let mut bytes = Vec::with_capacity(line.len() + 1);
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            // The reader may see the reply before this thread returns from
            // the write, so the request is announced first.
            if tx.send((due, gen_late)).is_err() {
                break;
            }
            if let Err(e) = writer.write_all(&bytes) {
                send_error = Some(format!("send: {e}"));
                break;
            }
            prev_end = Instant::now();
        }
        drop(tx);
        let records = reader_thread
            .join()
            .map_err(|_| "reader thread panicked".to_owned())?;
        match send_error {
            Some(e) => Err(e),
            None => records,
        }
    })
}
