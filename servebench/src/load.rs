//! The closed-loop clients. Each client sends its next request only after
//! the previous reply arrived, on its own thread, and logs every exchange.

use crate::calib;
use crate::spans::{Spans, ROOT};
use crate::workload::{self, Step};
use gfomc_serve::{Client, Connection};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Read timeout per reply: a stuck server fails the op instead of the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One logged exchange.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Position in the client's stream.
    pub item: usize,
    /// The session id the request addressed (the new id for an open).
    pub sid: u64,
    /// Send and reply times, nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// Nanoseconds spent connecting, when the request opened a connection.
    pub connect: Option<u64>,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    pub reply: String,
    /// The measured window's slot the request was sent in; `None` during
    /// set-up.
    pub slot: Option<usize>,
    /// Sent while span recording was on.
    pub traced: bool,
}

impl Record {
    pub fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }

    pub fn timed(&self) -> bool {
        self.slot.is_some()
    }
}

/// A client's request stream: a pre-generated prefix shared across set-up
/// repetitions, extended on demand from the same seeded generator.
#[derive(Clone, Debug)]
pub enum Stream {
    /// eval-warm: the working set in a per-client cyclic order.
    Warm {
        bodies: Arc<Vec<String>>,
        order: Vec<usize>,
    },
    /// eval-cold: structurally new `/eval` bodies.
    Cold {
        seed: u64,
        base: Arc<Vec<String>>,
        more: Vec<String>,
    },
    /// session-stream: open / use / close steps.
    Session {
        seed: u64,
        base: Arc<Vec<Step>>,
        more: Vec<Step>,
    },
}

impl Stream {
    /// eval-cold stream of `client`, `n` requests pre-generated.
    pub fn cold(seed: u64, client: usize, n: usize) -> Stream {
        let base = (0..n)
            .map(|i| workload::eval_cold(seed, client, i))
            .collect();
        Stream::Cold {
            seed,
            base: Arc::new(base),
            more: Vec::new(),
        }
    }

    /// session-stream of `client`, `sessions` sessions pre-generated.
    pub fn session(seed: u64, client: usize, sessions: usize) -> Stream {
        let base = (0..sessions)
            .flat_map(|k| workload::session(seed, client, k))
            .collect();
        Stream::Session {
            seed,
            base: Arc::new(base),
            more: Vec::new(),
        }
    }

    /// Makes sure position `i` exists.
    fn ensure(&mut self, client: usize, i: usize) {
        match self {
            Stream::Warm { .. } => {}
            Stream::Cold { seed, base, more } => {
                while base.len() + more.len() <= i {
                    more.push(workload::eval_cold(*seed, client, base.len() + more.len()));
                }
            }
            Stream::Session { seed, base, more } => {
                let per = workload::SESSION_USES + 2;
                while base.len() + more.len() <= i {
                    let k = (base.len() + more.len()) / per;
                    more.extend(workload::session(*seed, client, k));
                }
            }
        }
    }

    /// The `/eval` body at position `i` (eval workloads).
    pub fn eval_body(&self, i: usize) -> &str {
        match self {
            Stream::Warm { bodies, order } => &bodies[order[i % order.len()]],
            Stream::Cold { base, more, .. } => base.get(i).unwrap_or_else(|| &more[i - base.len()]),
            Stream::Session { .. } => panic!("session stream has no /eval bodies"),
        }
    }

    /// The session step at position `i` (session-stream).
    pub fn step(&self, i: usize) -> &Step {
        match self {
            Stream::Session { base, more, .. } => {
                base.get(i).unwrap_or_else(|| &more[i - base.len()])
            }
            _ => panic!("eval stream has no session steps"),
        }
    }
}

/// One closed-loop client.
pub struct ClientState {
    client: usize,
    pub stream: Stream,
    addr: String,
    /// One connection per request (eval-cold) instead of one keep-alive
    /// connection for the whole run.
    fresh: bool,
    conn: Option<Connection>,
    sid: u64,
    next: usize,
    pub log: Vec<Record>,
    pub spans: Spans,
}

impl ClientState {
    pub fn new(client: usize, stream: Stream, addr: &str, fresh: bool, epoch: Instant) -> Self {
        ClientState {
            client,
            stream,
            addr: addr.to_string(),
            fresh,
            conn: None,
            sid: 0,
            next: 0,
            log: Vec::new(),
            spans: Spans::new(epoch),
        }
    }

    /// Request id of stream position `i`: client in the high bits.
    pub fn request_id(client: usize, i: usize) -> u64 {
        ((client as u64) << 40) | i as u64
    }

    /// Set-up traffic: `n` requests, outside the measured window.
    fn warm_up(&mut self, n: usize) {
        for _ in 0..n {
            self.send(None, false);
        }
    }

    /// The measured window: `slots` slots of `len`, each opened by a
    /// calibration kernel run that every client starts together. Slots
    /// with an odd index record spans when `trace` is on. Client 0 calls
    /// `between` at the start of each slot, once every client has
    /// finished the previous one. Returns the kernel nanoseconds per slot.
    fn measure(
        &mut self,
        barrier: &Barrier,
        slots: usize,
        len: Duration,
        trace: bool,
        between: &(dyn Fn() + Sync),
    ) -> Vec<u64> {
        let mut kernel = Vec::with_capacity(slots);
        for k in 0..slots {
            barrier.wait();
            if self.client == 0 {
                between();
            }
            kernel.push(calib::measure());
            barrier.wait();
            let start = Instant::now();
            while start.elapsed() < len {
                self.send(Some(k), trace && k % 2 == 1);
            }
        }
        kernel
    }

    /// Sends the next request of the stream and logs the exchange.
    fn send(&mut self, slot: Option<usize>, traced: bool) {
        let i = self.next;
        self.next += 1;
        self.stream.ensure(self.client, i);
        let (path, body, sid) = match &self.stream {
            Stream::Session { .. } => {
                let step = self.stream.step(i);
                ("/session", step.body(self.sid), self.sid)
            }
            _ => ("/eval", self.stream.eval_body(i).to_string(), 0),
        };
        let request = ClientState::request_id(self.client, i);
        let root = if traced {
            self.spans.open("serve.request", ROOT, request)
        } else {
            ROOT
        };
        let start = self.spans.now();
        let mut connect = None;
        let result = if self.fresh && !traced {
            // The one-shot pattern of `Client::post` / `gfomc-cli submit`.
            Client::new(self.addr.clone()).post(path, &body)
        } else {
            if self.fresh || self.conn.is_none() {
                let span = traced.then(|| self.spans.open("serve.connect", root, request));
                let t0 = self.spans.now();
                let opened = Connection::open(self.addr.as_str()).and_then(|c| {
                    c.set_read_timeout(Some(REPLY_TIMEOUT))?;
                    Ok(c)
                });
                connect = Some(self.spans.now() - t0);
                if let Some(span) = span {
                    self.spans.close(span);
                }
                self.conn = opened.ok();
            }
            let span = traced.then(|| self.spans.open("serve.exchange", root, request));
            let result = match self.conn.as_mut() {
                Some(conn) => conn.request("POST", path, &body),
                None => Err(std::io::Error::other("connect failed")),
            };
            if let Some(span) = span {
                self.spans.close(span);
            }
            if result.is_err() || self.fresh {
                self.conn = None;
            }
            result
        };
        let end = self.spans.now();
        if traced {
            self.spans.close(root);
        }
        let (status, reply) = match result {
            Ok(resp) => (resp.status, resp.body),
            Err(_) => (0, String::new()),
        };
        let mut sid = sid;
        if let Stream::Session { .. } = &self.stream {
            if let Step::Open(_) = self.stream.step(i) {
                self.sid = session_id(&reply).filter(|_| status == 200).unwrap_or(0);
                sid = self.sid;
            }
        }
        self.log.push(Record {
            item: i,
            sid,
            start,
            end,
            connect,
            status,
            reply,
            slot,
            traced,
        });
    }
}

/// The id on a session reply's first line (`session <id>`).
pub fn session_id(reply: &str) -> Option<u64> {
    reply
        .lines()
        .next()?
        .strip_prefix("session ")?
        .trim()
        .parse()
        .ok()
}

/// Set-up traffic: every client sends `n` requests, on its own thread.
pub fn warm_up(clients: &mut [ClientState], n: usize) {
    thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(move || c.warm_up(n));
        }
    });
}

/// The measured window, every client on its own thread (see
/// [`ClientState::measure`]). Returns each slot's calibration kernel time,
/// averaged over the clients that ran it together.
pub fn measure(
    clients: &mut [ClientState],
    slots: usize,
    len: Duration,
    trace: bool,
    between: &(dyn Fn() + Sync),
) -> Vec<f64> {
    let barrier = Barrier::new(clients.len());
    let per_client: Vec<Vec<u64>> = thread::scope(|s| {
        let barrier = &barrier;
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || c.measure(barrier, slots, len, trace, between)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (0..slots)
        .map(|k| per_client.iter().map(|ns| ns[k] as f64).sum::<f64>() / per_client.len() as f64)
        .collect()
}
