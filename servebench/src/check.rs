//! The correctness check, run after the timed window: every reply is
//! compared byte for byte with an in-process oracle engine. A non-200
//! status, a transport error or any difference is a failed op.

use crate::load::{session_id, Record, Stream};
use crate::workload::Step;
use gfomc_engine::Engine;
use std::thread;
use std::time::Instant;

/// What the oracle answers for one body: the wire text, or the error text
/// of a request the engine rejects (which the server must not have
/// answered with 200 either).
pub type Expected = Result<String, String>;

/// The oracle's answer to an `/eval` body, and how long it took.
pub fn eval_oracle(oracle: &Engine, body: &str) -> (Expected, u64) {
    let t0 = Instant::now();
    let out = oracle.evaluate_wire(body).map_err(|e| e.to_string());
    (out, t0.elapsed().as_nanos() as u64)
}

/// Whether a logged exchange matches the oracle.
pub fn matches(r: &Record, expected: &Expected) -> bool {
    r.status == 200 && expected.as_deref() == Ok(r.reply.as_str())
}

/// eval-warm: one oracle answer per working-set body, compared with every
/// reply. Returns the failed-op count.
pub fn warm_failures(oracle: &Engine, bodies: &[String], logs: &[(&Stream, &[Record])]) -> usize {
    let expected: Vec<Expected> = bodies.iter().map(|b| eval_oracle(oracle, b).0).collect();
    logs.iter()
        .map(|(stream, log)| {
            let Stream::Warm { order, .. } = stream else {
                panic!("warm check on a non-warm stream")
            };
            log.iter()
                .filter(|r| !matches(r, &expected[order[r.item % order.len()]]))
                .count()
        })
        .sum()
}

/// eval-cold: every reply against a fresh oracle evaluation of its body,
/// spread over `threads` threads. Returns the failed-op count and, per
/// record, the oracle's in-process `evaluate_wire` nanoseconds.
pub fn cold_failures(
    oracle: &Engine,
    stream: &Stream,
    log: &[Record],
    threads: usize,
) -> (usize, Vec<u64>) {
    let chunk = log.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<(usize, Vec<u64>)> = thread::scope(|s| {
        let handles: Vec<_> = log
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut failed = 0;
                    let mut nanos = Vec::with_capacity(part.len());
                    for r in part {
                        let (expected, ns) = eval_oracle(oracle, stream.eval_body(r.item));
                        failed += usize::from(!matches(r, &expected));
                        nanos.push(ns);
                    }
                    (failed, nanos)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    let failed = parts.iter().map(|p| p.0).sum();
    (failed, parts.into_iter().flat_map(|p| p.1).collect())
}

/// session-stream: replays one client's logged op stream, in order, on
/// `oracle`. The server's and the oracle's session ids differ, so the
/// oracle's reply is compared with its id replaced by the one the server
/// used. Returns the failed-op count and the per-record `session_wire`
/// nanoseconds.
pub fn session_failures(oracle: &Engine, stream: &Stream, log: &[Record]) -> (usize, Vec<u64>) {
    let mut oracle_id = 0;
    let mut failed = 0;
    let mut nanos = Vec::with_capacity(log.len());
    for r in log {
        let step = stream.step(r.item);
        let t0 = Instant::now();
        let out = oracle.session_wire(&step.body(oracle_id));
        nanos.push(t0.elapsed().as_nanos() as u64);
        let expected: Expected = match out {
            Ok(text) => {
                let id = session_id(&text).unwrap_or(0);
                if let Step::Open(_) = step {
                    oracle_id = id;
                }
                Ok(with_session_id(&text, r.sid))
            }
            Err(e) => Err(e.to_string()),
        };
        failed += usize::from(!matches(r, &expected));
    }
    (failed, nanos)
}

/// `reply` with the id on its `session <id>` line replaced by `id`.
pub fn with_session_id(reply: &str, id: u64) -> String {
    match reply.split_once('\n') {
        Some((first, rest)) if first.starts_with("session ") => format!("session {id}\n{rest}"),
        _ => reply.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::workload::{self, Probs, H1};
    use std::sync::Arc;

    fn record(item: usize, sid: u64, status: u16, reply: String) -> Record {
        Record {
            item,
            sid,
            status,
            reply,
            ..Record::default()
        }
    }

    /// Flips one digit of a reply: the kind of damage a wrong answer does.
    fn corrupt(reply: &str) -> String {
        let at = reply.rfind(|c: char| c.is_ascii_digit()).expect("a digit");
        let mut bytes = reply.as_bytes().to_vec();
        bytes[at] = if bytes[at] == b'7' { b'3' } else { b'7' };
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn a_corrupted_eval_reply_is_a_failed_op() {
        let mut rng = Rng::new(1);
        let bodies: Vec<String> = (0..2)
            .map(|_| workload::eval_body((H1, 3, 3), Probs::Eighths, &mut rng, ""))
            .collect();
        let stream = Stream::Warm {
            bodies: Arc::new(bodies.clone()),
            order: vec![1, 0],
        };
        let server = Engine::new();
        let good = |b: &str| server.evaluate_wire(b).unwrap();
        let log = [
            record(0, 0, 200, good(&bodies[1])),
            record(1, 0, 200, good(&bodies[0])),
            record(2, 0, 200, corrupt(&good(&bodies[1]))),
            record(3, 0, 200, good(&bodies[1])), // right status, wrong body
            record(4, 0, 0, String::new()),      // transport error
            record(5, 0, 400, good(&bodies[1])), // right body, wrong status
        ];
        let failed = warm_failures(&Engine::new(), &bodies, &[(&stream, &log[..])]);
        assert_eq!(failed, 4);
        let cold = Stream::Cold {
            seed: 0,
            base: Arc::new(vec![bodies[1].clone(), bodies[0].clone()]),
            more: Vec::new(),
        };
        let (failed, nanos) = cold_failures(&Engine::new(), &cold, &log[..2], 2);
        assert_eq!((failed, nanos.len()), (0, 2));
        let bad = [record(0, 0, 200, corrupt(&good(&bodies[1])))];
        assert_eq!(cold_failures(&Engine::new(), &cold, &bad, 1).0, 1);
    }

    #[test]
    fn a_corrupted_session_reply_is_a_failed_op() {
        let steps = workload::session(3, 0, 0);
        let stream = Stream::Session {
            seed: 3,
            base: Arc::new(steps.clone()),
            more: Vec::new(),
        };
        // The "server": an engine whose ids are offset from the oracle's.
        let server = Engine::new();
        server.session_wire(&steps[0].body(0)).unwrap();
        let mut sid = 0;
        let mut log = Vec::new();
        for (i, step) in steps.iter().enumerate().take(12) {
            let reply = server.session_wire(&step.body(sid)).unwrap();
            if let Step::Open(_) = step {
                sid = session_id(&reply).unwrap();
            }
            log.push(record(i, sid, 200, reply));
        }
        assert_ne!(sid, 1, "ids must differ for the test to mean anything");
        assert_eq!(session_failures(&Engine::new(), &stream, &log).0, 0);
        log[10].reply = corrupt(&log[10].reply);
        let (failed, nanos) = session_failures(&Engine::new(), &stream, &log);
        assert_eq!((failed, nanos.len()), (1, 12));
    }

    #[test]
    fn session_ids_are_normalized_on_the_first_line_only() {
        assert_eq!(
            with_session_id("session 4\nvalue 1/2\n", 9),
            "session 9\nvalue 1/2\n"
        );
        assert_eq!(with_session_id("garbage\n", 9), "garbage\n");
    }
}
