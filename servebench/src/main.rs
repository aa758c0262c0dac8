//! `gfomc-servebench`: the closed-loop benchmark of `gfomc-serve`.
//!
//! ```text
//! gfomc-servebench --server PATH --workload eval-warm|eval-cold|session-stream
//!                  [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Starts the server binary at PATH on a loopback port, drives it with two
//! closed-loop clients for S seconds, checks every reply against an
//! in-process oracle engine, and prints one JSON object as the last line
//! of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics of a traced run and writes
//! its spans to `DIR/spans-<workload>.tsv`. See README.md.

mod calib;
mod check;
mod layers;
mod load;
mod rng;
mod server;
mod spans;
mod stats;
mod workload;

use gfomc_engine::Engine;
use layers::Layers;
use load::{ClientState, Record, Stream};
use rng::Rng;
use server::{Counters, Server};
use spans::{Spans, ROOT};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking that results generalize.
pub const HOLDOUT_SEED: u64 = 9_001;

/// Closed-loop clients: one per CPU of the two-CPU host the benchmark
/// targets.
const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Length of one slot of the measured window. Each slot opens with a
/// calibration run; in a traced run, odd slots record spans.
const SLOT: Duration = Duration::from_millis(500);
/// Most spans written to the span file.
const SPAN_LIMIT: usize = 200_000;
/// Passes over the eval-warm working set in the decomposition.
const WARM_REPS: usize = 5;
/// Most eval-cold requests decomposed (an evenly spaced sample).
const COLD_DECOMPOSE: usize = 400;
/// Most session requests decomposed per client (a prefix: session state
/// must be replayed in order).
const SESSION_DECOMPOSE: usize = 10_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Warm,
    Cold,
    Session,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "eval-warm" => Some(Workload::Warm),
            "eval-cold" => Some(Workload::Cold),
            "session-stream" => Some(Workload::Session),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Warm => "eval-warm",
            Workload::Cold => "eval-cold",
            Workload::Session => "session-stream",
        }
    }

    /// Which quantile of the window p99s [`end_to_end`] reports (see
    /// [`stats::window_tails`]). eval-warm cycles one working set every
    /// few tens of milliseconds, so every window holds the same requests
    /// and windows differ only by host noise: its lower decile shows the
    /// program's tail in the calmest windows. The other workloads change
    /// their requests over the run (new lineages; session shapes that
    /// rotate every 300 requests), so their windows differ by content
    /// too, and a low quantile would report the lightest content: the
    /// median averages it.
    fn tail_quantile(self) -> f64 {
        match self {
            Workload::Warm => 0.1,
            Workload::Cold | Workload::Session => 0.5,
        }
    }

    /// Requests per client before the timed window: the whole working set
    /// (eval-warm), enough misses to start filling the cache (eval-cold),
    /// the open and the first updates of each session (session-stream).
    fn warmup(self) -> usize {
        match self {
            Workload::Warm => workload::WARM_SHAPES.len() * workload::WARM_WEIGHTINGS,
            Workload::Cold => 32,
            Workload::Session => 100,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10;
        let mut trace = false;
        let mut server = None;
        let mut out = PathBuf::from(".bench_out");
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: '{value}'");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--server" => server = Some(PathBuf::from(value)),
                "--out" => out = PathBuf::from(value),
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.max(1),
            trace,
            server: server.ok_or("--server is required")?,
            out,
        })
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn main() -> ExitCode {
    let result = Args::parse().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The clients' request streams, generated from the seed before any
/// set-up is timed.
fn streams(wl: Workload, seed: u64, seconds: u64) -> Vec<Stream> {
    let secs = seconds as usize;
    (0..CLIENTS)
        .map(|c| match wl {
            Workload::Warm => {
                let bodies = Arc::new(workload::eval_warm(seed));
                let order = Rng::keyed(seed, 3, c as u64).permutation(bodies.len());
                Stream::Warm { bodies, order }
            }
            Workload::Cold => Stream::cold(seed, c, 64 + 400 * secs),
            Workload::Session => {
                Stream::session(seed, c, 1 + 12_000 * secs / (workload::SESSION_USES + 2))
            }
        })
        .collect()
}

fn run(args: &Args) -> Result<String, String> {
    let wl = args.workload;
    let epoch = Instant::now();
    let streams = streams(wl, args.seed, args.seconds);
    let phase = |name: &str, since: Instant| {
        eprintln!(
            "servebench: {name} took {:.2} s",
            since.elapsed().as_secs_f64()
        );
    };
    phase("input generation", epoch);
    let t_setup = Instant::now();

    // Set-up: start the server and warm it, several times; keep the last.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take()); // stops the previous server first
        let kernel = calib::measure_together(CLIENTS);
        let t0 = Instant::now();
        let server = Server::start(&args.server)?;
        let mut clients: Vec<ClientState> = streams
            .iter()
            .enumerate()
            .map(|(c, s)| ClientState::new(c, s.clone(), &server.addr, wl == Workload::Cold, epoch))
            .collect();
        load::warm_up(&mut clients, wl.warmup());
        let secs = t0.elapsed().as_secs_f64();
        let kernel = (kernel + calib::measure_together(CLIENTS)) / 2.0;
        setup.push(secs * calib::to_reference(kernel));
        kept = Some((server, clients));
    }
    let (server, mut clients) = kept.expect("at least one set-up");
    phase("set-up", t_setup);
    let t_window = Instant::now();

    // The timed window.
    let before = server.counters()?;
    let slots = (Duration::from_secs(args.seconds).as_millis() / SLOT.as_millis()).max(2) as usize;
    // The server's peak resident set slot by slot; the first reading
    // covers set-up and is dropped.
    let peaks = std::sync::Mutex::new(Vec::with_capacity(slots + 1));
    let take_peak = || {
        peaks
            .lock()
            .expect("peaks")
            .push(server.take_peak_rss_mib())
    };
    let kernel = load::measure(&mut clients, slots, SLOT, args.trace, &take_peak);
    take_peak();
    let delta = server.counters()?.since(&before);
    let peaks: Vec<f64> = peaks
        .into_inner()
        .expect("peaks")
        .into_iter()
        .skip(1)
        .collect::<Result<_, _>>()?;
    let rss = stats::median_of_reps(&peaks);
    drop(server);
    phase("measured window", t_window);

    // The correctness check, outside the window.
    let t_check = Instant::now();
    let oracle = Engine::new();
    let mut failed = 0;
    let mut wire: Vec<Vec<u64>> = Vec::new();
    match wl {
        Workload::Warm => {
            let Stream::Warm { bodies, .. } = &clients[0].stream else {
                unreachable!()
            };
            let logs: Vec<(&Stream, &[Record])> =
                clients.iter().map(|c| (&c.stream, &c.log[..])).collect();
            failed = check::warm_failures(&oracle, bodies, &logs);
        }
        Workload::Cold => {
            for c in &clients {
                let (f, ns) = check::cold_failures(&oracle, &c.stream, &c.log, CLIENTS);
                failed += f;
                wire.push(ns);
            }
        }
        Workload::Session => {
            // Each client's sessions are its own, so the replays run side
            // by side, as the clients did.
            let oracle = &oracle;
            let replays: Vec<(usize, Vec<u64>)> = std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter()
                    .map(|c| s.spawn(move || check::session_failures(oracle, &c.stream, &c.log)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replay thread"))
                    .collect()
            });
            for (f, ns) in replays {
                failed += f;
                wire.push(ns);
            }
        }
    }
    phase("correctness check", t_check);
    let attempted: usize = clients.iter().map(|c| c.log.len()).sum();
    eprintln!(
        "servebench: {} seed {}: {attempted} requests checked against the oracle, {failed} failed",
        wl.name(),
        args.seed
    );

    let metrics = if args.trace {
        per_layer(args, &clients, &wire, &kernel, delta, epoch)?
    } else {
        let setup_s = stats::median_of_reps(&setup);
        end_to_end(&clients, &kernel, wl.tail_quantile(), setup_s, rss)?
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Sorted latencies (µs) of `records`.
fn latencies<'a>(records: impl IntoIterator<Item = &'a Record>) -> Vec<f64> {
    let mut xs: Vec<f64> = records.into_iter().map(Record::micros).collect();
    stats::sort(&mut xs);
    xs
}

/// The end-to-end metrics of the measured window. Times are scaled, slot
/// by slot, to the reference host of [`calib`].
fn end_to_end(
    clients: &[ClientState],
    kernel: &[f64],
    tail_quantile: f64,
    setup_s: f64,
    rss: f64,
) -> Result<Vec<Metric>, String> {
    let mut lat = Vec::new();
    let mut raw = Vec::new();
    let mut lat_by_slot = Vec::new();
    let mut count = 0;
    let (mut secs, mut raw_secs) = (0.0, 0.0);
    for (k, scale) in calib::slot_scales(kernel).into_iter().enumerate() {
        let in_slot: Vec<&Record> = clients
            .iter()
            .flat_map(|c| &c.log)
            .filter(|r| r.slot == Some(k))
            .collect();
        let (Some(first), Some(last)) = (
            in_slot.iter().map(|r| r.start).min(),
            in_slot.iter().map(|r| r.end).max(),
        ) else {
            continue;
        };
        count += in_slot.len();
        raw_secs += (last - first) as f64 / 1e9;
        secs += (last - first) as f64 / 1e9 * scale;
        let scaled: Vec<f64> = in_slot.iter().map(|r| r.micros() * scale).collect();
        lat.extend(&scaled);
        lat_by_slot.push(scaled);
        raw.extend(in_slot.iter().map(|r| r.micros()));
    }
    stats::sort(&mut lat);
    stats::sort(&mut raw);
    let pct = |xs: &[f64], q: f64| {
        stats::percentile(xs, q)
            .ok_or_else(|| format!("{} timed requests are too few for p{}", xs.len(), q * 100.0))
    };
    eprintln!(
        "servebench: {count} timed requests in {raw_secs:.3} s; unscaled: {:.1} req/s, p50 {:.1} us, p99 {:.1} us; \
         median calibration kernel {:.3} ms; scaled p99 over the whole window {:.1} us",
        count as f64 / raw_secs,
        pct(&raw, 0.5)?,
        pct(&raw, 0.99)?,
        stats::median_of_reps(kernel) / 1e6,
        pct(&lat, 0.99)?
    );
    let tails = stats::window_tails(&lat_by_slot, 0.99)
        .ok_or_else(|| format!("{count} timed requests are too few for p99"))?;
    let p99 = stats::quantile_of_reps(&tails, tail_quantile);
    eprintln!(
        "servebench: p99 of {} tail windows (scaled): lowest {:.1} us, median {:.1} us, highest {:.1} us",
        tails.len(),
        stats::quantile_of_reps(&tails, 0.0),
        stats::median_of_reps(&tails),
        stats::quantile_of_reps(&tails, 1.0)
    );
    Ok(vec![
        metric("setup_s", "s", setup_s),
        metric("throughput_rps", "1/s", count as f64 / secs),
        metric("latency_p50_us", "us", pct(&lat, 0.5)?),
        metric("latency_p99_us", "us", p99),
        metric("peak_rss_mib", "MiB", rss),
    ])
}

/// The traced run's per-layer metrics.
fn per_layer(
    args: &Args,
    clients: &[ClientState],
    wire: &[Vec<u64>],
    kernel: &[f64],
    delta: Counters,
    epoch: Instant,
) -> Result<Vec<Metric>, String> {
    let wl = args.workload;
    let mut layers = Layers::new(epoch);
    // In-process wire time of each logged request, where known.
    let mut wire_of: Vec<Vec<Option<u64>>> = clients
        .iter()
        .enumerate()
        .map(|(c, cl)| {
            cl.log
                .iter()
                .enumerate()
                .map(|(i, _)| wire.get(c).map(|w| w[i]))
                .collect()
        })
        .collect();
    let engine = Engine::new();
    match wl {
        Workload::Warm => {
            let Stream::Warm { bodies, .. } = &clients[0].stream else {
                unreachable!()
            };
            let replies: Vec<String> = bodies
                .iter()
                .map(|b| engine.evaluate_wire(b).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let mut by_body = vec![Vec::new(); bodies.len()];
            for rep in 0..WARM_REPS {
                for (j, body) in bodies.iter().enumerate() {
                    let id = ClientState::request_id(CLIENTS, rep * bodies.len() + j);
                    let (_, ns) = layers
                        .spans
                        .time("engine.wire", ROOT, id, || engine.evaluate_wire(body));
                    layers.push("engine.wire", ns as f64);
                    by_body[j].push(ns as f64);
                    layers.eval(&engine, body, &replies[j], id, ns);
                }
            }
            let typical: Vec<u64> = by_body
                .into_iter()
                .map(|xs| stats::median_of_reps(&xs) as u64)
                .collect();
            for (c, cl) in clients.iter().enumerate() {
                let Stream::Warm { order, .. } = &cl.stream else {
                    unreachable!()
                };
                for (i, r) in cl.log.iter().enumerate() {
                    wire_of[c][i] = Some(typical[order[r.item % order.len()]]);
                }
            }
        }
        Workload::Cold => {
            let timed: Vec<(usize, usize)> = clients
                .iter()
                .enumerate()
                .flat_map(|(c, cl)| {
                    cl.log
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.timed())
                        .map(move |(i, _)| (c, i))
                })
                .collect();
            // A seeded sample, each request timed whole on an engine of
            // its own kind (cold: every lineage new to it) on this thread,
            // then call by call.
            let wire_engine = Engine::new();
            let mut pick = Rng::keyed(args.seed, 4, 0).distinct(COLD_DECOMPOSE, timed.len());
            pick.sort_unstable();
            for &(c, i) in pick.iter().map(|&j| &timed[j]) {
                let r = &clients[c].log[i];
                let body = clients[c].stream.eval_body(r.item);
                let id = ClientState::request_id(c, r.item);
                let (_, ns) = layers
                    .spans
                    .time("engine.wire", ROOT, id, || wire_engine.evaluate_wire(body));
                layers.push("engine.wire", ns as f64);
                layers.eval(&engine, body, &r.reply, id, ns);
            }
        }
        Workload::Session => {
            for (c, cl) in clients.iter().enumerate() {
                let mut session = None;
                for (i, r) in cl.log.iter().enumerate().take(SESSION_DECOMPOSE) {
                    let body = cl.stream.step(r.item).body(r.sid);
                    layers.session(
                        &engine,
                        &mut session,
                        &body,
                        &r.reply,
                        ClientState::request_id(c, r.item),
                        wire[c][i],
                    );
                }
                for (i, r) in cl.log.iter().enumerate().filter(|(_, r)| r.timed()) {
                    if let workload::Step::Use { .. } = cl.stream.step(r.item) {
                        layers.push("engine.session_wire", wire[c][i] as f64);
                    }
                }
            }
        }
    }

    // Serve-layer time: round trip minus in-process wire time, per request.
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    for (c, cl) in clients.iter().enumerate() {
        for (i, r) in cl.log.iter().enumerate().filter(|(_, r)| r.timed()) {
            if r.traced {
                traced.push(r);
                if let Some(w) = wire_of[c][i] {
                    layers.push("serve.http", (r.end - r.start).saturating_sub(w) as f64);
                }
                if let Some(ns) = r.connect {
                    layers.push("serve.connect", ns as f64);
                }
            } else {
                untraced.push(r);
            }
        }
    }
    // Traced and untraced slots alternate, so compare them at the
    // calibrated speed.
    let scales = calib::slot_scales(kernel);
    let p50 = |rs: &[&Record]| {
        let xs = rs
            .iter()
            .map(|r| r.micros() * r.slot.map_or(1.0, |k| scales[k]))
            .collect();
        stats::median(xs).unwrap_or(0.0)
    };
    let overhead = p50(&traced) - p50(&untraced);

    // Session-stream latencies by request kind, over the whole window.
    let mut updates = Vec::new();
    let mut explains = Vec::new();
    if wl == Workload::Session {
        for cl in clients {
            for r in cl.log.iter().filter(|r| r.timed()) {
                if let workload::Step::Use { explain, .. } = cl.stream.step(r.item) {
                    if *explain {
                        &mut explains
                    } else {
                        &mut updates
                    }
                    .push(r);
                }
            }
        }
    }
    let pct = |rs: &[&Record], q: f64| {
        stats::percentile(&latencies(rs.iter().copied()), q).unwrap_or(0.0)
    };

    let us = |name: &str| layers.median(name) / 1e3;
    let metrics = vec![
        metric("serve.http_us", "us", us("serve.http")),
        metric("serve.connect_us", "us", us("serve.connect")),
        metric("api.parse_us", "us", us("api.parse")),
        metric("api.serialize_us", "us", us("api.serialize")),
        metric("safety.is_safe_us", "us", us("safety.is_safe")),
        metric("safety.lifted_us", "us", us("safety.lifted")),
        metric("safety.cost_us", "us", us("safety.cost")),
        metric(
            "safety.cost_overestimate",
            "ratio",
            layers.median("safety.cost_overestimate"),
        ),
        metric("tid.lineage_us", "us", us("tid.lineage")),
        metric("engine.cache_lookup_us", "us", us("engine.cache_lookup")),
        metric("engine.cache_hit_rate", "ratio", delta.hit_rate()),
        metric("engine.cache_evictions", "count", delta.evictions as f64),
        metric("engine.routes.lifted", "count", delta.lifted as f64),
        metric("engine.routes.compiled", "count", delta.compiled as f64),
        metric("engine.routes.sampled", "count", delta.sampled as f64),
        metric("logic.compile_us", "us", us("logic.compile")),
        metric(
            "logic.compile_gates",
            "count",
            layers.median("logic.compile_gates"),
        ),
        metric("logic.eval_us", "us", us("logic.eval")),
        metric(
            "logic.eval_ns_per_gate",
            "ns",
            layers.median("logic.eval_ns_per_gate"),
        ),
        metric("logic.update_us", "us", us("logic.update")),
        metric(
            "logic.repriced_per_update",
            "ratio",
            layers.median("logic.repriced_per_update"),
        ),
        metric("logic.explain_us", "us", us("logic.explain")),
        metric("approx.build_us", "us", us("approx.build")),
        metric("approx.sample_us", "us", us("approx.sample")),
        metric("approx.samples", "count", layers.median("approx.samples")),
        metric(
            "arith.small_path_hit_rate",
            "ratio",
            layers.small_path_hit_rate(),
        ),
        metric("obs.record_us", "us", us("obs.record")),
        metric("engine.wire_us", "us", us("engine.wire")),
        metric("engine.session_wire_us", "us", us("engine.session_wire")),
        metric(
            "engine.unaccounted_frac",
            "ratio",
            layers.unaccounted_frac(),
        ),
        metric("trace.overhead_p50_us", "us", overhead),
        metric("session.update_p50_us", "us", pct(&updates, 0.5)),
        metric("session.update_p99_us", "us", pct(&updates, 0.99)),
        metric("session.explain_p50_us", "us", pct(&explains, 0.5)),
        metric("session.explain_p99_us", "us", pct(&explains, 0.99)),
    ];
    write_spans(args, clients, layers.spans, epoch)?;
    Ok(metrics)
}

/// Writes the HTTP spans of the clients and the decomposition spans to
/// `<out>/spans-<workload>.tsv`, and a per-name summary to stderr.
fn write_spans(
    args: &Args,
    clients: &[ClientState],
    layers: Spans,
    epoch: Instant,
) -> Result<(), String> {
    let mut all = Spans::new(epoch);
    for cl in clients {
        let mut own = Spans::new(epoch);
        own.spans = cl.spans.spans.clone();
        all.extend(own);
    }
    all.extend(layers);
    eprintln!("servebench: spans by total time (name, count, total ms, self ms):");
    for (name, count, total, own) in all.by_name() {
        eprintln!(
            "  {name:<22} {count:>8} {:>10.1} {:>10.1}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!("spans-{}.tsv", args.workload.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    all.write(&mut std::io::BufWriter::new(file), SPAN_LIMIT)
        .map_err(|e| format!("{}: {e}", path.display()))
}
