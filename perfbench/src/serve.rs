//! `serve-hot`: the `sbomdiff-serve` release binary as a child process,
//! driven over one keep-alive HTTP/1.1 connection by a closed loop in this
//! process. The 12 payloads of `sbomdiff-serve loadgen` (seed 42) are
//! primed once, untimed, and then repeated in an order the workload seed
//! shuffles, so every timed request is an inline response-cache hit.
//!
//! `setup_s` is the median, over several fresh servers, of process start
//! until the server is listening and primed. Requests are serialized to
//! bytes before anything is timed. The timed window is cut into slices;
//! `ops_per_s` and `p99_ms` are medians of the per-slice values, so one
//! slice disturbed by another process on the machine cannot move them.
//!
//! The traced run follows a shorter hot window with a cold pass: a few
//! hundred distinct payloads, each sent once, so that the handler's real
//! compute path (response-cache miss, insert, eviction) and the layers
//! under it are measured too.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sbomdiff_generators::{studied_tools, ParseCache, ScanContext};
use sbomdiff_metadata::python::ReqStyle;
use sbomdiff_metadata::RepoFs;
use sbomdiff_registry::Registries;
use sbomdiff_service::api::{self, AppState, Executed};
use sbomdiff_service::http::{self, ParseStatus};
use sbomdiff_service::loadgen::build_payloads;
use sbomdiff_service::ResponseCache;
use sbomdiff_textformats::{json, stream, Value};

use crate::trace::Tracer;
use crate::{median, quantile, Args, Outcome, ENDPOINTS};

/// Fresh servers started per run; `setup_s` is the median of their set-up.
const SETUPS: usize = 9;
const HOT_PAYLOADS: usize = 12;
const WORLD_SEED: u64 = 42;
const SLICES: usize = 10;
/// Distinct payloads of the traced run's cold pass, a third per endpoint:
/// more than the server's 256-entry response cache holds, so it evicts.
const COLD_PAYLOADS: usize = 300;
/// Cold payloads re-sent after the pass to check that the server answers
/// them with the same bytes again.
const RECHECK: usize = 32;
/// Hot requests whose HTTP parse and cache key are timed in process.
const HOT_REPLAY: usize = 3000;

/// One request, serialized before anything is timed.
struct Payload {
    endpoint: usize,
    path: String,
    wire: String,
    body_at: usize,
}

impl Payload {
    fn body(&self) -> &str {
        &self.wire[self.body_at..]
    }

    fn request(&self) -> Result<http::Request, String> {
        match http::parse_request(self.wire.as_bytes()) {
            ParseStatus::Complete { request, .. } => Ok(request),
            _ => Err(format!("a {} payload does not parse", self.path)),
        }
    }
}

/// `loadgen` payloads as requests.
fn payloads(generated: Vec<(String, String)>) -> Vec<Payload> {
    generated
        .into_iter()
        .map(|(path, body)| {
            let endpoint = ENDPOINTS
                .iter()
                .position(|e| path.ends_with(e))
                .expect("loadgen payloads target analyze, diff or impact");
            let head = format!(
                "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            Payload {
                endpoint,
                path,
                body_at: head.len(),
                wire: head + &body,
            }
        })
        .collect()
}

/// A running server; dropping it without `stop` still stops it.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
    /// Held so the server's stdout stays open while it runs.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts the server, pinned with all its threads to `cpu` if given.
    fn start(cpu: Option<usize>) -> Result<Server, String> {
        let mut command = Command::new(crate::release_bin("sbomdiff-serve"));
        command
            .args(["serve", "--port", "0", "--jobs", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(cpu) = cpu {
            // SAFETY: the hook only makes one async-signal-safe syscall.
            unsafe { command.pre_exec(move || crate::sys::pin_current_thread(cpu)) };
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawning sbomdiff-serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .rsplit("http://")
            .next()
            .and_then(|a| a.trim().parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child: Some(child),
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = crate::sys::terminate(child, Duration::from_secs(5));
                Err(format!(
                    "sbomdiff-serve did not report its address: {line:?}"
                ))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn stop(mut self) -> Result<(), String> {
        let child = self.child.take().expect("a server is stopped once");
        match crate::sys::terminate(child, Duration::from_secs(10)) {
            Ok(true) => Ok(()),
            Ok(false) => Err("sbomdiff-serve did not exit cleanly on SIGTERM".into()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Counters from `/metrics`, fetched over a fresh connection.
    fn counters(&self) -> Result<Counters, String> {
        let mut c = Client::connect(self.addr).map_err(|e| e.to_string())?;
        let reply = c
            .roundtrip(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&c.buf[reply.body.clone()]).into_owned();
        let get = |name: &str| -> f64 {
            text.lines()
                .filter(|l| l.starts_with(name) && l[name.len()..].starts_with([' ', '{']))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .sum()
        };
        Ok(Counters {
            hits: get("sbomdiff_cache_hits_total"),
            misses: get("sbomdiff_cache_misses_total"),
            parse_hits: get("sbomdiff_parse_cache_hits_total"),
            parse_misses: get("sbomdiff_parse_cache_misses_total"),
            enrich_hits: get("sbomdiff_enrich_cache_hits_total"),
            enrich_misses: get("sbomdiff_enrich_cache_misses_total"),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            let _ = crate::sys::terminate(child, Duration::from_secs(10));
        }
    }
}

#[derive(Clone, Copy)]
struct Counters {
    hits: f64,
    misses: f64,
    parse_hits: f64,
    parse_misses: f64,
    enrich_hits: f64,
    enrich_misses: f64,
}

struct Reply {
    status: u16,
    body: std::ops::Range<usize>,
}

/// One keep-alive connection that sends a request and reads its response.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends `wire` and reads one response; its body is `self.buf[body]`
    /// until the next call.
    fn roundtrip(&mut self, wire: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 1 << 16];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill(&mut chunk)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill(&mut chunk)?;
        }
        Ok(Reply {
            status,
            body: head_end..head_end + length,
        })
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        let n = self.stream.read(chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn is_degraded(body: &[u8]) -> bool {
    body.windows(15).any(|w| w == b"\"degraded\":true")
}

/// One timed request.
#[derive(Clone, Copy)]
struct Sample {
    payload: usize,
    start: Instant,
    end: Instant,
    ok: bool,
    hash: u64,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Closed loop on one connection: sends the next request of `sequence` as
/// soon as the previous response is read, until `window` has passed or the
/// sequence ends. With `expected`, a body must equal the payload's
/// expected bytes; without, its digest is kept.
fn drive(
    addr: SocketAddr,
    payloads: &[Payload],
    sequence: &(dyn Fn(usize) -> Option<usize> + Sync),
    window: Duration,
    expected: Option<&[Vec<u8>]>,
    pin: Option<usize>,
) -> Result<Vec<Sample>, String> {
    let run = || -> io::Result<Vec<Sample>> {
        if let Some(cpu) = pin {
            crate::sys::pin_current_thread(cpu)?;
        }
        let mut client = Client::connect(addr)?;
        let deadline = Instant::now() + window;
        let mut out = Vec::new();
        while Instant::now() < deadline {
            let Some(p) = sequence(out.len()) else { break };
            let start = Instant::now();
            let reply = client.roundtrip(payloads[p].wire.as_bytes())?;
            let end = Instant::now();
            let body = &client.buf[reply.body];
            let ok = (200..300).contains(&reply.status)
                && !is_degraded(body)
                && expected.is_none_or(|e| e[p] == body);
            let hash = if expected.is_some() {
                0
            } else {
                crate::fnv64(body)
            };
            out.push(Sample {
                payload: p,
                start,
                end,
                ok,
                hash,
            });
        }
        Ok(out)
    };
    // Its own thread, so pinning the load generator leaves this one free.
    std::thread::scope(|s| {
        s.spawn(run)
            .join()
            .expect("load-generator thread panicked")
    })
    .map_err(|e| format!("client: {e}"))
}

/// Sends each payload once, in order, on a fresh connection; returns the
/// bodies. Any non-2xx or degraded answer is an error.
fn send_each(addr: SocketAddr, payloads: &[&Payload]) -> Result<Vec<Vec<u8>>, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut bodies = Vec::with_capacity(payloads.len());
    for p in payloads {
        let reply = client
            .roundtrip(p.wire.as_bytes())
            .map_err(|e| e.to_string())?;
        let body = client.buf[reply.body].to_vec();
        if !(200..300).contains(&reply.status) || is_degraded(&body) {
            return Err(format!(
                "{} answered {}: {}",
                p.path,
                reply.status,
                String::from_utf8_lossy(&body)
            ));
        }
        bodies.push(body);
    }
    Ok(bodies)
}

/// Window statistics: p50 over all samples; throughput and p99 as medians
/// over equal time slices (by completion time).
struct Stats {
    window_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    ops_per_s: f64,
}

fn stats(samples: &[Sample]) -> Stats {
    let latencies: Vec<f64> = samples.iter().map(Sample::ms).collect();
    let (Some(first), Some(last)) = (
        samples.iter().map(|s| s.start).min(),
        samples.iter().map(|s| s.end).max(),
    ) else {
        return Stats {
            window_s: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            ops_per_s: 0.0,
        };
    };
    let slice = (last - first).as_secs_f64() / SLICES as f64;
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for s in samples.iter().filter(|s| s.ok) {
        let at = (s.end - first).as_secs_f64() / slice;
        by_slice[(at as usize).min(SLICES - 1)].push(s.ms());
    }
    let rates: Vec<f64> = by_slice.iter().map(|v| v.len() as f64 / slice).collect();
    let p99s: Vec<f64> = by_slice.iter().map(|v| quantile(v, 0.99)).collect();
    Stats {
        window_s: (last - first).as_secs_f64(),
        p50_ms: median(&latencies),
        p99_ms: median(&p99s),
        ops_per_s: median(&rates),
    }
}

/// Seeded Fisher-Yates shuffle (splitmix64).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// A listening, primed server.
struct Primed {
    server: Server,
    /// Response bodies of the hot payloads.
    bodies: Vec<Vec<u8>>,
    /// Median set-up time over all servers started.
    setup_s: f64,
}

/// Starts fresh servers, each pinned to `cpu`, and primes them with the
/// hot payloads; all but the last are stopped.
fn set_up(hot: &[Payload], cpu: Option<usize>) -> Result<Primed, String> {
    let primers: Vec<&Payload> = hot.iter().collect();
    let mut times = Vec::with_capacity(SETUPS);
    for round in 0..SETUPS {
        let start = Instant::now();
        let server = Server::start(cpu)?;
        let bodies = send_each(server.addr, &primers).map_err(|e| format!("priming: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        if round + 1 == SETUPS {
            return Ok(Primed {
                server,
                bodies,
                setup_s: median(&times),
            });
        }
        server.stop()?;
    }
    unreachable!("SETUPS is positive")
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut hot = payloads(build_payloads(WORLD_SEED, HOT_PAYLOADS));
    shuffle(&mut hot, args.seed);
    let cold = if args.trace {
        cold_payloads(&hot)
    } else {
        Vec::new()
    };
    // With one connection, the client and the reactor hand every request
    // back and forth; unpinned, whether the scheduler puts the two threads
    // on one core or two moved throughput by more than the noise bound.
    let cpu = crate::sys::first_cpu();
    let primed = set_up(&hot, cpu)?;
    let result = measure(args, &hot, &cold, cpu, &primed);
    let stopped = primed.server.stop();
    let mut outcome = result?;
    if let Err(e) = stopped {
        outcome.fail(e);
    }
    outcome.set("setup_s", primed.setup_s);
    Ok(outcome)
}

/// `build_payloads(WORLD_SEED, COLD_PAYLOADS)` without the hot ones.
fn cold_payloads(hot: &[Payload]) -> Vec<Payload> {
    let mut cold = payloads(build_payloads(WORLD_SEED, COLD_PAYLOADS));
    cold.retain(|c| hot.iter().all(|h| h.wire != c.wire));
    cold
}

fn measure(
    args: &Args,
    hot: &[Payload],
    cold: &[Payload],
    cpu: Option<usize>,
    primed: &Primed,
) -> Result<Outcome, String> {
    let server = &primed.server;
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let window = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let before = server.counters()?;
    let cpu_before = crate::sys::cpu_ms(server.pid());
    let traced_start = Instant::now();
    let samples = drive(
        server.addr,
        hot,
        &|i| Some(i % hot.len()),
        window,
        Some(&primed.bodies),
        cpu,
    )?;
    let cpu_ms = crate::sys::cpu_ms(server.pid()) - cpu_before;
    let after = server.counters()?;
    let rss = crate::sys::peak_rss_mb(&server.pid().to_string());

    let requests = samples.len() as f64;
    let hits = after.hits - before.hits;
    if hits != requests {
        outcome.fail(format!(
            "{hits} response-cache hits for {requests} requests"
        ));
    }
    outcome.attempted = samples.len() as u64;
    outcome.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    if outcome.failed > 0 {
        outcome.fail(format!(
            "{} responses were not 2xx, degraded, or differed from the primed bytes",
            outcome.failed
        ));
    }
    let window_stats = stats(&samples);
    outcome.notes.push(format!(
        "{} requests in {:.2} s",
        samples.len(),
        window_stats.window_s
    ));
    if !args.trace {
        outcome.set("ops_per_s", window_stats.ops_per_s);
        outcome.set("p50_ms", window_stats.p50_ms);
        outcome.set("p99_ms", window_stats.p99_ms);
        outcome.set("peak_rss_mb", rss);
        return Ok(outcome);
    }

    outcome.set("service.respcache.hits_per_request", hits / requests);
    outcome.set("service.cpu_ms_per_request", cpu_ms / requests);
    let mut t = Tracer::new(traced_start);
    for (id, s) in samples.iter().enumerate() {
        let ep = ENDPOINTS[hot[s.payload].endpoint];
        t.record(format!("service.hot.{ep}"), s.start, s.end, None, id as u64);
    }
    hot_layers(hot, &samples, &mut outcome)?;
    let cold_samples = cold_pass(server, cold, cpu, &mut t, &mut outcome)?;
    cold_layers(hot, cold, &cold_samples, &mut t, &mut outcome)?;
    outcome.set(
        "trace.overhead_pct",
        t.record_cost().as_secs_f64() / traced_start.elapsed().as_secs_f64() * 100.0,
    );
    let path = crate::work_dir("serve-hot")
        .map_err(|e| e.to_string())?
        .join("trace.jsonl");
    t.write_jsonl(&path.to_string_lossy())
        .map_err(|e| e.to_string())?;
    Ok(outcome)
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// HTTP parse and response-cache key of the hot requests, in process.
fn hot_layers(hot: &[Payload], samples: &[Sample], outcome: &mut Outcome) -> Result<(), String> {
    let (mut parse_us, mut key_us) = (Vec::new(), Vec::new());
    for s in samples.iter().take(HOT_REPLAY) {
        let p = &hot[s.payload];
        let start = Instant::now();
        let request = p.request()?;
        parse_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        std::hint::black_box(ResponseCache::key(&request.path, &request.body));
        key_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    outcome.set("service.http.parse_us", median(&parse_us));
    outcome.set("service.respcache.key_us", median(&key_us));
    Ok(())
}

/// Sends every cold payload once on one connection, then the first few
/// again; checks that none hit the response cache and that the re-sent
/// ones come back with the same bytes. Records a client span per request.
fn cold_pass(
    server: &Server,
    cold: &[Payload],
    cpu: Option<usize>,
    t: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Vec<Sample>, String> {
    let before = server.counters()?;
    let samples = drive(
        server.addr,
        cold,
        &|i| (i < cold.len()).then_some(i),
        Duration::from_secs(120),
        None,
        cpu,
    )?;
    let after = server.counters()?;
    if samples.len() != cold.len() {
        outcome.fail(format!(
            "cold pass sent {} of {} payloads",
            samples.len(),
            cold.len()
        ));
    }
    let requests = samples.len() as f64;
    let hits = after.hits - before.hits;
    if hits != 0.0 {
        outcome.fail(format!("{hits} response-cache hits on distinct payloads"));
    }
    outcome.attempted += samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    if failed > 0 {
        outcome.failed += failed;
        outcome.fail(format!("{failed} cold responses were not 2xx or degraded"));
    }
    outcome.set(
        "service.respcache.lookups_per_request",
        (hits + after.misses - before.misses) / requests,
    );
    outcome.set(
        "service.parse_cache.hit_ratio",
        ratio(
            after.parse_hits - before.parse_hits,
            after.parse_misses - before.parse_misses,
        ),
    );
    outcome.set(
        "service.enrich_cache.hit_ratio",
        ratio(
            after.enrich_hits - before.enrich_hits,
            after.enrich_misses - before.enrich_misses,
        ),
    );
    let first: Vec<&Sample> = samples.iter().take(RECHECK).collect();
    let again: Vec<&Payload> = first.iter().map(|s| &cold[s.payload]).collect();
    let bodies = send_each(server.addr, &again).map_err(|e| format!("recheck: {e}"))?;
    let differing = first
        .iter()
        .zip(&bodies)
        .filter(|(s, b)| crate::fnv64(b) != s.hash)
        .count();
    if differing > 0 {
        outcome.fail(format!("{differing} re-sent cold responses differ"));
    }
    for (id, s) in samples.iter().enumerate() {
        let ep = ENDPOINTS[cold[s.payload].endpoint];
        t.record(format!("service.client.{ep}"), s.start, s.end, None, id as u64);
    }
    Ok(samples)
}

/// The cold requests through the in-process handler on a state primed like
/// the server (handler spans with the client spans' request ids; transport
/// is client minus handler per id), then the lexers and generators under it.
fn cold_layers(
    hot: &[Payload],
    cold: &[Payload],
    samples: &[Sample],
    t: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let state = AppState::new(WORLD_SEED, 256);
    for p in hot {
        api::execute_cached(&state, &p.request()?, 0);
    }
    let mut differing = 0;
    for (id, s) in samples.iter().enumerate() {
        let p = &cold[s.payload];
        let request = p.request()?;
        let start = Instant::now();
        let executed = api::execute_cached(&state, &request, 0);
        let end = Instant::now();
        let body = match &executed {
            Executed::Hit(entry) => &entry.response.body,
            Executed::Miss(response) => &response.body,
        };
        if crate::fnv64(body) != s.hash {
            differing += 1;
        }
        let ep = ENDPOINTS[p.endpoint];
        t.record(format!("service.handler.{ep}"), start, end, None, id as u64);
    }
    if differing > 0 {
        outcome.fail(format!(
            "{differing} in-process responses differ from the server's"
        ));
    }
    let mut transport = Vec::new();
    for ep in ENDPOINTS {
        let client = t.durations_ms(&format!("service.client.{ep}"));
        let handler: std::collections::HashMap<u64, f64> = t
            .durations_ms(&format!("service.handler.{ep}"))
            .into_iter()
            .collect();
        let ms = |v: Vec<f64>| median(&v);
        outcome.set(
            format!("service.client.{ep}.p50_ms"),
            ms(client.iter().map(|&(_, m)| m).collect()),
        );
        outcome.set(
            format!("service.handler.{ep}.p50_ms"),
            ms(handler.values().copied().collect()),
        );
        for (id, c) in client {
            if let Some(h) = handler.get(&id) {
                transport.push(c - h);
            }
        }
    }
    outcome.set("service.transport.p50_ms", median(&transport));

    // Lexers on the cold request bodies, repeated to at least 4 MB.
    let (mut bytes, mut stream_ms, mut json_ms) = (0usize, 0.0, 0.0);
    while bytes < 4 << 20 {
        for (i, p) in cold.iter().enumerate() {
            let body = p.body();
            bytes += body.len();
            let start = Instant::now();
            let mut s = stream::JsonStream::new(body.as_bytes());
            while let Ok(Some(_)) = s.next_event() {}
            let mid = Instant::now();
            std::hint::black_box(json::parse(body).is_ok());
            let end = Instant::now();
            t.record("textformats.stream", start, mid, None, i as u64);
            t.record("textformats.json", mid, end, None, i as u64);
            stream_ms += (mid - start).as_secs_f64() * 1e3;
            json_ms += (end - mid).as_secs_f64() * 1e3;
        }
    }
    outcome.set(
        "textformats.stream.mb_per_s",
        bytes as f64 / 1e6 / (stream_ms / 1e3),
    );
    outcome.set(
        "textformats.json.mb_per_s",
        bytes as f64 / 1e6 / (json_ms / 1e3),
    );
    generators(cold, t, outcome)
}

/// Scan and emulation, as `/v1/analyze` runs them, on the cold analyze
/// payloads.
fn generators(cold: &[Payload], t: &mut Tracer, outcome: &mut Outcome) -> Result<(), String> {
    let registries = Registries::generate(WORLD_SEED);
    let tools = studied_tools(&registries, 0.0);
    let cache = ParseCache::new();
    let (mut scan_ms, mut emulate_ms) = (0.0, 0.0);
    for (i, p) in cold.iter().enumerate().filter(|(_, p)| p.endpoint == 0) {
        let doc = json::parse(p.body()).map_err(|e| e.to_string())?;
        let mut repo = RepoFs::new(doc.get("name").and_then(Value::as_str).unwrap_or("repo"));
        for (path, text) in doc.get("files").and_then(Value::as_object).unwrap_or(&[]) {
            repo.add_text(path.clone(), text.as_str().unwrap_or(""));
        }
        let a = Instant::now();
        let scan = ScanContext::new(&repo, &cache);
        for &(path, kind) in scan.files() {
            scan.parsed(path, kind, ReqStyle::Pip);
        }
        let b = Instant::now();
        for tool in &tools {
            std::hint::black_box(tool.generate_with_scan(&scan));
        }
        let c = Instant::now();
        t.record("generators.scan", a, b, None, i as u64);
        t.record("generators.emulate", b, c, None, i as u64);
        scan_ms += (b - a).as_secs_f64() * 1e3;
        emulate_ms += (c - b).as_secs_f64() * 1e3;
    }
    outcome.set("generators.scan.ms", scan_ms);
    outcome.set("generators.emulate.ms", emulate_ms);
    outcome.set(
        "generators.parse_cache.hit_ratio",
        ratio(cache.hits() as f64, cache.misses() as f64),
    );
    Ok(())
}
