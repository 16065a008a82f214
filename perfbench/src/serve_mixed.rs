//! `serve-mixed`: what a `simdize serve` client pays. A child
//! `simdize serve 127.0.0.1:0` with default flags is driven closed-loop
//! by two connections, one request in flight on each. Every request
//! re-parses and re-compiles, so the `ir`, `reorg` and `codegen` layers
//! and the wire dominate; a quarter of the requests carry a loop never
//! sent before, so the kernel-cache miss path stays measured.

use crate::inputs::{self, serve_loop};
use crate::metrics::{
    cpu_seconds, geomean, median, peak_rss_mb, percentile, Outcome, SERVER_VERBS,
};
use crate::{replay, Layers, RunConfig};
use simdize::{
    analyze_program, parse_program, run_simd, AnalyzeOptions, KernelCache, MemoryImage, ReuseMode,
    RunInput, ScalarType, Simdizer, VectorShape,
};
use simdize_prng::SplitMix64;
use simdize_server::protocol::{ok_response, parse_request};
use simdize_telemetry::json::{self, Json};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections, each with one request in flight.
const CONNECTIONS: usize = 2;
/// Sources most requests draw from (see [`hot_loop`]).
const HOT: usize = 8;
/// Share of `run`, `compile` and `sweep` requests carrying a loop never
/// sent before. Every `analyze` request carries one too, so about a
/// quarter of all requests do (1/9 + 7/9 × 0.18 ≈ 0.25).
const UNIQUE_SHARE: f64 = 0.18;
/// Warm-up requests per connection in each set-up.
const WARMUP: usize = 250;
/// Seeds per `sweep` request.
const SWEEP_COUNT: u64 = 4;
/// Trip count sent for loops with a runtime `ub`.
const UB: u64 = 200;
/// The traced run fails when the in-process replay covers less than
/// this share of the client latency. The rest is the wire, the queue
/// hand-off, per-request bookkeeping and two clients sharing two cores
/// with the server, none of which the replay crosses: the replay
/// covered 42-65% when the benchmark was written.
const MIN_COVERAGE: f64 = 0.3;
/// The longest a reply may take before the run gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Run,
    Compile,
    Sweep,
    Analyze,
    Ping,
}

/// The verbs each connection cycles through: the request mix of
/// `loadgen` (`crates/bench/src/bin/loadgen.rs`: 5 `run`, 1 `compile`,
/// 1 `sweep` and 1 `ping` in 8, in its order) with one `analyze` added.
/// The `analyze` share is a choice, not taken from measured traffic.
const MIX: [Verb; 9] = [
    Verb::Run,
    Verb::Run,
    Verb::Run,
    Verb::Compile,
    Verb::Sweep,
    Verb::Run,
    Verb::Ping,
    Verb::Run,
    Verb::Analyze,
];

impl Verb {
    fn name(self) -> &'static str {
        match self {
            Verb::Run => "run",
            Verb::Compile => "compile",
            Verb::Sweep => "sweep",
            Verb::Analyze => "analyze",
            Verb::Ping => "ping",
        }
    }
}

/// Every source sent so far; the first `HOT` are the hot set.
#[derive(Default)]
struct Sources {
    list: Vec<String>,
    seen: HashSet<String>,
}

impl Sources {
    fn add(&mut self, source: String) -> Option<usize> {
        if !self.seen.insert(source.clone()) {
            return None;
        }
        self.list.push(source);
        Some(self.list.len() - 1)
    }
}

/// Hot source `h`: one of each statements {1,2} × element {i32,i16} ×
/// {compile-time, runtime} shape, three loads a statement and no array
/// reuse, so the seed moves offsets, alignments and trips but not the
/// amount of work: with 8 hot sources taking three quarters of the
/// requests, a seed-drawn shape mix moved throughput by ±15%.
fn hot_loop(rng: &mut SplitMix64, h: usize) -> String {
    let elem = if (h / 2).is_multiple_of(2) {
        ScalarType::I32
    } else {
        ScalarType::I16
    };
    serve_loop(rng, 1 + h / 4, 3, 0.0, elem, h % 2 == 1)
}

/// One request as sent and its reply as received.
struct Exchange {
    verb: Verb,
    source: Option<usize>,
    seed: u64,
    line: String,
    reply: String,
    sent_at: Instant,
    latency_us: f64,
}

/// One client connection and the seeded generator of its requests.
struct Client {
    /// Connection number; it sets where the client starts in [`MIX`].
    conn: usize,
    rng: SplitMix64,
    next_id: u64,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str, conn: usize, rng: SplitMix64) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            conn,
            rng,
            next_id: 1,
            writer: stream,
            reader,
        })
    }

    /// Sends `line` and waits for the reply line.
    fn exchange(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Draws the next request: verb, source (hot or never sent before)
    /// and memory seed.
    fn next_request(
        &mut self,
        sources: &Mutex<Sources>,
        hot_seeds: &[u64],
    ) -> (Verb, Option<usize>, u64, String) {
        let id = self.next_id;
        self.next_id += 1;
        // As `loadgen` picks: connection k starts 7k requests in.
        let verb = MIX[(self.conn * 7 + id as usize - 1) % MIX.len()];
        if verb == Verb::Ping {
            return (
                verb,
                None,
                0,
                format!("{{\"v\":1,\"id\":{id},\"cmd\":\"ping\"}}"),
            );
        }
        // `analyze` only sees compile-time alignments: over runtime
        // alignments the analysis sweeps every alignment scenario and
        // took 14-330 ms a request, so the verb drowned the rest of the
        // mix. It always gets a fresh loop: its latencies set the p99,
        // and over 4 hot sources that tail moved with the seed.
        let runtime = verb != Verb::Analyze && self.rng.chance(0.5);
        let (index, seed) = if verb == Verb::Analyze || self.rng.chance(UNIQUE_SHARE) {
            let index = loop {
                let statements = 1 + self.rng.index(2);
                let loads = 2 + 2 * self.rng.index(2);
                let elem = if self.rng.chance(0.5) {
                    ScalarType::I32
                } else {
                    ScalarType::I16
                };
                let source = serve_loop(&mut self.rng, statements, loads, 0.3, elem, runtime);
                let added = sources.lock().expect("source registry lock").add(source);
                if let Some(index) = added {
                    break index;
                }
            };
            (index, self.rng.next_u64() >> 16)
        } else {
            let h = 2 * self.rng.index(HOT / 2) + usize::from(runtime);
            (h, hot_seeds[h])
        };
        let source = sources.lock().expect("source registry lock").list[index].clone();
        let count = if verb == Verb::Sweep {
            format!(",\"count\":{SWEEP_COUNT}")
        } else {
            String::new()
        };
        let line = format!(
            "{{\"v\":1,\"id\":{id},\"cmd\":\"{}\",\"source\":\"{}\",\"seed\":{seed},\"ub\":{UB}{count}}}",
            verb.name(),
            json::escape(&source)
        );
        (verb, Some(index), seed, line)
    }
}

/// When a client stops sending.
#[derive(Clone, Copy)]
enum Stop {
    After(usize),
    At(Instant),
}

/// Drives every client closed-loop until `stop`, in parallel.
fn drive(
    clients: &mut [Client],
    sources: &Mutex<Sources>,
    hot_seeds: &[u64],
    stop: Stop,
) -> Result<Vec<Exchange>, String> {
    let per_client: Vec<Result<Vec<Exchange>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        match stop {
                            Stop::After(n) if done.len() >= n => break,
                            Stop::At(t) if Instant::now() >= t && !done.is_empty() => break,
                            _ => {}
                        }
                        let (verb, source, seed, line) = client.next_request(sources, hot_seeds);
                        let sent_at = Instant::now();
                        let reply = client.exchange(&line)?;
                        let latency_us = sent_at.elapsed().as_secs_f64() * 1e6;
                        done.push(Exchange {
                            verb,
                            source,
                            seed,
                            line,
                            reply,
                            sent_at,
                            latency_us,
                        });
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for exchanges in per_client {
        all.extend(exchanges?);
    }
    all.sort_by_key(|e| e.sent_at);
    Ok(all)
}

/// The `simdize serve` child. Dropping it kills the process if it is
/// still running and waits for it.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn start(exe: &std::path::Path) -> Result<Server, String> {
        let mut child = Command::new(exe)
            .args(["simdize", "serve", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
        };
        read.map_err(|e| format!("server announcement: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected server announcement {line:?}"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and exit over `client`, and waits.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        client.exchange("{\"v\":1,\"id\":0,\"cmd\":\"shutdown\"}")?;
        // Reading the summary the child prints on exit keeps its stdout
        // writable until it is done.
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The in-process reference for a `run` request: the vm interpreter's
/// operation count, and the elements one job produces.
#[derive(Debug, Clone, Copy)]
struct Reference {
    ops: u64,
    data: u64,
}

fn reference(source: &str, seed: u64) -> Result<Reference, String> {
    let program = parse_program(source).map_err(|e| e.to_string())?;
    let compiled = Simdizer::new()
        .compile(&program)
        .map_err(|e| e.to_string())?;
    let ub = program.trip().known().unwrap_or(UB);
    let mut image = MemoryImage::with_seed(&program, VectorShape::V16, seed);
    let stats =
        run_simd(&compiled, &mut image, &RunInput::with_ub(ub)).map_err(|e| e.to_string())?;
    Ok(Reference {
        ops: stats.total(),
        data: program.stmts().len() as u64 * ub,
    })
}

/// One started server with its connected clients, and the warm-up
/// exchanges, whose replies are checked after the measured window.
struct Running {
    server: Server,
    clients: Vec<Client>,
    warmup: Vec<Exchange>,
}

/// Starts the server, connects the clients (seeded by the set-up
/// number `setup`) and warms up.
fn start_server(
    cfg: &RunConfig,
    setup: u64,
    sources: &Mutex<Sources>,
    hot_seeds: &[u64],
) -> Result<Running, String> {
    let server = Server::start(&cfg.server_exe)?;
    let mut clients = (0..CONNECTIONS)
        .map(|c| {
            let rng = SplitMix64::new(cfg.seed).split(1000 * setup + c as u64);
            Client::connect(&server.addr, c, rng)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let warmup = drive(&mut clients, sources, hot_seeds, Stop::After(WARMUP))?;
    Ok(Running {
        server,
        clients,
        warmup,
    })
}

/// Computes the reference of every `run` request not yet in `refs`, on
/// two threads. The window is over by then, so this slows nothing that
/// is measured.
fn fill_references(
    exchanges: &[Exchange],
    sources: &Sources,
    refs: &mut HashMap<(usize, u64), Reference>,
) -> Result<(), String> {
    let mut missing: Vec<(usize, u64)> = exchanges
        .iter()
        .filter(|e| e.verb == Verb::Run)
        .filter_map(|e| e.source.map(|index| (index, e.seed)))
        .filter(|key| !refs.contains_key(key))
        .collect();
    missing.sort_unstable();
    missing.dedup();
    let per_thread = missing.len().div_ceil(CONNECTIONS).max(1);
    let computed: Vec<Result<Vec<_>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = missing
            .chunks(per_thread)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(index, seed)| {
                            Ok(((index, seed), reference(&sources.list[index], seed)?))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    for chunk in computed {
        refs.extend(chunk?);
    }
    Ok(())
}

/// Elements one job of `source` produces.
fn job_data(source: &str) -> Result<u64, String> {
    let program = parse_program(source).map_err(|e| e.to_string())?;
    Ok(program.stmts().len() as u64 * program.trip().known().unwrap_or(UB))
}

/// Checks every reply: `ok`, and for `run` a `verified:true` with the
/// reference operation count, for `sweep` every seed verified.
fn check(
    exchanges: &[Exchange],
    refs: &HashMap<(usize, u64), Reference>,
    out: &mut Outcome,
) -> Result<(), String> {
    for e in exchanges {
        // `compile` and `analyze` results are whole listings and reports:
        // only their envelope is parsed.
        let text = match e.reply.split_once(",\"result\":") {
            Some((envelope, _)) if matches!(e.verb, Verb::Compile | Verb::Analyze) => {
                format!("{envelope}}}")
            }
            _ => e.reply.clone(),
        };
        let reply = json::parse(&text).map_err(|err| format!("reply is not JSON: {err}"))?;
        let mut ok = reply.get("ok") == Some(&Json::Bool(true));
        let result = reply.get("result");
        let field = |k: &str| result.and_then(|r| r.get(k));
        match (e.verb, e.source) {
            (Verb::Run, Some(index)) => {
                ok &= field("verified") == Some(&Json::Bool(true))
                    && field("engine_ops").and_then(Json::as_f64)
                        == Some(refs[&(index, e.seed)].ops as f64);
            }
            (Verb::Sweep, _) => {
                ok &= field("verified").and_then(Json::as_f64) == Some(SWEEP_COUNT as f64);
            }
            _ => {}
        }
        out.check(ok);
    }
    Ok(())
}

/// Replays one request in-process through the layers the server's
/// handler crosses, against `cache` (sized as the server's). Returns
/// whether every replayed run verified.
fn replay_request(
    e: &Exchange,
    sources: &Sources,
    cache: &KernelCache,
    layers: &mut Layers,
    counts: &mut replay::Counts,
) -> Result<bool, String> {
    let request = layers
        .time("server.decode_us", || parse_request(&e.line))
        .map_err(|err| err.message)?;
    let Some(index) = e.source else {
        let body = format!(
            "{{\"pong\":true,\"schema\":\"{}\"}}",
            simdize_server::protocol::WIRE_SCHEMA
        );
        layers.time("server.encode_us", || {
            ok_response(request.id, "c0-0", &body)
        });
        return Ok(true);
    };
    let program = inputs::parse(&sources.list[index], layers)?;
    let compiled = inputs::compile(&program, layers)?;
    let body = match e.verb {
        Verb::Compile => layers.time("server.encode_us", || {
            format!(
                "{{\"code\":\"{}\",\"sections\":{{\"prologue\":{},\"body\":{},\"epilogue\":{}}}}}",
                json::escape(&compiled.to_string()),
                compiled.prologue().len(),
                compiled.body().len(),
                compiled.epilogue().len()
            )
        }),
        Verb::Analyze => {
            let opts = AnalyzeOptions::new().reuse(ReuseMode::SoftwarePipeline);
            let report = layers.time("analysis.us", || analyze_program(&compiled, &opts));
            layers.time("server.encode_us", || {
                format!(
                    "{{\"deny\":{},\"warn\":{},\"report\":{}}}",
                    report.deny_count(),
                    report.warn_count(),
                    report.render_json()
                )
            })
        }
        Verb::Run | Verb::Sweep => {
            let jobs = if e.verb == Verb::Run { 1 } else { SWEEP_COUNT };
            let input = RunInput::with_ub(program.trip().known().unwrap_or(UB));
            let verified = replay::sweep(
                &compiled,
                (0..jobs).map(|k| e.seed.wrapping_add(k)),
                &input,
                cache,
                layers,
                counts,
            )?;
            if verified != jobs {
                return Ok(false);
            }
            layers.time("server.encode_us", || {
                format!("{{\"count\":{jobs},\"verified\":{verified}}}")
            })
        }
        Verb::Ping => unreachable!("ping carries no source"),
    };
    layers.time("server.encode_us", || {
        ok_response(request.id, "c0-0", &body)
    });
    Ok(true)
}

/// Runs the workload.
///
/// # Errors
///
/// A server that cannot be started or reached, or a reply that is not
/// JSON.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sources = Mutex::new(Sources::default());
    let mut hot_rng = SplitMix64::new(cfg.seed).split(0x484F_5421);
    for h in 0..HOT {
        let source = hot_loop(&mut hot_rng, h);
        sources.lock().expect("source registry lock").add(source);
    }
    let hot_seeds: Vec<u64> = (0..HOT).map(|_| hot_rng.next_u64() >> 16).collect();
    let mut refs: HashMap<(usize, u64), Reference> = HashMap::new();

    let mut setup_s = Vec::new();
    let mut warmup = Vec::new();
    let mut running = None;
    for n in 0..crate::SETUPS {
        let t0 = Instant::now();
        for (h, &seed) in hot_seeds.iter().enumerate() {
            let source = sources.lock().expect("source registry lock").list[h].clone();
            refs.insert((h, seed), reference(&source, seed)?);
        }
        let mut s = start_server(cfg, n as u64, &sources, &hot_seeds)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        warmup.append(&mut s.warmup);
        if let Some(Running {
            server,
            mut clients,
            ..
        }) = running.replace(s)
        {
            server.shutdown(&mut clients[0])?;
        }
    }
    let Running {
        server,
        mut clients,
        ..
    } = running.expect("at least one set-up");

    // The traced run spends half its budget on the untraced window and
    // the rest replaying it.
    let window = if cfg.trace {
        cfg.measure / 2
    } else {
        cfg.measure
    };
    let cpu0 = cpu_seconds(Some(server.pid()))?;
    let start = Instant::now();
    let exchanges = drive(&mut clients, &sources, &hot_seeds, Stop::At(start + window))?;
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds(Some(server.pid()))? - cpu0;
    let peak = peak_rss_mb(Some(server.pid()))?;
    server.shutdown(&mut clients[0])?;
    let sources = sources.into_inner().expect("source registry lock");
    fill_references(&warmup, &sources, &mut refs)?;
    fill_references(&exchanges, &sources, &mut refs)?;
    check(&warmup, &refs, &mut out)?;
    check(&exchanges, &refs, &mut out)?;

    let latency: Vec<f64> = exchanges.iter().map(|e| e.latency_us).collect();
    let mut sweeps = Vec::<f64>::new();
    let (mut jobs, mut data, mut opds) = (0u64, 0u64, Vec::new());
    for e in &exchanges {
        let Some(index) = e.source else { continue };
        match e.verb {
            Verb::Run => {
                let r = refs[&(index, e.seed)];
                jobs += 1;
                data += r.data;
                opds.push(r.ops as f64 / r.data as f64);
            }
            Verb::Sweep => {
                jobs += SWEEP_COUNT;
                data += SWEEP_COUNT * job_data(&sources.list[index])?;
                sweeps.push(e.latency_us / 1e6);
            }
            _ => {}
        }
    }
    let requests = exchanges.len() as f64;
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak);
    out.set("jobs_per_s", jobs as f64 / wall);
    out.set("opd", geomean(&opds));
    out.set("req_per_s", requests / wall);
    out.set("p50_us", median(&latency));
    out.set("p99_us", percentile(&latency, 99.0));
    out.set("cpu_us_per_req", cpu * 1e6 / requests);
    out.set("ns_per_datum", wall * 1e9 / data as f64);
    out.set("verdict_s", median(&sweeps));

    if cfg.trace {
        let per_verb = |v: Verb| -> Vec<f64> {
            exchanges
                .iter()
                .filter(|e| e.verb == v)
                .map(|e| e.latency_us)
                .collect()
        };
        out.set("server.ping_p50_us", median(&per_verb(Verb::Ping)));
        for (verb, name) in [Verb::Run, Verb::Compile, Verb::Sweep, Verb::Analyze]
            .into_iter()
            .zip(SERVER_VERBS)
        {
            out.set(&format!("server.{name}.p50_us"), median(&per_verb(verb)));
        }
        let cache = KernelCache::new(8, 32);
        let mut layers = Layers::default();
        let (mut untraced_us, mut layer_us, mut traced_us) = (0.0, 0.0, 0.0);
        let mut counts = replay::Counts::default();
        let mut replayed = 0u64;
        let deadline = start + cfg.measure;
        for e in &exchanges {
            if Instant::now() >= deadline && replayed > 0 {
                break;
            }
            let mut one = Layers::default();
            let t0 = Instant::now();
            let ok = replay_request(e, &sources, &cache, &mut one, &mut counts)?;
            traced_us += t0.elapsed().as_secs_f64() * 1e6;
            out.check(ok);
            untraced_us += e.latency_us;
            layer_us += one.total_us();
            layers.merge(one);
            replayed += 1;
        }
        layers.export(&mut out.values);
        counts.export(&mut out);
        out.set_coverage(MIN_COVERAGE, untraced_us, layer_us, traced_us, replayed);
        out.set("server.other_us", out.values["trace.other_us"]);
    }
    Ok(out)
}
