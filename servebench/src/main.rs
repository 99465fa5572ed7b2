//! `servebench`: the service benchmark's command.
//!
//! ```text
//! servebench --ppe PATH --work-dir DIR --workload NAME --seed N
//!            --seconds S --trace 0|1
//! ```
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits nonzero when any operation fails or any output check fails.
//! Normally started through `run.sh`, which builds `ppe` and this
//! binary first.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ppe_servebench::check::{Checker, Verdict};
use ppe_servebench::client::{self, pipeline, Conn, Server};
use ppe_servebench::stats::{median, quantile, ratio};
use ppe_servebench::streams::{Op, Stream, Workload};
use ppe_servebench::trace::{median_of, Mirror, Tracer, HANDLE_LAYERS};
use ppe_server::Json;

/// Set-ups per timed run; `setup_s` is their median. A cold set-up is
/// only a process start, so it is repeated more often.
fn setup_reps(w: Workload) -> usize {
    if w == Workload::ColdSpecialize {
        15
    } else {
        7
    }
}

struct Args {
    ppe: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        map.insert(flag.trim_start_matches("--").to_owned(), value.clone());
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        ppe: PathBuf::from(get("ppe")?),
        work: PathBuf::from(get("work-dir")?),
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: get("seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

/// What one timed (untraced) run measured.
#[derive(Default)]
struct Timed {
    setups_s: Vec<f64>,
    latencies_us: Vec<f64>,
    /// Client latency minus the response's `wall_us`.
    overheads_us: Vec<f64>,
    wall_us: Vec<f64>,
    completed: u64,
    attempted: u64,
    /// `disk_restart`: server CPU time summed over the restarts so far.
    restarts_cpu_ns: u64,
    peak_rss_mib: f64,
    residual_bytes: u64,
    /// The server's `{"cmd":"metrics"}` counters at the end.
    counters: BTreeMap<String, f64>,
    /// Measured rounds completed.
    rounds: u64,
    /// Share of the machine's CPU time stolen by the host while measuring.
    steal_share: f64,
    /// Completed measurement blocks (see `Stream::blocks`).
    blocks: Vec<Block>,
    /// Completed p99 groups of blocks.
    groups: Vec<Group>,
    /// Start of the open block.
    block_start: Option<Mark>,
    /// Start of the open group: first latency index, host CPU counters.
    group_start: (usize, (u64, u64)),
    rounds_per_block: u64,
    blocks_per_group: u64,
}

/// Where a block starts.
struct Mark {
    at: Instant,
    cpu_ns: u64,
    first: usize,
    host: (u64, u64),
}

/// One measurement block: a fixed number of whole rounds.
struct Block {
    secs: f64,
    requests: f64,
    cpu_ns: f64,
    p50_us: f64,
    steal_share: f64,
}

/// Consecutive blocks holding at least 1000 requests.
struct Group {
    p99_us: f64,
    steal_share: f64,
}

/// The share of the machine's CPU time the host stole between two
/// `client::host_steal` readings.
fn steal_between(from: (u64, u64), to: (u64, u64)) -> f64 {
    ratio(
        to.0.saturating_sub(from.0) as f64,
        to.1.saturating_sub(from.1) as f64,
    )
}

/// The items during which the host stole no more of the machine's CPU
/// time than during the median one. Steal only ever slows a block down,
/// and it comes in bursts, so the calmer half of a run's blocks measures
/// the program rather than its neighbours.
fn calm<T>(items: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let threshold = median(&mut items.iter().map(&steal).collect::<Vec<_>>());
    items.iter().filter(|x| steal(x) <= threshold).collect()
}

impl Timed {
    /// Opens the first block; `cpu_ns` is the server CPU time so far.
    fn start_blocks(&mut self, (rounds_per_block, blocks_per_group): (u64, u64), cpu_ns: u64) {
        self.rounds_per_block = rounds_per_block;
        self.blocks_per_group = blocks_per_group;
        let host = client::host_steal();
        self.block_start = Some(Mark {
            at: Instant::now(),
            cpu_ns,
            first: self.latencies_us.len(),
            host,
        });
        self.group_start = (self.latencies_us.len(), host);
    }

    /// Counts a completed round, closing a block after every
    /// `rounds_per_block` of them and a group after every
    /// `blocks_per_group` blocks.
    fn round_done(&mut self, cpu_ns: u64) {
        self.rounds += 1;
        let Some(start) = &self.block_start else {
            return;
        };
        if !self.rounds.is_multiple_of(self.rounds_per_block) {
            return;
        }
        let (now, host) = (Instant::now(), client::host_steal());
        let mut lat = self.latencies_us[start.first..].to_vec();
        self.blocks.push(Block {
            secs: (now - start.at).as_secs_f64(),
            requests: lat.len() as f64,
            cpu_ns: cpu_ns.saturating_sub(start.cpu_ns) as f64,
            p50_us: quantile(&mut lat, 0.5),
            steal_share: steal_between(start.host, host),
        });
        self.block_start = Some(Mark {
            at: now,
            cpu_ns,
            first: self.latencies_us.len(),
            host,
        });
        if (self.blocks.len() as u64).is_multiple_of(self.blocks_per_group) {
            let (first, host0) = self.group_start;
            let mut lat = self.latencies_us[first..].to_vec();
            self.groups.push(Group {
                p99_us: quantile(&mut lat, 0.99),
                steal_share: steal_between(host0, host),
            });
            self.group_start = (self.latencies_us.len(), host);
        }
    }

    /// The median of `f` over the calm blocks.
    fn over_blocks(&self, f: impl Fn(&Block) -> f64) -> f64 {
        let calm = calm(&self.blocks, |b| b.steal_share);
        median(&mut calm.into_iter().map(f).collect::<Vec<_>>())
    }

    /// The median p99 over the calm groups.
    fn p99_us(&self) -> f64 {
        let calm = calm(&self.groups, |g| g.steal_share);
        median(&mut calm.into_iter().map(|g| g.p99_us).collect::<Vec<_>>())
    }
}

fn io<T>(r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// `peak_rss_mib` is read once this many measured requests have been
/// answered: the residual cache grows with the requests served, so a
/// fixed amount of work (not the machine's speed) decides the reading.
const RSS_AFTER: u64 = 1000;

/// How `drive` accounts responses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Record {
    /// Set-up: checked, not measured.
    No,
    /// Measured, from server process `pid`; with `rounds`, a round's last
    /// response also counts the round (and may close a block).
    Yes { pid: u32, rounds: bool },
}

/// Drives `next`'s requests on `conn` with `window` outstanding, checking
/// each response; measured ones join the samples (and the peak RSS is
/// read after [`RSS_AFTER`] of them).
fn drive(
    conn: &mut Conn,
    window: usize,
    next: impl FnMut() -> Option<Op>,
    checker: &mut Checker,
    t: &mut Timed,
    record: Record,
) -> Result<(), String> {
    let mut next = next;
    let mut answered = 0u64;
    io(pipeline(
        conn,
        window,
        || {
            next().map(|op| {
                let line = op.line.clone();
                (op, line)
            })
        },
        |op, line, latency| {
            let (bytes, wall) = checker.check(&op, line);
            if let Record::Yes { pid, rounds } = record {
                answered += 1;
                if answered == RSS_AFTER {
                    t.peak_rss_mib = client::peak_rss_kib(pid) as f64 / 1024.0;
                }
                let us = latency.as_secs_f64() * 1e6;
                t.latencies_us.push(us);
                t.overheads_us.push(us - wall as f64);
                t.wall_us.push(wall as f64);
                t.residual_bytes += bytes as u64;
                t.completed += 1;
                if rounds && op.last_of_round {
                    t.round_done(client::cpu_ns(pid));
                }
            }
        },
    ))
}

/// Reads the server's own counters.
fn server_counters(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    let line = io(conn.call(r#"{"cmd":"metrics"}"#))?;
    let v = Json::parse(line)?;
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(m)) = v.get("metrics") {
        for (k, x) in m {
            if let Some(n) = x.as_f64() {
                out.insert(k.clone(), n);
            }
        }
    }
    Ok(out)
}

fn spawn(a: &Args, extra: &[&str]) -> Result<(Server, Conn), String> {
    if a.workload == Workload::WarmHitsTcp {
        io(Server::tcp(&a.ppe, extra))
    } else {
        io(Server::stdio(&a.ppe, extra))
    }
}

/// One timed run: `reps` set-ups, then whole rounds for `seconds` with
/// `window` requests outstanding.
fn run_timed(
    a: &Args,
    seconds: f64,
    window: usize,
    reps: usize,
    checker: &mut Checker,
) -> Result<Timed, String> {
    let w = a.workload;
    let mut t = Timed::default();
    let disk = a.work.join("disk");
    let disk_s = disk.to_string_lossy().into_owned();
    // Set-up: spawn, answer a health check, fill the caches. Every
    // repetition sends the same requests and must get byte-identical
    // residuals; the last one's server (or cache directory) is measured.
    let mut kept = None;
    let mut stream = Stream::new(w, a.seed);
    for i in 0..reps {
        stream = Stream::new(w, a.seed);
        let ops = stream.setup();
        t.attempted += ops.len() as u64;
        let _ = std::fs::remove_dir_all(&disk);
        let start = Instant::now();
        let extra: &[&str] = if w == Workload::DiskRestart {
            &["--cache-dir", &disk_s]
        } else {
            &[]
        };
        let (server, mut conn) = spawn(a, extra)?;
        let mut ops = VecDeque::from(ops);
        drive(
            &mut conn,
            w.window(),
            || ops.pop_front(),
            checker,
            &mut t,
            Record::No,
        )?;
        if w == Workload::DiskRestart {
            // The fill is complete once the server has exited.
            io(server.shutdown(conn))?;
            t.setups_s.push(start.elapsed().as_secs_f64());
        } else {
            t.setups_s.push(start.elapsed().as_secs_f64());
            if i + 1 < reps {
                io(server.shutdown(conn))?;
            } else {
                kept = Some((server, conn));
            }
        }
    }
    let time_left = |t0: Instant| t0.elapsed().as_secs_f64() < seconds;
    let steal0 = client::host_steal();
    if w == Workload::DiskRestart {
        let t0 = Instant::now();
        t.start_blocks(stream.blocks(), 0);
        // A round is one read-only restart answering every key once.
        while stream.rounds() == 0 || time_left(t0) {
            let mut ops = VecDeque::from(stream.round());
            t.attempted += ops.len() as u64;
            let (server, mut conn) = spawn(a, &["--cache-dir", &disk_s, "--cache-mode", "ro"])?;
            let record = Record::Yes {
                pid: server.pid(),
                rounds: false,
            };
            drive(
                &mut conn,
                window,
                || ops.pop_front(),
                checker,
                &mut t,
                record,
            )?;
            t.restarts_cpu_ns += server.cpu_ns();
            t.round_done(t.restarts_cpu_ns);
            t.peak_rss_mib = t.peak_rss_mib.max(server.peak_rss_mib());
            for (k, v) in server_counters(&mut conn)? {
                *t.counters.entry(k).or_default() += v;
            }
            io(server.shutdown(conn))?;
        }
    } else {
        let (server, mut conn) = kept.expect("at least one set-up");
        let cpu0 = server.cpu_ns();
        let mut queue: VecDeque<Op> = VecDeque::new();
        let mut attempted = 0u64;
        let t0 = Instant::now();
        t.start_blocks(stream.blocks(), cpu0);
        let next = || {
            if queue.is_empty() && (stream.rounds() == 0 || time_left(t0)) {
                queue.extend(stream.round());
                attempted += queue.len() as u64;
            }
            queue.pop_front()
        };
        let record = Record::Yes {
            pid: server.pid(),
            rounds: true,
        };
        drive(&mut conn, window, next, checker, &mut t, record)?;
        t.attempted += attempted;
        if t.completed < RSS_AFTER {
            t.peak_rss_mib = server.peak_rss_mib();
        }
        t.counters = server_counters(&mut conn)?;
        io(server.shutdown(conn))?;
    }
    let steal1 = client::host_steal();
    t.steal_share = ratio((steal1.0 - steal0.0) as f64, (steal1.1 - steal0.1) as f64);
    let _ = std::fs::remove_dir_all(&disk);
    Ok(t)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end metrics of a timed run.
fn end_to_end(a: &Args) -> Result<(Metrics, u64, Verdict), String> {
    let mut checker = Checker::new();
    let mut t = run_timed(
        a,
        a.seconds,
        a.workload.window(),
        setup_reps(a.workload),
        &mut checker,
    )?;
    let verdict = checker.finish();
    if t.groups.is_empty() {
        return Err(format!(
            "{} measured requests do not fill one p99 group of {} rounds",
            t.completed,
            t.rounds_per_block * t.blocks_per_group
        ));
    }
    summarize_counters(a, &t.counters);
    let mut rps: Vec<f64> = t.blocks.iter().map(|b| b.requests / b.secs).collect();
    eprintln!(
        "; {} blocks of {} requests, throughput quartiles {:.1} {:.1} {:.1}; host steal {:.1}%",
        t.blocks.len(),
        t.blocks[0].requests,
        quantile(&mut rps, 0.25),
        quantile(&mut rps, 0.5),
        quantile(&mut rps, 0.75),
        t.steal_share * 100.0,
    );
    // Each timing is a median over the calm blocks (p99: calm groups).
    let metrics = vec![
        ("setup_s", median(&mut t.setups_s), "s"),
        (
            "throughput_rps",
            t.over_blocks(|b| b.requests / b.secs),
            "1/s",
        ),
        ("latency_p50_us", t.over_blocks(|b| b.p50_us), "us"),
        ("latency_p99_us", t.p99_us(), "us"),
        (
            "server_cpu_us_per_req",
            t.over_blocks(|b| b.cpu_ns / 1e3 / b.requests),
            "us",
        ),
        (
            "residual_bytes_per_req",
            t.residual_bytes as f64 / t.completed as f64,
            "bytes",
        ),
        ("peak_rss_mib", t.peak_rss_mib, "MiB"),
    ];
    Ok((metrics, t.attempted, verdict))
}

/// Prints the server counters the README's known faults are read from.
fn summarize_counters(a: &Args, c: &BTreeMap<String, f64>) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let kreq = get("requests") / 1000.0;
    eprintln!(
        "; {} seed {}: {} requests, parses/kreq {:.1}, depgraph_invalidations {} ({:.1}/kreq), \
         cache hits {} misses {} evictions {}, disk hits {}, errors {}, degraded {}, shed {}",
        a.workload.name(),
        a.seed,
        get("requests"),
        ratio(get("depgraph_analyses"), kreq),
        get("depgraph_invalidations"),
        ratio(get("depgraph_invalidations"), kreq),
        get("cache_hits"),
        get("cache_misses"),
        get("cache_evictions"),
        get("disk_hits"),
        get("errors"),
        get("degraded"),
        get("shed"),
    );
}

/// Replays the stream's set-up and `rounds` rounds through the traced
/// in-process mirror, checking every response like the timed runs do.
fn replay(a: &Args, rounds: u64, checker: &mut Checker) -> Result<(Tracer, f64, u64), String> {
    let w = a.workload;
    let dir = a.work.join("trace-disk");
    let _ = std::fs::remove_dir_all(&dir);
    let persist = (w == Workload::DiskRestart).then_some((dir.as_path(), false));
    let mut mirror = Mirror::new(persist)?;
    let mut tracer = Tracer::default();
    let mut stream = Stream::new(w, a.seed);
    let mut attempted = 0u64;
    for op in stream.setup() {
        let line = mirror.answer(&mut tracer, &op.line);
        checker.check(&op, &line);
        attempted += 1;
    }
    let entry_bytes = mirror.disk_entry_bytes();
    for _ in 0..rounds {
        let ops = stream.round();
        if w == Workload::DiskRestart {
            mirror = Mirror::new(Some((dir.as_path(), true)))?;
        }
        for op in ops {
            let line = mirror.answer(&mut tracer, &op.line);
            checker.check(&op, &line);
            attempted += 1;
        }
    }
    drop(mirror);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((tracer, entry_bytes, attempted))
}

/// The per-layer metrics of a traced run: an untraced pass against the
/// binary (window 1, half the run) for the server's own counters, its
/// `wall_us` and the client latency, then the same requests replayed
/// through the traced mirror.
fn per_layer(a: &Args) -> Result<(Metrics, u64, Verdict), String> {
    let mut checker = Checker::new();
    let mut real = run_timed(a, a.seconds / 2.0, 1, 1, &mut checker)?;
    let mut verdict = checker.finish();
    summarize_counters(a, &real.counters);
    let rounds = real.rounds;
    let a2 = Args {
        ppe: a.ppe.clone(),
        work: a.work.clone(),
        ..*a
    };
    // The engines recurse deeply: replay on a worker-sized stack.
    let (tracer, entry_bytes, replayed, v2) = std::thread::Builder::new()
        .stack_size(ppe_server::WORKER_STACK_BYTES)
        .spawn(move || {
            let mut checker = Checker::new();
            let out = replay(&a2, rounds, &mut checker);
            out.map(|(t, e, n)| (t, e, n, checker.finish()))
        })
        .map_err(|e| e.to_string())?
        .join()
        .map_err(|_| "traced replay panicked".to_owned())??;
    verdict.absorb(v2);
    let times = tracer.self_times();
    let mut handle_us = tracer.durations("service.handle");
    let c = &real.counters;
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let kreq = get("requests") / 1000.0;
    let covered: f64 = HANDLE_LAYERS
        .iter()
        .filter_map(|l| times.get(l))
        .flatten()
        .sum();
    let us = |name: &'static str, span: &str| (name, median_of(&times, span), "us");
    let metrics = vec![
        us("json.parse_us", "json.parse"),
        us("request.decode_us", "request.decode"),
        us("key.resolve_us", "key.resolve"),
        us("cache.hit_us", "cache.hit"),
        us("json.render_us", "json.render"),
        (
            "cache.hit_ratio",
            ratio(get("cache_hits"), get("cache_hits") + get("cache_misses")),
            "ratio",
        ),
        ("serve.overhead_us", median(&mut real.overheads_us), "us"),
        ("serve.latency_us", median(&mut real.latencies_us), "us"),
        us("lang.parse_us", "lang.parse"),
        us("analyze.depgraph_us", "analyze.depgraph"),
        us("analyze.check_us", "analyze.check"),
        us("online.specialize_us", "online.specialize"),
        us("simple.specialize_us", "simple.specialize"),
        us("offline.analyze_us", "offline.analyze"),
        us("offline.specialize_us", "offline.specialize"),
        (
            "offline.analysis_hit_ratio",
            ratio(
                get("analysis_hits"),
                get("analysis_hits") + get("analysis_misses"),
            ),
            "ratio",
        ),
        (
            "spec_vm.evals_per_req",
            ratio(get("spec_vm_evals"), get("requests")),
            "count",
        ),
        (
            "spec_vm.chunk_hit_ratio",
            ratio(
                get("spec_vm_chunk_hits"),
                get("spec_vm_chunk_hits") + get("spec_vm_chunk_misses"),
            ),
            "ratio",
        ),
        us("opt.optimize_us", "opt.optimize"),
        us("pretty.print_us", "pretty.print"),
        ("pretty.bytes", tracer.mean_bytes("pretty.bytes"), "bytes"),
        us("exec.reparse_us", "exec.reparse"),
        us("vm.compile_us", "vm.compile"),
        us("vm.run_us", "vm.run"),
        (
            "vm.ops_per_exec",
            ratio(get("vm_opcodes_executed"), get("executes")),
            "count",
        ),
        (
            "vm.chunk_hit_ratio",
            ratio(get("vm_chunk_cache_hits"), get("executes")),
            "ratio",
        ),
        (
            "service.parses_per_kreq",
            ratio(get("depgraph_analyses"), kreq),
            "count/kreq",
        ),
        (
            "service.depgraph_invalidations",
            ratio(get("depgraph_invalidations"), kreq),
            "count/kreq",
        ),
        us("persist.load_us", "persist.load"),
        ("persist.entry_bytes", entry_bytes, "bytes"),
        us("persist.store_us", "persist.store"),
        ("service.handle_us", median(&mut real.wall_us), "us"),
        (
            "cache.evictions_per_kreq",
            ratio(get("cache_evictions"), kreq),
            "count/kreq",
        ),
        (
            "trace.covered_share",
            ratio(covered, handle_us.iter().sum()),
            "ratio",
        ),
        ("trace.request_us", median(&mut handle_us), "us"),
    ];
    Ok((metrics, real.attempted + replayed, verdict))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args.work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("servebench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let args = Args {
        work: work.clone(),
        ..args
    };
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, attempted, verdict) = match result {
        Ok(x) => x,
        Err(e) => {
            eprintln!("servebench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for m in &verdict.messages {
        eprintln!("servebench: check failed: {m}");
    }
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_owned(),
                    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let out = Json::obj(vec![
        ("correct", Json::Bool(verdict.wrong == 0)),
        ("attempted", Json::num(attempted)),
        ("failed", Json::num(verdict.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", out.render());
    if verdict.failed == 0 && verdict.wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
