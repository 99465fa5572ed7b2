//! The traced run: the service's request path replayed in-process from
//! the layers' public functions, with a span around each call.
//!
//! [`Mirror::answer`] follows `ppe_server`'s own path for one request
//! line — JSON parse, request decode, parse cache (cleared whole at 128
//! programs), resolve and key, residual cache with the disk tier inside
//! its miss path, engine, optimizer, printer, residual re-parse and VM
//! for `execute`, and the session's template cache for rendering — so
//! each span times exactly one layer's work on the request stream the
//! timed runs send.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use ppe_analyze::depgraph::DepGraph;
use ppe_core::{FacetSet, ProductVal};
use ppe_lang::diag::Diagnostic;
use ppe_lang::{
    optimize_program, parse_program, pretty_program, prune_unused_params, OptLevel, Program,
    Symbol, Value,
};
use ppe_offline::{analyze_fn_with_config, AbstractInput, Analysis, OfflinePe};
use ppe_online::{Budget, DegradationEvent, OnlinePe, PeConfig, PeInput, SimpleInput, SimplePe};
use ppe_server::cache::CachedOutcome;
use ppe_server::request::SpecEngine;
use ppe_server::spec::{build_facets, parse_input, parse_value};
use ppe_server::{
    analysis_key, residual_key, CacheDisposition, CacheKey, Engine, ExecOutcome, Json, Metrics,
    PersistConfig, PersistMode, PersistTier, RenderedHit, ResidualCache, SpecializeOutput,
    SpecializeRequest, SpecializeResponse,
};
use ppe_vm::{compile_cached, Vm, VmOptions};

use crate::stats::median;

/// One recorded span.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// Spans kept in memory until the run ends.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    bytes: HashMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (the innermost open one), renaming it.
    pub fn close_as(&mut self, id: usize, name: &'static str) {
        self.spans[id].end = Instant::now();
        self.spans[id].name = name;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id));
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let name = self.spans[id].name;
        self.close_as(id, name);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records a size observed at a layer.
    pub fn bytes(&mut self, name: &'static str, n: usize) {
        self.bytes.entry(name).or_default().push(n as f64);
    }

    /// Duration of span `id`, microseconds.
    pub fn micros(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64() * 1e6
    }

    /// Per layer: the self time of every span (its duration minus its
    /// children's), microseconds.
    pub fn self_times(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += (s.end - s.start).as_secs_f64() * 1e6;
            }
        }
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end - s.start).as_secs_f64() * 1e6;
            out.entry(s.name).or_default().push(total - child[i]);
        }
        out
    }

    /// Durations of the spans named `name`, microseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// Mean of the sizes recorded under `name` (0 if none).
    pub fn mean_bytes(&self, name: &str) -> f64 {
        self.bytes
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Layer spans nested inside `service.handle` — the ones whose self
/// time `trace.covered_share` adds up.
pub const HANDLE_LAYERS: &[&str] = &[
    "lang.parse",
    "analyze.depgraph",
    "analyze.check",
    "key.resolve",
    "cache.hit",
    "cache.miss",
    "persist.load",
    "persist.store",
    "online.specialize",
    "simple.specialize",
    "offline.analyze",
    "offline.specialize",
    "opt.optimize",
    "pretty.print",
    "exec.reparse",
    "vm.compile",
    "vm.run",
];

/// Median self time of `name`'s spans (0 if it never ran).
pub fn median_of(times: &HashMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |v| median(&mut v.clone()))
}

type Parsed = (Arc<Program>, Arc<DepGraph>, Arc<Vec<Diagnostic>>);

/// Upper bound on parsed programs before the cache clears (as the
/// service's `MAX_PARSED_PROGRAMS`).
const MAX_PARSED_PROGRAMS: usize = 128;
/// Template-cache bound (as the serve session's `RenderCache::CAP`).
const RENDER_CAP: usize = 512;
/// Analysis-cache bound (as the service's per-worker context).
const MAX_ANALYSES: usize = 256;

/// The in-process replica of one server process's state.
pub struct Mirror {
    programs: HashMap<String, Parsed>,
    cache: ResidualCache,
    metrics: Metrics,
    persist: Option<PersistTier>,
    analyses: HashMap<CacheKey, Rc<Analysis>>,
    renders: HashMap<CacheKey, RenderedHit>,
}

struct Resolved {
    program: Arc<Program>,
    closure_fingerprint: u64,
    entry: Symbol,
    facets: FacetSet,
    inputs: Vec<PeInput>,
    products: Vec<ProductVal>,
    key: CacheKey,
}

impl Mirror {
    /// A fresh process: empty caches, the service's default 64 MiB / 16
    /// shard residual cache, and optionally a disk tier.
    pub fn new(persist_dir: Option<(&std::path::Path, bool)>) -> Result<Mirror, String> {
        let persist = match persist_dir {
            None => None,
            Some((dir, read_only)) => Some(PersistTier::open(PersistConfig {
                mode: if read_only {
                    PersistMode::ReadOnly
                } else {
                    PersistMode::ReadWrite
                },
                ..PersistConfig::new(dir)
            })?),
        };
        Ok(Mirror {
            programs: HashMap::new(),
            cache: ResidualCache::new(64 << 20, 16),
            metrics: Metrics::new(),
            persist,
            analyses: HashMap::new(),
            renders: HashMap::new(),
        })
    }

    /// Mean committed entry size of the disk tier (0 without one).
    pub fn disk_entry_bytes(&self) -> f64 {
        match self.persist.as_ref().and_then(|t| t.stats().ok()) {
            Some(s) if s.entries > 0 => s.entry_bytes as f64 / s.entries as f64,
            _ => 0.0,
        }
    }

    /// The parse cache. A miss times parse, depgraph and check one span
    /// each, or — for the residual re-parse of `execute` (`reparse`) —
    /// all three in one `exec.reparse` span.
    fn program(&mut self, t: &mut Tracer, src: &str, reparse: bool) -> Result<Parsed, String> {
        if let Some((p, d, w)) = self.programs.get(src) {
            return Ok((Arc::clone(p), Arc::clone(d), Arc::clone(w)));
        }
        let parsed = if reparse {
            t.span("exec.reparse", || {
                let program = Arc::new(parse_program(src).map_err(|e| e.to_string())?);
                let depgraph = Arc::new(DepGraph::of_program(&program));
                let warnings = Arc::new(ppe_analyze::check_program(&program));
                Ok::<_, String>((program, depgraph, warnings))
            })?
        } else {
            let program = t.span("lang.parse", || parse_program(src));
            let program = Arc::new(program.map_err(|e| e.to_string())?);
            let depgraph = Arc::new(t.span("analyze.depgraph", || DepGraph::of_program(&program)));
            let warnings =
                Arc::new(t.span("analyze.check", || ppe_analyze::check_program(&program)));
            (program, depgraph, warnings)
        };
        if self.programs.len() >= MAX_PARSED_PROGRAMS {
            self.programs.clear();
        }
        self.programs.insert(
            src.to_owned(),
            (
                Arc::clone(&parsed.0),
                Arc::clone(&parsed.1),
                Arc::clone(&parsed.2),
            ),
        );
        Ok(parsed)
    }

    /// Answers one request line; the response's `wall_us` is the traced
    /// handle time.
    pub fn answer(&mut self, t: &mut Tracer, line: &str) -> String {
        let parsed = t.span("json.parse", || Json::parse(line));
        let req =
            parsed.and_then(|v| t.span("request.decode", || SpecializeRequest::from_json(&v)));
        let req = match req {
            Ok(req) => req,
            Err(e) => return SpecializeResponse::error(e).to_json(None).render(),
        };
        let handle = t.open("service.handle");
        let mut response = self.handle(t, &req);
        t.close(handle);
        response.wall_micros = t.micros(handle) as u64;
        t.span("json.render", || self.render(&response))
    }

    fn handle(&mut self, t: &mut Tracer, req: &SpecializeRequest) -> SpecializeResponse {
        let (program, depgraph, warnings) = match self.program(t, &req.program_src, false) {
            Ok(p) => p,
            Err(e) => return SpecializeResponse::error(e),
        };
        let resolved = match t.span("key.resolve", || resolve(req, program, &depgraph)) {
            Ok(r) => r,
            Err(e) => return SpecializeResponse::error(e),
        };
        let from_disk = std::cell::Cell::new(false);
        let cache_span = t.open("cache.miss");
        let (cache, metrics, persist, analyses) = (
            &self.cache,
            &self.metrics,
            &self.persist,
            &mut self.analyses,
        );
        let fetched = cache.get_or_compute(resolved.key, metrics, || {
            if let Some(tier) = persist {
                if let Some(hit) = t.span("persist.load", || tier.load(resolved.key, metrics)) {
                    from_disk.set(true);
                    return Ok(hit);
                }
            }
            let outcome = run_engine(t, req, &resolved, analyses)?;
            if let Some(tier) = persist {
                t.span("persist.store", || {
                    tier.store(resolved.key, &outcome, metrics)
                });
            }
            Ok(outcome)
        });
        let disposition = match fetched.disposition {
            CacheDisposition::Miss if from_disk.get() => CacheDisposition::Disk,
            d => d,
        };
        t.close_as(
            cache_span,
            if disposition == CacheDisposition::Hit {
                "cache.hit"
            } else {
                "cache.miss"
            },
        );
        let outcome = match fetched.outcome {
            Err(e) => Err(e),
            Ok(out) => {
                let mut degradations = out.degradations.clone();
                if fetched.rejected_bytes.is_some() {
                    degradations.push(DegradationEvent {
                        budget: Budget::CacheBytes,
                        function: Some(resolved.entry),
                        depth: 0,
                        count: 1,
                    });
                }
                Ok(SpecializeOutput {
                    residual: out.residual.clone(),
                    stats: out.stats,
                    degradations,
                })
            }
        };
        let mut response = SpecializeResponse {
            outcome,
            disposition,
            key: Some(resolved.key),
            wall_micros: 0,
            diagnostics: warnings.as_ref().clone(),
            exec: None,
            shed: false,
        };
        if let (Ok(out), Some(exec)) = (&response.outcome, &req.execute) {
            let residual = out.residual.clone();
            response.exec = Some(match self.program(t, &residual, true) {
                Ok((residual, _, _)) => execute(t, &residual, &exec.inputs, &req.config),
                Err(e) => ExecOutcome {
                    value: Err(format!("residual failed to parse: {e}")),
                    engine: exec.engine,
                    chunks_compiled: 0,
                    chunk_cache_hit: false,
                    ops_executed: 0,
                    fuel_used: 0,
                },
            });
        }
        response
    }

    /// The serve session's rendering: through the template cache when
    /// the response is template-eligible.
    fn render(&mut self, response: &SpecializeResponse) -> String {
        if let Some(key) = response.key.filter(|_| response.outcome.is_ok()) {
            if let Some(template) = self.renders.get(&key) {
                if !response.shed && response.exec.is_none() {
                    return template.line(response.disposition, None, response.wall_micros);
                }
            } else if let Some(template) = response.hit_template() {
                let line = template.line(response.disposition, None, response.wall_micros);
                if self.renders.len() >= RENDER_CAP {
                    self.renders.clear();
                }
                self.renders.insert(key, template);
                return line;
            }
        }
        response.to_json(None).render()
    }
}

fn resolve(
    req: &SpecializeRequest,
    program: Arc<Program>,
    depgraph: &DepGraph,
) -> Result<Resolved, String> {
    let entry = match &req.function {
        Some(name) => Symbol::intern(name),
        None => program.main().name,
    };
    let closure_fingerprint = depgraph
        .closure_fingerprint(entry)
        .ok_or_else(|| format!("no function `{entry}`"))?;
    let facets = build_facets(&req.facets)?;
    let inputs: Vec<PeInput> = req
        .inputs
        .iter()
        .map(|s| parse_input(s))
        .collect::<Result<_, _>>()?;
    let arity = program.lookup(entry).map_or(0, |d| d.arity());
    if arity != inputs.len() {
        return Err(format!("`{entry}` expects {arity} inputs"));
    }
    let products: Vec<ProductVal> = inputs
        .iter()
        .map(|i| i.to_product(&facets).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let key = residual_key(
        closure_fingerprint,
        entry.as_str(),
        req.engine,
        &req.facets,
        &products,
        req.optimize,
        &req.config,
    );
    Ok(Resolved {
        program,
        closure_fingerprint,
        entry,
        facets,
        inputs,
        products,
        key,
    })
}

fn run_engine(
    t: &mut Tracer,
    req: &SpecializeRequest,
    r: &Resolved,
    analyses: &mut HashMap<CacheKey, Rc<Analysis>>,
) -> Result<CachedOutcome, String> {
    let mut config: PeConfig = req.config.clone();
    config.spec_eval = match req.spec_engine {
        SpecEngine::Vm => Some(Arc::new(ppe_vm::VmStaticEval)),
        SpecEngine::Ast => None,
    };
    let residual = match req.engine {
        Engine::Online => t.span("online.specialize", || {
            OnlinePe::with_config(&r.program, &r.facets, config)
                .specialize(r.entry, &r.inputs)
                .map_err(|e| e.to_string())
        })?,
        Engine::Simple => {
            let inputs: Vec<SimpleInput> = r
                .inputs
                .iter()
                .map(|i| match i {
                    PeInput::Known(v) => v
                        .to_const()
                        .map(SimpleInput::Known)
                        .unwrap_or(SimpleInput::Dynamic),
                    PeInput::Dynamic { .. } => SimpleInput::Dynamic,
                })
                .collect();
            t.span("simple.specialize", || {
                SimplePe::with_config(&r.program, config)
                    .specialize(r.entry, &inputs)
                    .map_err(|e| e.to_string())
            })?
        }
        Engine::Offline => {
            let akey = analysis_key(
                r.closure_fingerprint,
                r.entry.as_str(),
                &req.facets,
                &r.products,
                &req.config,
            );
            let analysis = match analyses.get(&akey) {
                Some(a) => Rc::clone(a),
                None => {
                    let inputs: Vec<AbstractInput> = r
                        .products
                        .iter()
                        .cloned()
                        .map(AbstractInput::of_product)
                        .collect();
                    let a = t.span("offline.analyze", || {
                        analyze_fn_with_config(&r.program, &r.facets, r.entry, &inputs, &req.config)
                            .map_err(|e| e.to_string())
                    })?;
                    let a = Rc::new(a);
                    if analyses.len() >= MAX_ANALYSES {
                        analyses.clear();
                    }
                    analyses.insert(akey, Rc::clone(&a));
                    a
                }
            };
            t.span("offline.specialize", || {
                OfflinePe::with_config(&r.program, &r.facets, &analysis, config)
                    .specialize(&r.inputs)
                    .map_err(|e| e.to_string())
            })?
        }
    };
    let program = if req.optimize {
        t.span("opt.optimize", || {
            prune_unused_params(
                &optimize_program(&residual.program, OptLevel::Safe),
                OptLevel::Safe,
            )
        })
    } else {
        residual.program
    };
    let text = t.span("pretty.print", || pretty_program(&program));
    t.bytes("pretty.bytes", text.len());
    Ok(CachedOutcome {
        residual: text,
        stats: residual.stats,
        degradations: residual.report.events().to_vec(),
        entry: r.entry.as_str().to_owned(),
        closure_fingerprint: r.closure_fingerprint,
    })
}

fn execute(
    t: &mut Tracer,
    residual: &Program,
    inputs: &[String],
    config: &PeConfig,
) -> ExecOutcome {
    let mut outcome = ExecOutcome {
        value: Err(String::new()),
        engine: ppe_server::ExecEngine::Vm,
        chunks_compiled: 0,
        chunk_cache_hit: false,
        ops_executed: 0,
        fuel_used: 0,
    };
    let args: Result<Vec<Value>, String> = inputs.iter().map(|s| parse_value(s)).collect();
    let args = match args {
        Ok(a) => a,
        Err(e) => {
            outcome.value = Err(e);
            return outcome;
        }
    };
    let compiled = t.span("vm.compile", || compile_cached(residual));
    let (cp, hit, chunks) = match compiled {
        Ok(x) => x,
        Err(e) => {
            outcome.value = Err(e.to_string());
            return outcome;
        }
    };
    let opts = VmOptions {
        fuel: config.fuel,
        deadline: config.deadline,
        ..VmOptions::default()
    };
    let mut vm = Vm::with_options(opts);
    let out = t.span("vm.run", || vm.run_main(&cp, &args));
    outcome.value = out.map(|v| v.to_string()).map_err(|e| e.to_string());
    outcome.chunks_compiled = chunks;
    outcome.chunk_cache_hit = hit;
    outcome.ops_executed = vm.ops_executed();
    outcome.fuel_used = vm.fuel_used();
    outcome
}
