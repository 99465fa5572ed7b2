//! The four workloads' request streams.
//!
//! A stream is a set-up phase (requests that fill the service's caches)
//! followed by whole *rounds* of a fixed make-up: the seed chooses names,
//! constants, bytecode orders, patterns, refinements and dynamic inputs,
//! never the count or the sizes of what a round asks for, so every seed
//! costs the service the same and a run's `failed` share cannot depend on
//! where its time ran out.

use std::sync::Arc;

use crate::families::{bytecode, pattern, source, Exec, Family, Spec, Static};
use crate::rng::Rng;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fresh stdio server, one request at a time, every key distinct.
    ColdSpecialize,
    /// TCP server, one pipelined connection, every request an in-memory hit.
    WarmHitsTcp,
    /// Stdio server, pipelined: execute cached residuals on fresh inputs,
    /// plus a fixed share of new keys specialized and executed at once.
    ExecuteMix,
    /// Repeated read-only restarts over a filled `--cache-dir`.
    DiskRestart,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ColdSpecialize,
        Workload::WarmHitsTcp,
        Workload::ExecuteMix,
        Workload::DiskRestart,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSpecialize => "cold_specialize",
            Workload::WarmHitsTcp => "warm_hits_tcp",
            Workload::ExecuteMix => "execute_mix",
            Workload::DiskRestart => "disk_restart",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Outstanding requests the client keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::ColdSpecialize => 1,
            Workload::WarmHitsTcp => 16,
            Workload::ExecuteMix | Workload::DiskRestart => 8,
        }
    }
}

/// The cache disposition a response must carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disp {
    /// Computed by this request.
    Miss,
    /// Answered from the in-memory cache.
    Hit,
    /// Answered from the disk tier.
    Disk,
}

impl Disp {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Disp::Miss => "miss",
            Disp::Hit => "hit",
            Disp::Disk => "disk",
        }
    }
}

/// One request of a stream and what its response must show.
#[derive(Clone, Debug)]
pub struct Op {
    /// The specialization asked for.
    pub spec: Arc<Spec>,
    /// Execution inputs sent with the request, with the oracle's answer.
    pub exec: Option<Exec>,
    /// Inputs the client runs the returned residual on, with the
    /// oracle's answer (requests without `exec`).
    pub probe: Option<Exec>,
    /// Required cache disposition.
    pub expect: Disp,
    /// Hot-key slot: a miss records its residual there, and every later
    /// answer for the slot must be byte-identical to it.
    pub slot: Option<usize>,
    /// The request line.
    pub line: Arc<str>,
    /// The last request of its round.
    pub last_of_round: bool,
}

/// Sizes the rounds cycle through: six of each, so that six rounds
/// cover every combination in `cold_specialize`.
const POW_N: [u32; 6] = [16, 24, 32, 40, 48, 56];
const IPROD_N: [usize; 6] = [4, 8, 12, 16, 20, 24];
const PATTERN_LEN: [usize; 6] = [3, 4, 5, 6, 7, 8];
const KERNEL_STEPS: [u32; 6] = [4, 8, 12, 16, 20, 24];
/// Interpreter bytecode sizes (operations) per workload: the cold path
/// reaches residuals of ~150 KB; the hot sets stay moderate.
const COLD_OPS: [usize; 6] = [8, 20, 32, 44, 56, 68];
const WARM_OPS: [usize; 4] = [8, 12, 16, 20];
const DISK_OPS: [usize; 4] = [8, 20, 32, 44];
/// Hot set of `warm_hits_tcp`: 8 cold-shaped rounds, 96 keys over 48
/// program texts (bounds: 128 parsed programs, 512 rendered templates).
const WARM_ROUNDS: u64 = 8;
/// Keys of `disk_restart`: 4 cold-shaped rounds, 48 keys.
const DISK_ROUNDS: u64 = 4;
/// `execute_mix`: 24 hot keys, rounds of 16 with one new key each.
const EXEC_VARIANTS: usize = 4;
const EXEC_ROUND: usize = 16;
const EXEC_NEW_AT: usize = 8;

/// A workload's request stream.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    tag_prefix: u64,
    tags: u64,
    round: u64,
    cursor: usize,
    hot: Vec<Arc<Spec>>,
    hot_lines: Vec<Arc<str>>,
}

impl Stream {
    /// The stream of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut rng = Rng::new(seed, workload as u64);
        let tag_prefix = rng.below(1 << 20);
        Stream {
            workload,
            rng,
            tag_prefix,
            tags: 0,
            round: 0,
            cursor: 0,
            hot: Vec::new(),
            hot_lines: Vec::new(),
        }
    }

    /// Rounds generated so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    fn text(&mut self, family: Family) -> Arc<str> {
        self.tags += 1;
        let tag = format!("_{:x}x{}", self.tag_prefix, self.tags);
        Arc::from(source(family, &tag))
    }

    fn op(&self, spec: Arc<Spec>, exec: Option<Exec>, probe: Option<Exec>, expect: Disp) -> Op {
        let line = Arc::from(spec.line(exec.as_ref()));
        Op {
            spec,
            exec,
            probe,
            expect,
            slot: None,
            line,
            last_of_round: false,
        }
    }

    /// One cold-shaped round: for each family a request on a new program
    /// text (A) and one on the same text with new static inputs or the
    /// optimizer (B). Twelve distinct keys, six new texts.
    fn cold_round(&mut self, r: u64, interp_ops: &[usize]) -> Vec<Arc<Spec>> {
        let i = r as usize;
        let mut specs = Vec::with_capacity(12);
        for family in Family::ALL {
            let program = self.text(family);
            let (a, b, b_opt) = match family {
                Family::Power => {
                    let n = POW_N[i % POW_N.len()];
                    let mut pow = |n| Static::Pow {
                        n,
                        pos: self.rng.coin(),
                        odd: self.rng.coin(),
                    };
                    (pow(n), pow(n + 1), true)
                }
                Family::IprodOnline => {
                    let n = IPROD_N[i % IPROD_N.len()];
                    (Static::Size(n), Static::Size(n + 1), false)
                }
                Family::IprodOffline => {
                    // Same size twice: the optimizer flag makes a new
                    // residual key over the same facet analysis.
                    let n = IPROD_N[(i + 2) % IPROD_N.len()];
                    (Static::Size(n), Static::Size(n), true)
                }
                Family::Interp => {
                    let ops = interp_ops[i % interp_ops.len()];
                    (
                        Static::Code(bytecode(&mut self.rng, ops)),
                        Static::Code(bytecode(&mut self.rng, ops)),
                        true,
                    )
                }
                Family::Matcher => {
                    let len = PATTERN_LEN[i % PATTERN_LEN.len()];
                    let a = pattern(&mut self.rng, len);
                    let mut b = pattern(&mut self.rng, len);
                    while b == a {
                        b = pattern(&mut self.rng, len);
                    }
                    (Static::Pattern(a), Static::Pattern(b), true)
                }
                Family::Kernel => {
                    let n = KERNEL_STEPS[i % KERNEL_STEPS.len()];
                    (Static::Steps(n), Static::Steps(n + 1), false)
                }
            };
            for (stat, optimize) in [(a, false), (b, b_opt)] {
                specs.push(Arc::new(Spec {
                    family,
                    program: Arc::clone(&program),
                    stat,
                    optimize,
                }));
            }
        }
        specs
    }

    /// The hot set of `execute_mix`: per family four variants over two
    /// program texts.
    fn exec_specs(&mut self, family: Family, variant: usize, program: Arc<str>) -> Spec {
        let stat = match family {
            Family::Power => Static::Pow {
                n: [8, 12, 16, 20][variant],
                pos: self.rng.coin(),
                odd: self.rng.coin(),
            },
            Family::IprodOnline | Family::IprodOffline => Static::Size([4, 8, 12, 16][variant]),
            Family::Interp => Static::Code(bytecode(&mut self.rng, [6, 10, 14, 18][variant])),
            Family::Matcher => Static::Pattern(pattern(&mut self.rng, [3, 4, 5, 6][variant])),
            Family::Kernel => Static::Steps([5, 10, 15, 20][variant]),
        };
        Spec {
            family,
            program,
            stat,
            optimize: variant % 2 == 1,
        }
    }

    fn probe(&mut self, spec: &Spec) -> Option<Exec> {
        Some(spec.exec(&mut self.rng, false))
    }

    /// The set-up requests: they fill the caches the rounds then use.
    /// Empty for `cold_specialize`.
    pub fn setup(&mut self) -> Vec<Op> {
        let specs: Vec<Arc<Spec>> = match self.workload {
            Workload::ColdSpecialize => return Vec::new(),
            Workload::WarmHitsTcp => (0..WARM_ROUNDS)
                .flat_map(|r| self.cold_round(r, &WARM_OPS))
                .collect(),
            Workload::DiskRestart => (0..DISK_ROUNDS)
                .flat_map(|r| self.cold_round(r, &DISK_OPS))
                .collect(),
            Workload::ExecuteMix => {
                let mut specs = Vec::new();
                for family in Family::ALL {
                    let texts = [self.text(family), self.text(family)];
                    for v in 0..EXEC_VARIANTS {
                        let program = Arc::clone(&texts[v / 2]);
                        specs.push(Arc::new(self.exec_specs(family, v, program)));
                    }
                }
                specs
            }
        };
        let execute = self.workload == Workload::ExecuteMix;
        let mut ops = Vec::with_capacity(specs.len());
        for (slot, spec) in specs.into_iter().enumerate() {
            let (exec, probe) = if execute {
                (Some(spec.exec(&mut self.rng, true)), None)
            } else {
                (None, self.probe(&spec))
            };
            let mut op = self.op(Arc::clone(&spec), exec, probe, Disp::Miss);
            op.slot = Some(slot);
            if !execute {
                self.hot_lines.push(Arc::clone(&op.line));
            }
            self.hot.push(spec);
            ops.push(op);
        }
        ops
    }

    /// The measurement blocks: `(rounds per block, blocks per p99
    /// group)`. A block holds whole cycles of every size list the rounds
    /// step through, so every block asks for the same work; a group holds
    /// at least 1000 requests, so its p99 has ten samples beyond it.
    pub fn blocks(&self) -> (u64, u64) {
        match self.workload {
            // 6 rounds cycle every size list (72 requests); 15 blocks =
            // 1080 requests.
            Workload::ColdSpecialize => (6, 15),
            // 11 passes over the 96 hot keys = 1056 requests.
            Workload::WarmHitsTcp => (11, 1),
            // 24 rounds cycle the new keys' families and variants (384
            // requests); 3 blocks = 1152.
            Workload::ExecuteMix => (24, 3),
            // 3 restarts of 48 keys (144 requests); 7 blocks = 1008.
            Workload::DiskRestart => (3, 7),
        }
    }

    /// The next round.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = self.next_round();
        if let Some(last) = ops.last_mut() {
            last.last_of_round = true;
        }
        ops
    }

    fn next_round(&mut self) -> Vec<Op> {
        let r = self.round;
        self.round += 1;
        match self.workload {
            Workload::ColdSpecialize => self
                .cold_round(r, &COLD_OPS)
                .into_iter()
                .map(|spec| {
                    let probe = self.probe(&spec);
                    self.op(spec, None, probe, Disp::Miss)
                })
                .collect(),
            Workload::WarmHitsTcp | Workload::DiskRestart => {
                let expect = if self.workload == Workload::WarmHitsTcp {
                    Disp::Hit
                } else {
                    Disp::Disk
                };
                let mut order: Vec<usize> = (0..self.hot.len()).collect();
                self.rng.shuffle(&mut order);
                order
                    .into_iter()
                    .map(|slot| Op {
                        spec: Arc::clone(&self.hot[slot]),
                        exec: None,
                        probe: None,
                        expect,
                        slot: Some(slot),
                        line: Arc::clone(&self.hot_lines[slot]),
                        last_of_round: false,
                    })
                    .collect()
            }
            Workload::ExecuteMix => {
                let hot = self.hot.len();
                (0..EXEC_ROUND)
                    .map(|i| {
                        if i == EXEC_NEW_AT {
                            let family = Family::ALL[(r as usize) % Family::ALL.len()];
                            let variant = (r as usize / Family::ALL.len()) % EXEC_VARIANTS;
                            let program = self.text(family);
                            let spec = Arc::new(self.exec_specs(family, variant, program));
                            let exec = spec.exec(&mut self.rng, true);
                            self.op(spec, Some(exec), None, Disp::Miss)
                        } else {
                            let k = self.cursor % hot;
                            self.cursor += 1;
                            let spec = Arc::clone(&self.hot[k]);
                            let exec = spec.exec(&mut self.rng, true);
                            let mut op = self.op(spec, Some(exec), None, Disp::Hit);
                            op.slot = Some(k);
                            op
                        }
                    })
                    .collect()
            }
        }
    }
}
