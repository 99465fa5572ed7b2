//! Output checks: every response is checked against the oracle or
//! against the residual the same run computed for its key.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use ppe_lang::{parse_program, Evaluator};

use crate::families::{Exec, Spec};
use crate::streams::{Disp, Op};
use crate::wire;

/// What the checks found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations that failed: `ok:false`, an execution error, a
    /// degradation, `shed:true`, or an unexpected cache disposition.
    pub failed: u64,
    /// Outputs of non-failed operations that were wrong: a value the
    /// oracle disagrees with, or a hit/disk answer that is not
    /// byte-identical to the residual this run computed for the key.
    pub wrong: u64,
    /// The first few problems, for the error report.
    pub messages: Vec<String>,
}

impl Verdict {
    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Verdict) {
        self.failed += other.failed;
        self.wrong += other.wrong;
        for m in other.messages {
            self.note(m);
        }
    }
}

/// A residual the client runs itself: the spec, its probe inputs, and
/// the residual text (JSON-escaped).
type Probe = (Arc<Spec>, Exec, String);

/// Runs a residual program on a probe's inputs and compares with the
/// oracle.
pub fn run_probe(spec: &Spec, exec: &Exec, residual: &str) -> Result<(), String> {
    let program = parse_program(residual).map_err(|e| format!("residual does not parse: {e}"))?;
    let arity = program.main().arity();
    let args: Vec<_> = exec
        .residual_args(arity)
        .ok_or_else(|| format!("residual entry takes {arity} parameters"))?
        .into_iter()
        .map(|a| a.value())
        .collect();
    let mut ev = Evaluator::new(&program);
    ev.set_max_depth(100_000);
    let v = ev.run_main(&args).map_err(|e| e.to_string())?;
    if exec.expected.matches_value(&v) {
        Ok(())
    } else {
        Err(format!(
            "{} residual gives {v}, oracle {:?}",
            spec.family.name(),
            exec.expected
        ))
    }
}

/// The checks of one run.
pub struct Checker {
    slots: Vec<Option<(String, usize)>>,
    verdict: Verdict,
    probes: Option<mpsc::Sender<Probe>>,
    prober: Option<thread::JoinHandle<Verdict>>,
}

impl Default for Checker {
    fn default() -> Checker {
        Checker::new()
    }
}

impl Checker {
    /// A checker with its own probe thread (a 256 MiB stack, as the
    /// service's workers have: residuals nest deeply).
    pub fn new() -> Checker {
        let (tx, rx) = mpsc::channel::<Probe>();
        let prober = thread::Builder::new()
            .name("probe".into())
            .stack_size(ppe_server::WORKER_STACK_BYTES)
            .spawn(move || {
                let mut v = Verdict::default();
                for (spec, exec, raw) in rx {
                    let outcome =
                        wire::unescape(&raw).and_then(|text| run_probe(&spec, &exec, &text));
                    if let Err(msg) = outcome {
                        v.wrong += 1;
                        v.note(msg);
                    }
                }
                v
            })
            .expect("spawn probe thread");
        Checker {
            slots: Vec::new(),
            verdict: Verdict::default(),
            probes: Some(tx),
            prober: Some(prober),
        }
    }

    /// Checks one response to `op`; returns the residual's length in
    /// bytes and the server's `wall_us`.
    pub fn check(&mut self, op: &Op, line: &str) -> (usize, u64) {
        let r = match wire::scan(line) {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("unreadable response: {e}"));
                return (0, 0);
            }
        };
        let problem = if !r.ok {
            Some(format!("ok:false: {}", r.error.unwrap_or("?")))
        } else if r.degraded {
            Some(format!("degraded: {}", wire::clip(line)))
        } else if r.shed {
            Some("shed:true".to_owned())
        } else if r.cache != op.expect.name() {
            Some(format!(
                "cache `{}`, expected `{}`",
                r.cache,
                op.expect.name()
            ))
        } else {
            None
        };
        if let Some(msg) = problem {
            self.fail(format!("{}: {msg}", op.spec.family.name()));
            return (0, r.wall_us);
        }
        if let Some(exec) = &op.exec {
            match r.exec_raw.map(wire::exec_value) {
                None => self.fail("no exec object".into()),
                Some(Err(e)) => self.fail(format!("{}: {e}", op.spec.family.name())),
                Some(Ok((value, _))) if !exec.expected.matches(&value) => {
                    self.wrong(format!(
                        "{}: exec gave {value}, oracle {:?}",
                        op.spec.family.name(),
                        exec.expected
                    ));
                }
                Some(Ok(_)) => {}
            }
        }
        let len = match op.slot {
            Some(slot) => {
                if self.slots.len() <= slot {
                    self.slots.resize(slot + 1, None);
                }
                match &self.slots[slot] {
                    Some((raw, len)) if raw == r.residual_raw => *len,
                    Some(_) => {
                        self.wrong(format!(
                            "{}: {} answer differs from the residual computed for its key",
                            op.spec.family.name(),
                            r.cache
                        ));
                        0
                    }
                    None if op.expect == Disp::Miss => {
                        let len = wire::unescaped_len(r.residual_raw);
                        self.slots[slot] = Some((r.residual_raw.to_owned(), len));
                        len
                    }
                    None => {
                        self.wrong(format!("{}: answer for a key never computed", r.cache));
                        0
                    }
                }
            }
            None => wire::unescaped_len(r.residual_raw),
        };
        if let (Some(probe), Some(tx)) = (&op.probe, &self.probes) {
            let _ = tx.send((
                Arc::clone(&op.spec),
                probe.clone(),
                r.residual_raw.to_owned(),
            ));
        }
        (len, r.wall_us)
    }

    fn fail(&mut self, msg: String) {
        self.verdict.failed += 1;
        self.verdict.note(msg);
    }

    fn wrong(&mut self, msg: String) {
        self.verdict.wrong += 1;
        self.verdict.note(msg);
    }

    /// Waits for the outstanding probes and returns the verdict.
    pub fn finish(mut self) -> Verdict {
        drop(self.probes.take());
        let mut v = std::mem::take(&mut self.verdict);
        if let Some(h) = self.prober.take() {
            v.absorb(h.join().unwrap_or_else(|_| Verdict {
                wrong: 1,
                messages: vec!["probe thread panicked".into()],
                ..Verdict::default()
            }));
        }
        v
    }
}
