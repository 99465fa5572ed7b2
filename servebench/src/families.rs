//! The five program families, their requests, and their dynamic inputs.
//!
//! Every family is a source template whose function names carry a tag:
//! a new tag is a new program text (a new parse, a new closure
//! fingerprint, a new cache key) with the same meaning, so the oracle
//! never changes while the service sees fresh programs.

use std::sync::Arc;

use ppe_lang::Value;
use ppe_server::Json;

use crate::oracle;
use crate::rng::Rng;

/// A program family and the engine configuration it is requested with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// `power`, sign and parity facets, online engine.
    Power,
    /// Inner product on the size facet, online engine.
    IprodOnline,
    /// Inner product on the size facet, offline engine (facet analysis).
    IprodOffline,
    /// The stack interpreter specialized on static bytecode (first
    /// Futamura projection), contents and size facets, online engine.
    Interp,
    /// The naive string matcher on a static pattern, contents facet.
    Matcher,
    /// A sign-guarded iteration kernel on the simple engine.
    Kernel,
}

impl Family {
    /// Every family, in round order.
    pub const ALL: [Family; 6] = [
        Family::Power,
        Family::IprodOnline,
        Family::IprodOffline,
        Family::Interp,
        Family::Matcher,
        Family::Kernel,
    ];

    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Power => "power",
            Family::IprodOnline => "iprod-online",
            Family::IprodOffline => "iprod-offline",
            Family::Interp => "interp",
            Family::Matcher => "matcher",
            Family::Kernel => "kernel",
        }
    }
}

/// The source text of `family` with every function name suffixed by `tag`.
pub fn source(family: Family, tag: &str) -> String {
    match family {
        Family::Power => {
            format!("(define (power{tag} x n) (if (= n 0) 1 (* x (power{tag} x (- n 1)))))")
        }
        Family::IprodOnline | Family::IprodOffline => format!(
            "(define (iprod{tag} a b) (let ((n (vsize a))) (dotprod{tag} a b n)))
(define (dotprod{tag} a b n)
  (if (= n 0) 0.0
      (+ (* (vref a n) (vref b n)) (dotprod{tag} a b (- n 1)))))"
        ),
        Family::Interp => format!(
            "(define (run{tag} code x) (exec{tag} code x (mkvec 8) 0 1))
(define (exec{tag} code x stack sp pc)
  (let ((op (vref code pc)))
    (if (= op 1)
        (exec{tag} code x (updvec stack (+ sp 1) (vref code (+ pc 1))) (+ sp 1) (+ pc 2))
    (if (= op 2)
        (exec{tag} code x
              (updvec stack (- sp 1) (+ (vref stack (- sp 1)) (vref stack sp)))
              (- sp 1) (+ pc 1))
    (if (= op 3)
        (exec{tag} code x
              (updvec stack (- sp 1) (* (vref stack (- sp 1)) (vref stack sp)))
              (- sp 1) (+ pc 1))
    (if (= op 4)
        (exec{tag} code x (updvec stack (+ sp 1) x) (+ sp 1) (+ pc 1))
        (vref stack sp)))))))"
        ),
        Family::Matcher => format!(
            "(define (match{tag} p s k)
  (if (> (+ k (vsize p)) (+ (vsize s) 1))
      0
      (if (cmp{tag} p s k 1) k (match{tag} p s (+ k 1)))))
(define (cmp{tag} p s k i)
  (if (> i (vsize p))
      #t
      (if (= (vref p i) (vref s (+ k (- i 1))))
          (cmp{tag} p s k (+ i 1))
          #f)))"
        ),
        Family::Kernel => format!(
            "(define (kernel{tag} x steps)
  (if (= steps 0) x (kernel{tag} (step{tag} x) (- steps 1))))
(define (step{tag} x)
  (if (< x 0) (neg x) (+ x 1)))"
        ),
    }
}

/// The static part of a request: what the specializer is given.
#[derive(Clone, Debug, PartialEq)]
pub enum Static {
    /// `power`: the exponent, and the sign/parity refinement of `x`.
    Pow {
        /// Exponent.
        n: u32,
        /// `x > 0` (else `x < 0`).
        pos: bool,
        /// `x` odd (else even).
        odd: bool,
    },
    /// Inner product: the vector size.
    Size(usize),
    /// Interpreter: the bytecode.
    Code(Vec<i64>),
    /// Matcher: the pattern.
    Pattern(Vec<i64>),
    /// Kernel: the step count.
    Steps(u32),
}

/// One specialization: program text, family, static inputs, optimizer.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which family.
    pub family: Family,
    /// The program text (shared by every request that reuses it).
    pub program: Arc<str>,
    /// The static inputs.
    pub stat: Static,
    /// Ask for the residual cleanup passes.
    pub optimize: bool,
}

/// A concrete argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    /// An integer.
    Int(i64),
    /// A vector of floats.
    Floats(Vec<f64>),
    /// A vector of integers.
    Ints(Vec<i64>),
}

impl Arg {
    /// The wire spelling (`ppe_server::spec::parse_value` grammar).
    pub fn wire(&self) -> String {
        match self {
            Arg::Int(n) => n.to_string(),
            Arg::Floats(xs) => {
                let parts: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
                format!("vec:{}", parts.join(","))
            }
            Arg::Ints(xs) => {
                let parts: Vec<String> = xs.iter().map(i64::to_string).collect();
                format!("vec:{}", parts.join(","))
            }
        }
    }

    /// The language value.
    pub fn value(&self) -> Value {
        match self {
            Arg::Int(n) => Value::Int(*n),
            Arg::Floats(xs) => Value::vector(xs.iter().map(|x| Value::Float(*x)).collect()),
            Arg::Ints(xs) => Value::vector(xs.iter().map(|x| Value::Int(*x)).collect()),
        }
    }
}

/// An expected result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expected {
    /// An integer result.
    Int(i64),
    /// A float result (exact by construction).
    Float(f64),
}

impl Expected {
    /// Whether the rendered value `text` (the language's `Display`) is
    /// this result.
    pub fn matches(&self, text: &str) -> bool {
        match self {
            Expected::Int(n) => text.parse::<i64>().ok() == Some(*n),
            Expected::Float(x) => text.parse::<f64>().ok() == Some(*x),
        }
    }

    /// Whether the language value `v` is this result.
    pub fn matches_value(&self, v: &Value) -> bool {
        match (self, v) {
            (Expected::Int(n), Value::Int(m)) => n == m,
            (Expected::Float(x), Value::Float(y)) => x == y,
            _ => false,
        }
    }
}

/// A run of a residual: the arguments of the *source* entry (static
/// ones included), which of them are dynamic, and the oracle's answer.
#[derive(Clone, Debug)]
pub struct Exec {
    /// One argument per source-entry parameter.
    pub full: Vec<Arg>,
    /// `dynamic[i]`: parameter `i` is dynamic in the specialization.
    pub dynamic: Vec<bool>,
    /// What the source program computes on `full`.
    pub expected: Expected,
}

impl Exec {
    /// The arguments a residual entry of `arity` parameters takes: the
    /// dynamic ones, or every one when the residual kept the static
    /// parameters (a matcher specialized without the optimizer keeps
    /// its pattern parameter).
    pub fn residual_args(&self, arity: usize) -> Option<Vec<&Arg>> {
        let dynamic: Vec<&Arg> = self
            .full
            .iter()
            .zip(&self.dynamic)
            .filter(|(_, d)| **d)
            .map(|(a, _)| a)
            .collect();
        if arity == dynamic.len() {
            Some(dynamic)
        } else if arity == self.full.len() {
            Some(self.full.iter().collect())
        } else {
            None
        }
    }
}

impl Spec {
    /// The request's `inputs`, `facets`, `engine` and budget fields.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
        let (inputs, facets, engine): (Vec<String>, &[&str], &str) = match &self.stat {
            Static::Pow { n, pos, odd } => (
                vec![
                    format!(
                        "_:sign={}:parity={}",
                        if *pos { "pos" } else { "neg" },
                        if *odd { "odd" } else { "even" }
                    ),
                    n.to_string(),
                ],
                &["sign", "parity"],
                "online",
            ),
            Static::Size(n) => (
                vec![format!("_:size={n}"), format!("_:size={n}")],
                &["size"],
                if self.family == Family::IprodOffline {
                    "offline"
                } else {
                    "online"
                },
            ),
            Static::Code(code) => (
                vec![Arg::Ints(code.clone()).wire(), "_".into()],
                &["contents", "size"],
                "online",
            ),
            Static::Pattern(p) => (
                vec![Arg::Ints(p.clone()).wire(), "_".into(), "_".into()],
                &["contents"],
                "online",
            ),
            Static::Steps(n) => (vec!["_".into(), n.to_string()], &["sign"], "simple"),
        };
        let mut fields = vec![
            ("program", Json::str(&*self.program)),
            (
                "inputs",
                Json::Arr(inputs.into_iter().map(Json::str).collect()),
            ),
            ("facets", strs(facets)),
            ("engine", Json::str(engine)),
        ];
        if self.optimize {
            fields.push(("optimize", Json::Bool(true)));
        }
        if let Static::Code(code) = &self.stat {
            // One unfold per executed instruction, plus slack.
            fields.push(("max_unfold_depth", Json::num(code.len() as u64 + 64)));
        }
        fields
    }

    /// The request line: specialize, and run the residual when `exec`
    /// is given.
    pub fn line(&self, exec: Option<&Exec>) -> String {
        let mut fields = self.fields();
        if let Some(exec) = exec {
            let arity = exec.dynamic.iter().filter(|d| **d).count();
            let args = if self.keeps_static_params() {
                exec.full.iter().collect()
            } else {
                exec.residual_args(arity).expect("dynamic arity")
            };
            fields.push((
                "execute",
                Json::Arr(args.iter().map(|a| Json::str(a.wire())).collect()),
            ));
        }
        Json::obj(fields).render()
    }

    /// Whether this specialization's residual entry keeps its static
    /// parameters: the matcher's loop threads the static pattern through
    /// its residual recursion unless the optimizer prunes it.
    pub fn keeps_static_params(&self) -> bool {
        self.family == Family::Matcher && !self.optimize
    }

    /// Draws dynamic inputs for this specialization and the oracle's
    /// answer. `long` asks for long matcher subjects.
    pub fn exec(&self, rng: &mut Rng, long: bool) -> Exec {
        match &self.stat {
            Static::Pow { n, pos, odd } => {
                let mags: &[i64] = if *odd {
                    &[1, 3, 5, 7, 9]
                } else {
                    &[2, 4, 6, 8]
                };
                let sign = if *pos { 1 } else { -1 };
                let pick = mags[rng.below(mags.len() as u64) as usize];
                // Large exponents overflow all but the smallest magnitude.
                let x = [pick, mags[0]]
                    .into_iter()
                    .map(|m| m * sign)
                    .find(|x| oracle::power(*x, *n).is_some())
                    .expect("|x| <= 2 cannot overflow the exponents used");
                Exec {
                    full: vec![Arg::Int(x), Arg::Int(i64::from(*n))],
                    dynamic: vec![true, false],
                    expected: Expected::Int(oracle::power(x, *n).expect("no overflow")),
                }
            }
            Static::Size(n) => {
                let mut vec =
                    || -> Vec<f64> { (0..*n).map(|_| rng.range(-16, 16) as f64 / 4.0).collect() };
                let (a, b) = (vec(), vec());
                let expected = Expected::Float(oracle::dot(&a, &b));
                Exec {
                    full: vec![Arg::Floats(a), Arg::Floats(b)],
                    dynamic: vec![true, true],
                    expected,
                }
            }
            Static::Code(code) => {
                let x = (0..64)
                    .map(|_| rng.range(-9, 9))
                    .find(|x| oracle::interp(code, *x).is_some())
                    .unwrap_or(0);
                Exec {
                    full: vec![Arg::Ints(code.clone()), Arg::Int(x)],
                    dynamic: vec![false, true],
                    expected: Expected::Int(oracle::interp(code, x).expect("code runs")),
                }
            }
            Static::Pattern(p) => {
                let len = if long { 150 } else { 48 };
                let mut s: Vec<i64> = (0..len).map(|_| 97 + rng.range(0, 2)).collect();
                if rng.coin() {
                    // Plant the pattern so that about half the runs match
                    // somewhere other than by chance.
                    let at = rng.below((len - p.len() + 1) as u64) as usize;
                    s[at..at + p.len()].copy_from_slice(p);
                }
                let expected = Expected::Int(oracle::first_match(p, &s, 1));
                Exec {
                    full: vec![Arg::Ints(p.clone()), Arg::Ints(s), Arg::Int(1)],
                    dynamic: vec![false, true, true],
                    expected,
                }
            }
            Static::Steps(n) => {
                let x = rng.range(-1000, 1000);
                Exec {
                    full: vec![Arg::Int(x), Arg::Int(i64::from(*n))],
                    dynamic: vec![true, false],
                    expected: Expected::Int(oracle::kernel(x, *n).expect("no overflow")),
                }
            }
        }
    }
}

/// Bytecode of `ops` operations over `x` for the interpreter family:
/// `LOAD`, then a seeded order of `ops/2` `PUSH k; ADD` and `ops - ops/2`
/// `LOAD; MUL` units with seeded constants, then `HALT`. The stack stays
/// at depth ≤ 2; the residual's size depends on `ops` only.
pub fn bytecode(rng: &mut Rng, ops: usize) -> Vec<i64> {
    use oracle::op;
    let mut units: Vec<bool> = (0..ops).map(|i| i < ops / 2).collect();
    rng.shuffle(&mut units);
    let mut code = vec![op::LOAD];
    for add in units {
        if add {
            code.extend([op::PUSH, rng.range(1, 9), op::ADD]);
        } else {
            code.extend([op::LOAD, op::MUL]);
        }
    }
    code.push(op::HALT);
    code
}

/// A pattern of `len` characters over `a`–`c`.
pub fn pattern(rng: &mut Rng, len: usize) -> Vec<i64> {
    (0..len).map(|_| 97 + rng.range(0, 2)).collect()
}
