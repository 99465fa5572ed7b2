//! The closed-form oracle against `ppe_lang::Evaluator` on the source
//! programs the benchmark sends, over seeded small inputs.

use ppe_lang::{parse_program, Evaluator, Program, Value};
use ppe_servebench::families::{bytecode, pattern, source, Family, Spec, Static};
use ppe_servebench::oracle;
use ppe_servebench::rng::Rng;

fn program(family: Family) -> Program {
    parse_program(&source(family, "_t1")).expect("family source parses")
}

fn eval(p: &Program, args: &[Value]) -> Option<Value> {
    let mut ev = Evaluator::new(p);
    ev.set_max_depth(10_000);
    ev.run_main(args).ok()
}

fn ints(xs: &[i64]) -> Value {
    Value::vector(xs.iter().map(|x| Value::Int(*x)).collect())
}

#[test]
fn power_matches_the_source() {
    let p = program(Family::Power);
    for x in -5..=5 {
        for n in 0..=30u32 {
            let got = eval(&p, &[Value::Int(x), Value::Int(i64::from(n))]);
            assert_eq!(got, oracle::power(x, n).map(Value::Int), "power {x} {n}");
        }
    }
}

#[test]
fn dot_matches_the_source() {
    let p = program(Family::IprodOnline);
    let mut rng = Rng::new(7, 0);
    for n in 0..=12usize {
        for _ in 0..8 {
            let mut v =
                || -> Vec<f64> { (0..n).map(|_| rng.range(-16, 16) as f64 / 4.0).collect() };
            let (a, b) = (v(), v());
            let floats = |xs: &[f64]| Value::vector(xs.iter().map(|x| Value::Float(*x)).collect());
            let got = eval(&p, &[floats(&a), floats(&b)]);
            assert_eq!(
                got,
                Some(Value::Float(oracle::dot(&a, &b))),
                "{a:?} . {b:?}"
            );
        }
    }
}

#[test]
fn interpreter_matches_the_source() {
    let p = program(Family::Interp);
    let mut rng = Rng::new(11, 0);
    // The generator's bytecode.
    for ops in 0..=16 {
        let code = bytecode(&mut rng, ops);
        for x in -4..=4 {
            let got = eval(&p, &[ints(&code), Value::Int(x)]);
            assert_eq!(
                got,
                oracle::interp(&code, x).map(Value::Int),
                "{code:?} x={x}"
            );
        }
    }
    // Arbitrary words: underflow, overflow of the 8-slot stack, running
    // off the end and unknown opcodes must fail (or halt) alike.
    for _ in 0..400 {
        let len = rng.range(1, 14) as usize;
        let code: Vec<i64> = (0..len).map(|_| rng.range(0, 6)).collect();
        let x = rng.range(-3, 3);
        let got = eval(&p, &[ints(&code), Value::Int(x)]);
        assert_eq!(
            got,
            oracle::interp(&code, x).map(Value::Int),
            "{code:?} x={x}"
        );
    }
}

#[test]
fn first_match_matches_the_source() {
    let p = program(Family::Matcher);
    let mut rng = Rng::new(13, 0);
    for _ in 0..400 {
        let (np, ns) = (rng.range(0, 4) as usize, rng.range(0, 14) as usize);
        let pat = pattern(&mut rng, np);
        let s = pattern(&mut rng, ns);
        let k = rng.range(1, 3);
        let got = eval(&p, &[ints(&pat), ints(&s), Value::Int(k)]);
        assert_eq!(
            got,
            Some(Value::Int(oracle::first_match(&pat, &s, k))),
            "{pat:?} in {s:?} from {k}"
        );
    }
}

#[test]
fn kernel_matches_the_source() {
    let p = program(Family::Kernel);
    for x in -20..=20 {
        for steps in 0..=12u32 {
            let got = eval(&p, &[Value::Int(x), Value::Int(i64::from(steps))]);
            assert_eq!(
                got,
                oracle::kernel(x, steps).map(Value::Int),
                "kernel {x} {steps}"
            );
        }
    }
}

/// The dynamic inputs the streams draw come with the oracle's answer;
/// the source program on all inputs must agree with it.
#[test]
fn drawn_inputs_carry_the_source_result() {
    let mut rng = Rng::new(17, 0);
    for family in Family::ALL {
        for round in 0..6 {
            let stat = match family {
                Family::Power => Static::Pow {
                    n: 10 + round * 8,
                    pos: rng.coin(),
                    odd: rng.coin(),
                },
                Family::IprodOnline | Family::IprodOffline => Static::Size(1 + 3 * round as usize),
                Family::Interp => Static::Code(bytecode(&mut rng, 4 + 8 * round as usize)),
                Family::Matcher => Static::Pattern(pattern(&mut rng, 3 + round as usize)),
                Family::Kernel => Static::Steps(4 * round),
            };
            let spec = Spec {
                family,
                program: source(family, "").into(),
                stat,
                optimize: false,
            };
            let p = parse_program(&spec.program).unwrap();
            for long in [false, true] {
                let exec = spec.exec(&mut rng, long);
                let args: Vec<Value> = exec.full.iter().map(|a| a.value()).collect();
                let got = eval(&p, &args).expect("source runs");
                assert!(
                    exec.expected.matches_value(&got),
                    "{family:?}: {got} vs {:?}",
                    exec.expected
                );
                assert!(
                    exec.expected.matches(&got.to_string()),
                    "{family:?}: rendered {got}"
                );
            }
        }
    }
}
