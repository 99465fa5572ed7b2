//! Closed-form Rust versions of the benchmark's program families.
//!
//! They are the independent oracle: a residual run on the dynamic inputs
//! must give what these give on all inputs (the paper's correctness
//! statement). They share no code with the evaluator, the specializers
//! or the VM; `tests/oracle.rs` checks each one against
//! `ppe_lang::Evaluator` on the source programs.
//!
//! Integer arithmetic is checked, as in the language (overflow is an
//! error there): `None` means the source program would fail.

/// `power x n` = x^n.
pub fn power(x: i64, n: u32) -> Option<i64> {
    let mut acc: i64 = 1;
    for _ in 0..n {
        acc = acc.checked_mul(x)?;
    }
    Some(acc)
}

/// `iprod a b` = Σ a_i·b_i. The benchmark only feeds vectors of
/// quarter-integers, so every product and partial sum is exact and the
/// summation order cannot change the result.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Opcodes of the stack interpreter.
pub mod op {
    /// Push the next code word.
    pub const PUSH: i64 = 1;
    /// Pop two, push their sum.
    pub const ADD: i64 = 2;
    /// Pop two, push their product.
    pub const MUL: i64 = 3;
    /// Push the dynamic input `x`.
    pub const LOAD: i64 = 4;
    /// Stop with the top of the stack.
    pub const HALT: i64 = 5;
}

/// `run code x`: the stack machine of the interpreter family, on an
/// 8-slot stack.
pub fn interp(code: &[i64], x: i64) -> Option<i64> {
    let mut stack: Vec<i64> = Vec::with_capacity(8);
    let mut pc = 0usize;
    loop {
        match *code.get(pc)? {
            op::PUSH => {
                stack.push(*code.get(pc + 1)?);
                pc += 2;
            }
            op::ADD | op::MUL => {
                let b = stack.pop()?;
                let a = stack.pop()?;
                let v = if code[pc] == op::ADD {
                    a.checked_add(b)?
                } else {
                    a.checked_mul(b)?
                };
                stack.push(v);
                pc += 1;
            }
            op::LOAD => {
                stack.push(x);
                pc += 1;
            }
            _ => return stack.last().copied(),
        }
        if stack.len() > 8 {
            return None;
        }
    }
}

/// `match p s k`: the 1-based index of the first occurrence of `p` in
/// `s` at or after position `k`, or 0.
pub fn first_match(p: &[i64], s: &[i64], k: i64) -> i64 {
    let (np, ns) = (p.len() as i64, s.len() as i64);
    let mut k = k.max(1);
    while k + np <= ns + 1 {
        let at = (k - 1) as usize;
        if s[at..at + p.len()] == *p {
            return k;
        }
        k += 1;
    }
    0
}

/// `kernel x steps`: `steps` applications of `x ↦ if x < 0 then -x else
/// x + 1`, in closed form.
pub fn kernel(x: i64, steps: u32) -> Option<i64> {
    if steps == 0 {
        Some(x)
    } else if x < 0 {
        x.checked_neg()?.checked_add(i64::from(steps) - 1)
    } else {
        x.checked_add(i64::from(steps))
    }
}
