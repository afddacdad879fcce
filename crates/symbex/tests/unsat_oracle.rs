//! The solver's soundness contract, tested against brute force: every
//! `Unsat` it answers must have no model. Random conjunctions are built
//! from every term kind — constants, `+`, a `-` that goes negative, `&`
//! masks, both shifts, zero-extension, `==`/`<`/`<=`, `!`, `&&`, `||` —
//! over `W8` variables, and each `Unsat` is checked against every
//! assignment under [`TermArena::eval`]'s integer semantics.

use proptest::prelude::*;
use std::collections::HashMap;
use vig_symbex::solver::Lit;
use vig_symbex::{SatResult, Solver, TermArena, TermId, Width};

/// One step of a term recipe: `(kind, operand, operand, immediate)`.
type Step = (u8, u8, u8, u8);

/// Grow a pool of numeric terms from `vars` by `steps`, then read
/// `lits` off it: `(kind, lhs, rhs, polarity)`, where kinds 3 and 4
/// combine the atom with the previous literal's proposition by `||` and
/// `&&`, and an odd `rhs` negates kind 0's atom.
fn build(a: &mut TermArena, vars: &[TermId], steps: &[Step], lits: &[Step]) -> Vec<Lit> {
    let mut pool = vars.to_vec();
    for &(kind, x, y, imm) in steps {
        let (x, y) = (pool[x as usize % pool.len()], pool[y as usize % pool.len()]);
        let t = match kind % 7 {
            0 => a.cu(u64::from(imm), Width::W8),
            1 => a.add(x, y),
            2 => a.sub(x, y),
            3 => a.and_mask(x, u64::from(imm)),
            4 => a.shl(x, u32::from(imm % 10)),
            5 => a.shr(x, u32::from(imm % 10)),
            _ => a.zext(x, Width::W64),
        };
        pool.push(t);
    }
    let mut out: Vec<Lit> = Vec::new();
    for &(kind, x, y, pol) in lits {
        let (lhs, rhs) = (pool[x as usize % pool.len()], pool[y as usize % pool.len()]);
        let atom = match kind % 3 {
            0 => a.eq(lhs, rhs),
            1 => a.lt(lhs, rhs),
            _ => a.le(lhs, rhs),
        };
        let prop = match (kind % 5, out.last()) {
            (3, Some(&(prev, _))) => a.or(prev, atom),
            (4, Some(&(prev, _))) => a.and(prev, atom),
            (0, _) if y % 2 == 1 => a.not(atom),
            _ => atom,
        };
        out.push((prop, pol % 2 == 0));
    }
    out
}

/// Does the assignment satisfy every literal?
fn satisfies(a: &TermArena, lits: &[Lit], assign: &HashMap<u32, u64>) -> bool {
    lits.iter()
        .all(|&(p, want)| a.eval(p, assign) == Some(i128::from(want)))
}

fn recipe(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Two `W8` variables: an `Unsat` verdict is checked against all
    /// 65,536 assignments.
    #[test]
    fn unsat_over_two_bytes_has_no_model(steps in recipe(0..6), lits in recipe(1..4)) {
        let mut a = TermArena::new();
        let vars = [a.var("x", Width::W8), a.var("y", Width::W8)];
        let conj = build(&mut a, &vars, &steps, &lits);
        if Solver::check(&a, &conj) == SatResult::Unsat {
            let mut assign = HashMap::new();
            for x in 0..=255u64 {
                for y in 0..=255u64 {
                    assign.extend([(0, x), (1, y)]);
                    prop_assert!(!satisfies(&a, &conj, &assign), "x={x} y={y} satisfies {conj:?}");
                }
            }
        }
    }

    /// Three `W8` variables, each boxed to `0..=15` by a conjunct, so
    /// every model lies in the 4,096 points checked.
    #[test]
    fn unsat_over_three_boxed_bytes_has_no_model(steps in recipe(0..8), lits in recipe(1..4)) {
        let mut a = TermArena::new();
        let vars = [a.var("x", Width::W8), a.var("y", Width::W8), a.var("z", Width::W8)];
        let mut conj = build(&mut a, &vars, &steps, &lits);
        let c15 = a.cu(15, Width::W8);
        for v in vars {
            conj.push((a.le(v, c15), true));
        }
        if Solver::check(&a, &conj) == SatResult::Unsat {
            let mut assign = HashMap::new();
            for p in 0..16u64 * 16 * 16 {
                assign.extend([(0, p % 16), (1, p / 16 % 16), (2, p / 256)]);
                prop_assert!(!satisfies(&a, &conj, &assign), "{assign:?} satisfies {conj:?}");
            }
        }
    }
}
