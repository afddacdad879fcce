//! The constraint solver.
//!
//! Decides satisfiability of conjunctions of (possibly negated)
//! propositions from the [`crate::term`] language. The decision
//! procedure combines:
//!
//! 1. **abstract interval analysis** through the numeric operators
//!    (`&mask` is bounded by the mask, `<<`/`>>` shift bounds, `+`/`-`
//!    add bounds, variables get their width range);
//! 2. **difference-bound reasoning**: every numeric term linearizes to
//!    `base + offset` (constants fold into offsets, non-linear nodes
//!    become opaque bases with intervals); atoms become difference
//!    bounds `base1 - base2 <= c`, closed with Floyd–Warshall; a
//!    negative diagonal is a contradiction;
//! 3. **disequalities**: `a != b` refutes only a *forced* equality
//!    (tight bounds both ways);
//! 4. **DPLL-lite case splitting** over `&&`/`||`/`!` structure.
//!
//! ## Soundness contract
//!
//! [`SatResult::Unsat`] is a proof: every step only ever *adds implied
//! facts* (intervals over-approximate value sets; difference bounds are
//! implied by the atoms; shortest-path closure preserves solutions), so
//! a derived contradiction means no model exists. [`SatResult::Sat`]
//! means "no contradiction found" — the procedure is deliberately
//! incomplete in that direction, which for verification can only cause
//! spurious *failures*, never spurious proofs (the paper's own stance
//! for Vigor, §7).

use crate::term::{Node, Prop, TermArena, TermId};
use std::collections::HashMap;

/// Solver verdict for a conjunction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// Proven unsatisfiable.
    Unsat,
    /// Not proven unsatisfiable (possibly satisfiable).
    Sat,
}

/// A literal: a proposition asserted `true` or `false`.
pub type Lit = (Prop, bool);

const INF: i128 = i128::MAX / 4;

/// The solver. Stateless between calls; borrow the arena per query.
#[derive(Debug, Default, Clone, Copy)]
pub struct Solver;

impl Solver {
    /// Check a conjunction of literals.
    pub fn check(arena: &TermArena, lits: &[Lit]) -> SatResult {
        let mut atoms = Vec::new();
        Self::split(arena, lits, &mut atoms, 0)
    }

    /// Does `path` entail `prop`? True iff `path ∧ ¬prop` is provably
    /// unsatisfiable.
    pub fn entails(arena: &TermArena, path: &[Lit], prop: Prop) -> bool {
        let mut lits: Vec<Lit> = path.to_vec();
        lits.push((prop, false));
        Self::check(arena, &lits) == SatResult::Unsat
    }

    // ---------------------------------------------------------------
    // DPLL-lite: reduce literals to conjunctions of atoms, splitting
    // on disjunctive structure. `idx` walks `lits`; `atoms`
    // accumulates (atom-node, polarity).
    // ---------------------------------------------------------------
    fn split(
        arena: &TermArena,
        lits: &[Lit],
        atoms: &mut Vec<(TermId, bool)>,
        idx: usize,
    ) -> SatResult {
        if idx == lits.len() {
            return Self::theory_check(arena, atoms);
        }
        let (t, want) = lits[idx];
        match arena.node(t) {
            Node::ConstB(b) => {
                if *b == want {
                    Self::split(arena, lits, atoms, idx + 1)
                } else {
                    SatResult::Unsat
                }
            }
            Node::Not(inner) => {
                let mut rest: Vec<Lit> = vec![(*inner, !want)];
                rest.extend_from_slice(&lits[idx + 1..]);
                Self::split(arena, &rest, atoms, 0)
            }
            Node::AndB(a, b) if want => {
                let mut rest: Vec<Lit> = vec![(*a, true), (*b, true)];
                rest.extend_from_slice(&lits[idx + 1..]);
                Self::split(arena, &rest, atoms, 0)
            }
            Node::AndB(a, b) => {
                // !(a && b) == !a || !b : case split
                Self::split_cases(arena, lits, atoms, idx, (*a, false), (*b, false))
            }
            Node::OrB(a, b) if want => {
                Self::split_cases(arena, lits, atoms, idx, (*a, true), (*b, true))
            }
            Node::OrB(a, b) => {
                let mut rest: Vec<Lit> = vec![(*a, false), (*b, false)];
                rest.extend_from_slice(&lits[idx + 1..]);
                Self::split(arena, &rest, atoms, 0)
            }
            Node::Eq(..) | Node::Lt(..) | Node::Le(..) => {
                atoms.push((t, want));
                let r = Self::split(arena, lits, atoms, idx + 1);
                atoms.pop();
                r
            }
            other => panic!("non-boolean term in literal position: {other:?}"),
        }
    }

    fn split_cases(
        arena: &TermArena,
        lits: &[Lit],
        atoms: &mut Vec<(TermId, bool)>,
        idx: usize,
        c1: Lit,
        c2: Lit,
    ) -> SatResult {
        for case in [c1, c2] {
            let mut rest: Vec<Lit> = vec![case];
            rest.extend_from_slice(&lits[idx + 1..]);
            if Self::split(arena, &rest, atoms, 0) == SatResult::Sat {
                return SatResult::Sat;
            }
        }
        SatResult::Unsat
    }

    // ---------------------------------------------------------------
    // Theory: intervals + difference bounds + disequalities.
    // ---------------------------------------------------------------
    fn theory_check(arena: &TermArena, atoms: &[(TermId, bool)]) -> SatResult {
        let mut th = Theory::new();
        // Collect base terms and seed intervals.
        for &(a, _) in atoms {
            let (l, r) = match arena.node(a) {
                Node::Eq(l, r) | Node::Lt(l, r) | Node::Le(l, r) => (*l, *r),
                _ => unreachable!("atoms are comparisons"),
            };
            th.base_of(arena, l);
            th.base_of(arena, r);
        }
        // Assert atoms as difference bounds / disequalities.
        for &(a, want) in atoms {
            let (l, r, kind) = match arena.node(a) {
                Node::Eq(l, r) => (*l, *r, AtomKind::Eq),
                Node::Lt(l, r) => (*l, *r, AtomKind::Lt),
                Node::Le(l, r) => (*l, *r, AtomKind::Le),
                _ => unreachable!(),
            };
            let (b1, o1) = th.linearize(arena, l);
            let (b2, o2) = th.linearize(arena, r);
            match (kind, want) {
                (AtomKind::Eq, true) => {
                    th.add_edge(b1, b2, o2 - o1);
                    th.add_edge(b2, b1, o1 - o2);
                }
                (AtomKind::Eq, false) => th.diseqs.push((b1, b2, o2 - o1)),
                (AtomKind::Le, true) => th.add_edge(b1, b2, o2 - o1),
                (AtomKind::Le, false) => th.add_edge(b2, b1, o1 - o2 - 1),
                (AtomKind::Lt, true) => th.add_edge(b1, b2, o2 - o1 - 1),
                (AtomKind::Lt, false) => th.add_edge(b2, b1, o1 - o2),
            }
        }
        th.consistent()
    }
}

#[derive(Debug, Clone, Copy)]
enum AtomKind {
    Eq,
    Lt,
    Le,
}

/// Theory state: bases (node 0 = the constant zero), a difference-bound
/// matrix, and disequalities.
struct Theory {
    /// term -> base index (vars and opaque terms).
    base_ids: HashMap<TermId, usize>,
    /// `dbm[i][j]` = upper bound on (base_i - base_j).
    dbm: Vec<Vec<i128>>,
    diseqs: Vec<(usize, usize, i128)>, // b1 - b2 != rhs  (i.e. b1+o1 != b2+o2 with rhs = o2-o1)
}

impl Theory {
    fn new() -> Theory {
        Theory {
            base_ids: HashMap::new(),
            dbm: vec![vec![0]],
            diseqs: Vec::new(),
        }
    }

    fn ensure(&mut self, n: usize) {
        while self.dbm.len() <= n {
            for row in &mut self.dbm {
                row.push(INF);
            }
            let len = self.dbm[0].len();
            let mut row = vec![INF; len];
            row[self.dbm.len()] = 0;
            self.dbm.push(row);
        }
    }

    /// Register the base of a term (recursively seeding intervals).
    fn base_of(&mut self, arena: &TermArena, t: TermId) -> (usize, i128) {
        self.linearize(arena, t)
    }

    /// Linearize a numeric term to (base index, offset). Constants fold
    /// into the offset; anything non-linear becomes an opaque base with
    /// its abstract interval asserted against zero.
    fn linearize(&mut self, arena: &TermArena, t: TermId) -> (usize, i128) {
        match arena.node(t) {
            Node::ConstU(v, _) => (0, *v as i128),
            Node::Add(a, b) => {
                let (ba, oa) = self.linearize(arena, *a);
                let (bb, ob) = self.linearize(arena, *b);
                if ba == 0 {
                    (bb, oa + ob)
                } else if bb == 0 {
                    (ba, oa + ob)
                } else {
                    self.opaque(arena, t)
                }
            }
            Node::Sub(a, b) => {
                let (ba, oa) = self.linearize(arena, *a);
                let (bb, ob) = self.linearize(arena, *b);
                if bb == 0 {
                    (ba, oa - ob)
                } else {
                    self.opaque(arena, t)
                }
            }
            _ => self.opaque(arena, t),
        }
    }

    /// An opaque base for `t`, with its abstract interval as bounds
    /// against the zero node.
    fn opaque(&mut self, arena: &TermArena, t: TermId) -> (usize, i128) {
        if let Some(&b) = self.base_ids.get(&t) {
            return (b, 0);
        }
        let b = self.dbm.len();
        self.ensure(b);
        self.base_ids.insert(t, b);
        let (lo, hi) = bounds(arena, t);
        // b - 0 <= hi ;  0 - b <= -lo
        self.add_edge(b, 0, hi);
        self.add_edge(0, b, -lo);
        // Structural refinement for opaque subtraction: relate
        // `t = a - s` to `a`'s linear form through `s`'s interval
        // (e.g. total_len - ihl <= total_len, since ihl >= 0).
        if let Node::Sub(a, s) = arena.node(t) {
            let (ba, oa) = self.linearize(arena, *a);
            let (lo_s, hi_s) = bounds(arena, *s);
            // t <= a - lo_s  =>  t - ba <= oa - lo_s
            self.add_edge(b, ba, oa - lo_s);
            // t >= a - hi_s  =>  ba - t <= hi_s - oa
            if hi_s < INF {
                self.add_edge(ba, b, hi_s - oa);
            }
        }
        (b, 0)
    }

    fn add_edge(&mut self, i: usize, j: usize, w: i128) {
        self.ensure(i.max(j));
        if w < self.dbm[i][j] {
            self.dbm[i][j] = w;
        }
    }

    fn consistent(&mut self) -> SatResult {
        let n = self.dbm.len();
        // Floyd–Warshall closure.
        for k in 0..n {
            for i in 0..n {
                if self.dbm[i][k] == INF {
                    continue;
                }
                for j in 0..n {
                    if self.dbm[k][j] == INF {
                        continue;
                    }
                    let via = self.dbm[i][k].saturating_add(self.dbm[k][j]);
                    if via < self.dbm[i][j] {
                        self.dbm[i][j] = via;
                    }
                }
            }
        }
        for i in 0..n {
            if self.dbm[i][i] < 0 {
                return SatResult::Unsat;
            }
        }
        // Disequalities refute only forced equalities.
        for &(b1, b2, rhs) in &self.diseqs {
            if b1 == b2 {
                if rhs == 0 {
                    return SatResult::Unsat;
                }
                continue;
            }
            if self.dbm[b1][b2] == rhs && self.dbm[b2][b1] == -rhs {
                return SatResult::Unsat;
            }
        }
        SatResult::Sat
    }
}

/// Abstract interval of a term (inclusive), by structural recursion.
fn bounds(arena: &TermArena, t: TermId) -> (i128, i128) {
    match arena.node(t) {
        Node::ConstU(v, _) => (*v as i128, *v as i128),
        Node::Var(_, w) => (0, w.max_value() as i128),
        Node::Add(a, b) => {
            let (la, ha) = bounds(arena, *a);
            let (lb, hb) = bounds(arena, *b);
            (la + lb, ha + hb)
        }
        Node::Sub(a, b) => {
            // Mathematical subtraction (non-wrap is a separate
            // obligation); lower bound may be negative.
            let (la, ha) = bounds(arena, *a);
            let (lb, hb) = bounds(arena, *b);
            (la - hb, ha - lb)
        }
        Node::AndMask(a, m) => {
            // A negative operand (a `Sub` that may go below zero) masks
            // to its two's-complement low bits: anything up to the mask.
            let (la, ha) = bounds(arena, *a);
            let m = *m as i128;
            (0, if la < 0 { m } else { m.min(ha) })
        }
        Node::ShlC(a, s) => {
            // `v * 2^s`, unbounded once it leaves the intervals' range:
            // a shifted-out bit must not wrap the bound.
            let (la, ha) = bounds(arena, *a);
            let shl = |v: i128| match 2i128.checked_pow(*s).and_then(|k| v.checked_mul(k)) {
                Some(x) if x.abs() < INF => x,
                _ if v == 0 => 0,
                _ => INF * v.signum(),
            };
            (shl(la), shl(ha))
        }
        Node::ShrC(a, s) => {
            let (la, ha) = bounds(arena, *a);
            (la >> (*s).min(127), ha >> (*s).min(127))
        }
        Node::Zext(a, _) => bounds(arena, *a),
        _ => panic!("bounds of a boolean term"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Width;

    fn arena() -> TermArena {
        TermArena::new()
    }

    #[test]
    fn trivial_contradiction() {
        let mut a = arena();
        let x = a.var("x", Width::W16);
        let c5 = a.cu(5, Width::W16);
        let eq = a.eq(x, c5);
        assert_eq!(
            Solver::check(&a, &[(eq, true), (eq, false)]),
            SatResult::Unsat
        );
        assert_eq!(Solver::check(&a, &[(eq, true)]), SatResult::Sat);
    }

    #[test]
    fn interval_contradiction_via_width() {
        let mut a = arena();
        let x = a.var("x", Width::W8); // x <= 255
        let c300 = a.cu(300, Width::W16);
        let zx = a.zext(x, Width::W16);
        let gt = a.lt(c300, zx); // 300 < x : impossible for u8
        assert_eq!(Solver::check(&a, &[(gt, true)]), SatResult::Unsat);
    }

    #[test]
    fn difference_chain_contradiction() {
        // x < y, y < z, z < x is a negative cycle.
        let mut a = arena();
        let x = a.var("x", Width::W32);
        let y = a.var("y", Width::W32);
        let z = a.var("z", Width::W32);
        let p1 = a.lt(x, y);
        let p2 = a.lt(y, z);
        let p3 = a.lt(z, x);
        assert_eq!(
            Solver::check(&a, &[(p1, true), (p2, true), (p3, true)]),
            SatResult::Unsat
        );
        assert_eq!(Solver::check(&a, &[(p1, true), (p2, true)]), SatResult::Sat);
    }

    #[test]
    fn offset_reasoning() {
        // x + 10 <= 20 entails x <= 10; so x = 15 contradicts.
        let mut a = arena();
        let x = a.var("x", Width::W16);
        let c10 = a.cu(10, Width::W16);
        let c20 = a.cu(20, Width::W16);
        let c15 = a.cu(15, Width::W16);
        let sum = a.add(x, c10);
        let le = a.le(sum, c20);
        let eq15 = a.eq(x, c15);
        assert_eq!(
            Solver::check(&a, &[(le, true), (eq15, true)]),
            SatResult::Unsat
        );
        let c5 = a.cu(5, Width::W16);
        let eq5 = a.eq(x, c5);
        assert_eq!(
            Solver::check(&a, &[(le, true), (eq5, true)]),
            SatResult::Sat
        );
    }

    #[test]
    fn entailment_of_overflow_obligation() {
        // The NAT's port-arithmetic proof: idx <= 65534 entails
        // 1 + idx <= 65535 (start_port = 1, capacity = 65535).
        let mut a = arena();
        let idx = a.var("idx", Width::W16);
        let c65534 = a.cu(65534, Width::W16);
        let bound = a.le(idx, c65534);
        let one = a.cu(1, Width::W16);
        let sum = a.add(one, idx);
        let c65535 = a.cu(65535, Width::W16);
        let ob = a.le(sum, c65535);
        assert!(Solver::entails(&a, &[(bound, true)], ob));
        // Without the bound the obligation is not provable.
        assert!(!Solver::entails(&a, &[], ob));
    }

    #[test]
    fn mask_and_shift_bounds() {
        // (v & 0x0f) << 2 <= 60 always holds — the IHL obligation.
        let mut a = arena();
        let v = a.var("version_ihl", Width::W8);
        let nib = a.and_mask(v, 0x0f);
        let ihl = a.shl(nib, 2);
        let z = a.zext(ihl, Width::W16);
        let c60 = a.cu(60, Width::W16);
        let ob = a.le(z, c60);
        assert!(Solver::entails(&a, &[], ob));
        let c59 = a.cu(59, Width::W16);
        let too_tight = a.le(z, c59);
        assert!(
            !Solver::entails(&a, &[], too_tight),
            "59 is not a valid bound"
        );
    }

    /// `(a - b) & m` with `a < b` masks a negative integer: its value
    /// is the two's-complement low bits, anywhere in `0..=m`, not the
    /// empty interval an operand assumed non-negative gives. Every pair
    /// of W8 constants is checked against the integer value.
    #[test]
    fn mask_of_a_negative_difference_is_not_refuted() {
        let mut a = arena();
        let c3 = a.cu(3, Width::W8);
        let c57 = a.cu(57, Width::W8);
        let c172 = a.cu(172, Width::W8);
        let diff = a.sub(c57, c172);
        let masked = a.and_mask(diff, 213);
        let ge3 = a.le(c3, masked);
        assert_eq!(Solver::check(&a, &[(ge3, true)]), SatResult::Sat);
        for x in 0..=255u64 {
            for y in x + 1..=255 {
                let cx = a.cu(x, Width::W8);
                let cy = a.cu(y, Width::W8);
                let diff = a.sub(cx, cy);
                let masked = a.and_mask(diff, 213);
                let value = ((x as i128 - y as i128) & 213) as u64;
                let cv = a.cu(value, Width::W8);
                let is_value = a.eq(masked, cv);
                assert_eq!(
                    Solver::check(&a, &[(is_value, true)]),
                    SatResult::Sat,
                    "({x} - {y}) & 213 == {value} refuted"
                );
            }
        }
    }

    /// A shift whose bound leaves `i128` is unbounded, not wrapped:
    /// `1 << 70` is at least 1, and a shift by 200 neither panics nor
    /// refutes anything.
    #[test]
    fn shift_bounds_past_i128_are_not_refuted() {
        let mut a = arena();
        let x = a.var("x", Width::W64);
        let one = a.cu(1, Width::W64);
        let x_is_one = a.eq(x, one);
        for s in [64, 70, 127, 200] {
            let big = a.shl(x, s);
            let ge1 = a.le(one, big);
            let lits = [(ge1, true), (x_is_one, true)];
            assert_eq!(Solver::check(&a, &lits), SatResult::Sat, "x << {s}");
            let down = a.shr(x, s);
            let zero = a.cu(0, Width::W64);
            let is_zero = a.eq(down, zero);
            assert_eq!(Solver::check(&a, &[(is_zero, true)]), SatResult::Sat);
        }
    }

    #[test]
    fn guarded_subtraction_is_nonnegative() {
        // (texp <= now) entails now - texp >= 0 — the expiry threshold
        // obligation.
        let mut a = arena();
        let now = a.var("now", Width::W64);
        let texp = a.cu(2_000_000_000, Width::W64);
        let guard = a.le(texp, now);
        let diff = a.sub(now, texp);
        let zero = a.cu(0, Width::W64);
        let ob = a.le(zero, diff);
        assert!(Solver::entails(&a, &[(guard, true)], ob));
    }

    #[test]
    fn sub_upper_bound_via_structural_edge() {
        // total_len - ihl <= total_len when ihl >= 0 (trivially true
        // for unsigned) — needed to bound l4_avail.
        let mut a = arena();
        let total = a.var("total_len", Width::W16);
        let v = a.var("vihl", Width::W8);
        let nib = a.and_mask(v, 0x0f);
        let ihl8 = a.shl(nib, 2);
        let ihl = a.zext(ihl8, Width::W16);
        let avail = a.sub(total, ihl);
        let ob = a.le(avail, total);
        assert!(Solver::entails(&a, &[], ob));
    }

    #[test]
    fn disequality_refutes_forced_equality() {
        let mut a = arena();
        let x = a.var("x", Width::W16);
        let y = a.var("y", Width::W16);
        let le1 = a.le(x, y);
        let le2 = a.le(y, x);
        let eq = a.eq(x, y);
        assert_eq!(
            Solver::check(&a, &[(le1, true), (le2, true), (eq, false)]),
            SatResult::Unsat,
            "x <= y <= x forces x == y"
        );
        assert_eq!(
            Solver::check(&a, &[(le1, true), (eq, false)]),
            SatResult::Sat,
            "one-sided bound does not force equality"
        );
    }

    #[test]
    fn case_split_over_disjunction() {
        let mut a = arena();
        let x = a.var("x", Width::W8);
        let c1 = a.cu(1, Width::W8);
        let c2 = a.cu(2, Width::W8);
        let e1 = a.eq(x, c1);
        let e2 = a.eq(x, c2);
        let disj = a.or(e1, e2);
        // (x=1 || x=2) && x!=1 && x!=2 : unsat
        assert_eq!(
            Solver::check(&a, &[(disj, true), (e1, false), (e2, false)]),
            SatResult::Unsat
        );
        // (x=1 || x=2) && x!=1 : sat (x=2)
        assert_eq!(
            Solver::check(&a, &[(disj, true), (e1, false)]),
            SatResult::Sat
        );
        // !(x=1 && x=2) : sat trivially
        let conj = a.and(e1, e2);
        assert_eq!(Solver::check(&a, &[(conj, false)]), SatResult::Sat);
        // x=1 && x=2 : unsat
        assert_eq!(Solver::check(&a, &[(conj, true)]), SatResult::Unsat);
    }

    #[test]
    fn frame_length_ladder_is_consistent() {
        // A real path prefix from the NAT: frame_len >= 34,
        // total_len <= frame_len - 14, ihl <= total_len,
        // l4_avail = total_len - ihl >= 20.
        let mut a = arena();
        let frame = a.var("frame_len", Width::W16);
        let total = a.var("total_len", Width::W16);
        let v = a.var("vihl", Width::W8);
        let c34 = a.cu(34, Width::W16);
        let c14 = a.cu(14, Width::W16);
        let c20 = a.cu(20, Width::W16);
        let nib = a.and_mask(v, 0x0f);
        let ihl8 = a.shl(nib, 2);
        let ihl = a.zext(ihl8, Width::W16);
        let budget = a.sub(frame, c14);
        let l4 = a.sub(total, ihl);

        let g1 = a.le(c34, frame);
        let g2 = a.le(total, budget);
        let g3 = a.le(ihl, total);
        let g4 = a.le(c20, l4);
        let path = [(g1, true), (g2, true), (g3, true), (g4, true)];
        assert_eq!(
            Solver::check(&a, &path),
            SatResult::Sat,
            "the forwarding path is feasible"
        );

        // And it entails total_len >= 20 (sanity the validator uses).
        let ob = a.le(c20, total);
        assert!(Solver::entails(&a, &path, ob));
    }
}
