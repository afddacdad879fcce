//! The symbolic term arena.
//!
//! Terms are immutable, hash-consed (structurally identical terms share
//! one id — so syntactic equality is id equality, and the solver's
//! "same base" reasoning works across the whole path), and cover
//! exactly the operations `vignat`'s `Domain` trait exposes plus the
//! propositions its branches produce.
//!
//! Constant folding happens at construction: `add(c1, c2)` yields a
//! constant, `eq(t, t)` yields `true`, etc. This keeps paths short and
//! makes many proof obligations discharge syntactically. A fold equals
//! the integer value of the term, or it does not happen: a constant sum
//! past its width, or a constant shift that loses a bit, stays a node,
//! so the obligation that it must not wrap stays refutable.

use std::collections::HashMap;

/// Bit-width of a numeric term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Width {
    /// 8-bit.
    W8,
    /// 16-bit.
    W16,
    /// 32-bit.
    W32,
    /// 64-bit.
    W64,
}

impl Width {
    /// Largest value of this width.
    pub fn max_value(self) -> u64 {
        match self {
            Width::W8 => 0xff,
            Width::W16 => 0xffff,
            Width::W32 => 0xffff_ffff,
            Width::W64 => u64::MAX,
        }
    }
}

/// Index of a term in its arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// A proposition: a boolean-sorted term.
pub type Prop = TermId;

/// Term node. Numeric nodes carry/imply a width; boolean nodes are
/// propositions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// Numeric constant.
    ConstU(u64, Width),
    /// Free variable (the symbolic inputs: packet fields, time, model
    /// outputs). The `u32` is a unique variable number.
    Var(u32, Width),
    /// `a + b` (mathematical integer semantics; non-wrapping is a proof
    /// obligation emitted by the domain, not an assumption here).
    Add(TermId, TermId),
    /// `a - b` (mathematical; non-negative is an obligation).
    Sub(TermId, TermId),
    /// `a & mask`.
    AndMask(TermId, u64),
    /// `a << s`.
    ShlC(TermId, u32),
    /// `a >> s`.
    ShrC(TermId, u32),
    /// Zero-extension to a wider width.
    Zext(TermId, Width),
    /// Boolean constant.
    ConstB(bool),
    /// `a == b` (operands sorted for hash-consing).
    Eq(TermId, TermId),
    /// `a < b`.
    Lt(TermId, TermId),
    /// `a <= b`.
    Le(TermId, TermId),
    /// `!a`.
    Not(TermId),
    /// `a && b` (operands sorted).
    AndB(TermId, TermId),
    /// `a || b` (operands sorted).
    OrB(TermId, TermId),
}

/// The hash-consing arena.
#[derive(Debug, Default, Clone)]
pub struct TermArena {
    nodes: Vec<Node>,
    memo: HashMap<Node, TermId>,
    var_names: HashMap<u32, String>,
    next_var: u32,
}

impl TermArena {
    /// Empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no terms were built.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    pub fn node(&self, t: TermId) -> &Node {
        &self.nodes[t.0 as usize]
    }

    fn intern(&mut self, n: Node) -> TermId {
        if let Some(&id) = self.memo.get(&n) {
            return id;
        }
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(n.clone());
        self.memo.insert(n, id);
        id
    }

    /// Fresh symbolic variable.
    pub fn var(&mut self, name: &str, w: Width) -> TermId {
        let v = self.next_var;
        self.next_var += 1;
        self.var_names.insert(v, name.to_string());
        self.intern(Node::Var(v, w))
    }

    /// Debug name of a variable term (or a rendering of the node).
    pub fn name_of(&self, t: TermId) -> String {
        match self.node(t) {
            Node::Var(v, _) => self
                .var_names
                .get(v)
                .cloned()
                .unwrap_or_else(|| format!("v{v}")),
            n => format!("{n:?}"),
        }
    }

    /// Numeric constant.
    pub fn cu(&mut self, v: u64, w: Width) -> TermId {
        debug_assert!(v <= w.max_value());
        self.intern(Node::ConstU(v, w))
    }

    /// Boolean constant.
    pub fn cb(&mut self, v: bool) -> TermId {
        self.intern(Node::ConstB(v))
    }

    /// Constant value of a term, if it is a numeric constant.
    pub fn as_const(&self, t: TermId) -> Option<u64> {
        match self.node(t) {
            Node::ConstU(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Constant value of a proposition, if decided syntactically.
    pub fn as_const_bool(&self, t: TermId) -> Option<bool> {
        match self.node(t) {
            Node::ConstB(b) => Some(*b),
            _ => None,
        }
    }

    /// Width of a numeric term.
    pub fn width(&self, t: TermId) -> Width {
        match self.node(t) {
            Node::ConstU(_, w) | Node::Var(_, w) | Node::Zext(_, w) => *w,
            Node::Add(a, _)
            | Node::Sub(a, _)
            | Node::AndMask(a, _)
            | Node::ShlC(a, _)
            | Node::ShrC(a, _) => self.width(*a),
            _ => panic!("width of a boolean term"),
        }
    }

    /// `a + b`, constant-folded when the sum fits the width. A sum past
    /// it stays a node, so the domain's no-wrap obligation on it stays
    /// refutable instead of folding to `true`.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let w = self.width(a);
            if let Some(sum) = x.checked_add(y).filter(|&sum| sum <= w.max_value()) {
                return self.cu(sum, w);
            }
        }
        self.intern(Node::Add(a, b))
    }

    /// `a - b`, constant-folded.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            let w = self.width(a);
            return self.cu(0, w);
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) if x >= y => {
                let w = self.width(a);
                self.cu(x - y, w)
            }
            _ => self.intern(Node::Sub(a, b)),
        }
    }

    /// `a & mask`, constant-folded.
    pub fn and_mask(&mut self, a: TermId, mask: u64) -> TermId {
        match self.as_const(a) {
            Some(x) => {
                let w = self.width(a);
                self.cu(x & mask, w)
            }
            None => self.intern(Node::AndMask(a, mask)),
        }
    }

    /// `a << s`, constant-folded when no bit leaves the width (a lost
    /// bit stays a node, as in [`TermArena::add`]).
    pub fn shl(&mut self, a: TermId, s: u32) -> TermId {
        if let Some(x) = self.as_const(a) {
            let w = self.width(a);
            if s < 64 && x <= w.max_value() >> s {
                return self.cu(x << s, w);
            }
        }
        self.intern(Node::ShlC(a, s))
    }

    /// `a >> s`, constant-folded.
    pub fn shr(&mut self, a: TermId, s: u32) -> TermId {
        match self.as_const(a) {
            Some(x) => {
                let w = self.width(a);
                self.cu(x >> s, w)
            }
            None => self.intern(Node::ShrC(a, s)),
        }
    }

    /// Zero-extend to `w`.
    pub fn zext(&mut self, a: TermId, w: Width) -> TermId {
        debug_assert!(w >= self.width(a));
        match self.as_const(a) {
            Some(x) => self.cu(x, w),
            None => self.intern(Node::Zext(a, w)),
        }
    }

    /// `a == b`, folded and operand-sorted.
    pub fn eq(&mut self, a: TermId, b: TermId) -> Prop {
        if a == b {
            return self.cb(true);
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.cb(x == y);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Node::Eq(a, b))
    }

    /// `a < b`, folded.
    pub fn lt(&mut self, a: TermId, b: TermId) -> Prop {
        if a == b {
            return self.cb(false);
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.cb(x < y);
        }
        self.intern(Node::Lt(a, b))
    }

    /// `a <= b`, folded.
    pub fn le(&mut self, a: TermId, b: TermId) -> Prop {
        if a == b {
            return self.cb(true);
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.cb(x <= y);
        }
        self.intern(Node::Le(a, b))
    }

    /// `!a`, folded (double negation collapses).
    pub fn not(&mut self, a: Prop) -> Prop {
        if let Some(b) = self.as_const_bool(a) {
            return self.cb(!b);
        }
        if let Node::Not(inner) = self.node(a) {
            return *inner;
        }
        self.intern(Node::Not(a))
    }

    /// `a && b`, folded and operand-sorted.
    pub fn and(&mut self, a: Prop, b: Prop) -> Prop {
        match (self.as_const_bool(a), self.as_const_bool(b)) {
            (Some(false), _) | (_, Some(false)) => return self.cb(false),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Node::AndB(a, b))
    }

    /// `a || b`, folded and operand-sorted.
    pub fn or(&mut self, a: Prop, b: Prop) -> Prop {
        match (self.as_const_bool(a), self.as_const_bool(b)) {
            (Some(true), _) | (_, Some(true)) => return self.cb(true),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Node::OrB(a, b))
    }

    /// Evaluate a term under a variable assignment, with the integer
    /// semantics the nodes state: `+`, `-` and `<<` never wrap (a
    /// difference may be negative), `&` masks the two's-complement bits
    /// and `>>` rounds down. Propositions evaluate to 0 or 1. Returns
    /// `None` if some variable is unassigned or a value leaves `i128`.
    pub fn eval(&self, t: TermId, assign: &HashMap<u32, u64>) -> Option<i128> {
        let ev = |t: &TermId| self.eval(*t, assign);
        let truth = |b: bool| Some(i128::from(b));
        match self.node(t) {
            Node::ConstU(v, _) => Some(i128::from(*v)),
            Node::Var(v, _) => assign.get(v).map(|&x| i128::from(x)),
            Node::Add(a, b) => ev(a)?.checked_add(ev(b)?),
            Node::Sub(a, b) => ev(a)?.checked_sub(ev(b)?),
            Node::AndMask(a, m) => Some(ev(a)? & i128::from(*m)),
            Node::ShlC(a, s) => match ev(a)? {
                0 => Some(0),
                v => v.checked_mul(2i128.checked_pow(*s)?),
            },
            Node::ShrC(a, s) => Some(ev(a)? >> (*s).min(127)),
            Node::Zext(a, _) => ev(a),
            Node::ConstB(b) => truth(*b),
            Node::Eq(a, b) => truth(ev(a)? == ev(b)?),
            Node::Lt(a, b) => truth(ev(a)? < ev(b)?),
            Node::Le(a, b) => truth(ev(a)? <= ev(b)?),
            Node::Not(a) => truth(ev(a)? == 0),
            Node::AndB(a, b) => truth(ev(a)? != 0 && ev(b)? != 0),
            Node::OrB(a, b) => truth(ev(a)? != 0 || ev(b)? != 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_structure() {
        let mut a = TermArena::new();
        let x = a.var("x", Width::W16);
        let five = a.cu(5, Width::W16);
        let t1 = a.add(x, five);
        let t2 = a.add(x, five);
        assert_eq!(t1, t2, "identical terms share one id");
        let e1 = a.eq(x, five);
        let e2 = a.eq(five, x);
        assert_eq!(e1, e2, "eq is order-normalized");
    }

    #[test]
    fn constant_folding() {
        let mut a = TermArena::new();
        let c2 = a.cu(2, Width::W16);
        let c3 = a.cu(3, Width::W16);
        let s = a.add(c2, c3);
        assert_eq!(a.as_const(s), Some(5));
        let e = a.eq(c2, c3);
        assert_eq!(a.as_const_bool(e), Some(false));
        let l = a.lt(c2, c3);
        assert_eq!(a.as_const_bool(l), Some(true));
        let x = a.var("x", Width::W8);
        let self_eq = a.eq(x, x);
        assert_eq!(a.as_const_bool(self_eq), Some(true));
        let self_sub = a.sub(x, x);
        assert_eq!(a.as_const(self_sub), Some(0));
    }

    #[test]
    fn boolean_simplification() {
        let mut a = TermArena::new();
        let x = a.var("x", Width::W8);
        let y = a.var("y", Width::W8);
        let p = a.eq(x, y);
        let t = a.cb(true);
        let f = a.cb(false);
        assert_eq!(a.and(p, t), p);
        assert_eq!(a.and(p, f), f);
        assert_eq!(a.or(p, f), p);
        assert_eq!(a.or(p, t), t);
        let np = a.not(p);
        assert_eq!(a.not(np), p, "double negation collapses");
        assert_eq!(a.and(p, p), p);
    }

    #[test]
    fn bitop_folding() {
        let mut a = TermArena::new();
        let c = a.cu(0x45, Width::W8);
        let masked = a.and_mask(c, 0x0f);
        assert_eq!(a.as_const(masked), Some(5));
        let shifted = a.shl(masked, 2);
        assert_eq!(a.as_const(shifted), Some(20));
        let back = a.shr(shifted, 2);
        assert_eq!(a.as_const(back), Some(5));
    }

    /// A fold equals the integer value or does not happen: a sum past
    /// the width (even past `u64`) and a shift that loses a bit stay
    /// nodes.
    #[test]
    fn folds_are_exact_or_absent() {
        let mut a = TermArena::new();
        let max16 = a.cu(0xffff, Width::W16);
        let one16 = a.cu(1, Width::W16);
        let wrap = a.add(max16, one16);
        assert_eq!(a.as_const(wrap), None);
        let max64 = a.cu(u64::MAX, Width::W64);
        let two64 = a.cu(2, Width::W64);
        let past = a.add(max64, two64);
        assert_eq!(a.as_const(past), None);
        let zero16 = a.cu(0, Width::W16);
        let fits = a.add(max16, zero16);
        assert_eq!(a.as_const(fits), Some(0xffff));
        let c80 = a.cu(0x80, Width::W8);
        let lost = a.shl(c80, 1);
        assert_eq!(a.as_const(lost), None);
        let c40 = a.cu(0x40, Width::W8);
        let kept = a.shl(c40, 1);
        assert_eq!(a.as_const(kept), Some(0x80));
        let c1 = a.cu(1, Width::W64);
        let far = a.shl(c1, 64);
        assert_eq!(a.as_const(far), None);
    }

    #[test]
    fn eval_against_assignment() {
        let mut a = TermArena::new();
        let x = a.var("x", Width::W16);
        let c10 = a.cu(10, Width::W16);
        let sum = a.add(x, c10);
        let c50 = a.cu(50, Width::W16);
        let prop = a.le(sum, c50);
        let mut assign = HashMap::new();
        assign.insert(0, 30); // x = 30
        assert_eq!(a.eval(sum, &assign), Some(40));
        assert_eq!(a.eval(prop, &assign), Some(1));
        assign.insert(0, 45);
        assert_eq!(a.eval(prop, &assign), Some(0));
    }

    /// `eval` is integer arithmetic: no sum wraps at `u64`, a difference
    /// goes negative and masks as two's complement, and a shift by 64 or
    /// more multiplies.
    #[test]
    fn eval_has_integer_semantics() {
        let mut a = TermArena::new();
        let x = a.var("x", Width::W64);
        let y = a.var("y", Width::W8);
        let assign = HashMap::from([(0, u64::MAX), (1, 172)]);
        let sum = a.add(x, x);
        assert_eq!(a.eval(sum, &assign), Some(2 * i128::from(u64::MAX)));
        let c57 = a.cu(57, Width::W8);
        let diff = a.sub(c57, y);
        assert_eq!(a.eval(diff, &assign), Some(-115));
        let masked = a.and_mask(diff, 213);
        assert_eq!(a.eval(masked, &assign), Some(-115 & 213));
        let c3 = a.cu(3, Width::W8);
        let three_le = a.le(c3, masked);
        assert_eq!(a.eval(three_le, &assign), Some(1));
        let far = a.shl(y, 64);
        assert_eq!(a.eval(far, &assign), Some(172 << 64));
        let down = a.shr(diff, 2);
        assert_eq!(a.eval(down, &assign), Some(-29), "rounds toward -inf");
        let huge = a.shl(x, 100);
        assert_eq!(a.eval(huge, &assign), None, "past i128");
    }

    #[test]
    fn width_tracking() {
        let mut a = TermArena::new();
        let x = a.var("x", Width::W8);
        let z = a.zext(x, Width::W16);
        assert_eq!(a.width(z), Width::W16);
        let m = a.and_mask(x, 0x0f);
        assert_eq!(a.width(m), Width::W8);
        assert_eq!(Width::W16.max_value(), 65535);
    }
}
