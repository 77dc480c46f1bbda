//! Fixture view: a deliberately dead waiver for the self-audit rule.

pub struct View {
    pub top: Block,
}

// Dead waiver: suppresses nothing on the line it covers.
// xsi-lint: allow(hash-iter, fixture: the hazard this argued safe is gone)
fn peek_weight(v: &View) -> u64 {
    v.top.weight
}
