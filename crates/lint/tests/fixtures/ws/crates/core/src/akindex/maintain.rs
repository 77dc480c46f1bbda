//! Fixture ak maintainer: panic-reach expectations. A panic-reach
//! entry file; the entry fns take `&self` so the span coverage rule
//! stays out of the frame.

impl AkIndex {
    // Positive: a pub entry point whose private helper unwraps.
    pub fn entry_reaches_unwrap(&self, x: Option<u32>) -> u32 {
        self.lookup(x)
    }

    // Waived: same chain, argued safe at the entry point.
    // xsi-lint: allow(panic-reach, fixture: callers validate the input before entering)
    pub fn entry_waived(&self, x: Option<u32>) -> u32 {
        self.lookup(x)
    }

    // Clean: the only reachable expect carries the contract prefix.
    pub fn entry_clean(&self, x: Option<u32>) -> u32 {
        self.checked(x)
    }

    fn lookup(&self, x: Option<u32>) -> u32 {
        x.unwrap()
    }

    fn checked(&self, x: Option<u32>) -> u32 {
        x.expect("invariant: fixture caller guarantees presence")
    }
}
