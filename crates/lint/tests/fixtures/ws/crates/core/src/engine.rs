//! Fixture engine: span-coverage and hot-assert expectations. The
//! file's path suffix (`core/src/engine.rs`) puts it on both rules'
//! target lists.

pub struct Engine {
    pub stats_total: u64,
}

impl Engine {
    /// Positive: a mutation entry point that never opens a span.
    pub fn uninstrumented(&mut self, n: u64) -> u64 {
        n + 1
    }

    pub fn instrumented(&mut self, n: u64) -> u64 {
        let op = SpanGuard::enter(SpanKind::Op);
        self.stats_total += n;
        drop(op);
        n
    }

    // xsi-lint: allow(span-coverage, thin shim; instrumented() opens the Op span)
    pub fn waived_shim(&mut self, n: u64) -> u64 {
        self.instrumented(n)
    }

    pub fn hot_assert_positive(&mut self, n: u64) {
        assert!(n > 0, "n must be positive");
        let _op = SpanGuard::enter(SpanKind::Op);
        self.stats_total += n;
    }

    pub fn hot_assert_clean(&mut self, n: u64) {
        debug_assert!(n > 0, "n must be positive");
        let _op = SpanGuard::enter(SpanKind::Op);
        self.stats_total += n;
    }

    // Freeze entry points are checked regardless of receiver: this
    // `&self` freeze opens no Freeze span, so span-coverage flags it.
    pub fn freeze_uninstrumented(&self) -> u64 {
        self.stats_total
    }

    pub fn freeze_instrumented(&self) -> u64 {
        let _sp = SpanGuard::enter(SpanKind::Freeze);
        self.stats_total
    }

    /// Read-only accessors are not entry points.
    pub fn total(&self) -> u64 {
        self.stats_total
    }
}
