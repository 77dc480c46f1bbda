//! `span-coverage`: the refinement kernel's driver entry points, the
//! two maintainers' split/merge drivers, and the engine's mutation and
//! freeze entry points must open a causal span (DESIGN.md §12). The
//! span tree is one of the pipeline's two instrumentation facts (with
//! `UpdateStats`): an entry point that never opens a `SpanGuard` shows
//! up in a Perfetto trace as unattributed parent time, which defeats
//! the ≥90% accounting contract, and leaves a hole in the stable-line
//! trace that reproducers and the black box embed.
//! See the registry entry in [`super::RULES`].

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::Finding;

/// Files the rule applies to (suffix match, so fixture mini-workspaces
/// exercise the rule too).
const KERNEL_SUFFIX: &str = "core/src/kernel.rs";
const ENGINE_SUFFIX: &str = "core/src/engine.rs";
const MAINTAINER_SUFFIXES: &[&str] = &[
    "core/src/oneindex/maintain.rs",
    "core/src/akindex/maintain.rs",
];

/// Identifiers that count as "opens a span": the guard type, its
/// constructors, or the module-level collection helpers. A bare `span`
/// binder also counts — the kernel names its aggregate guards that way.
const SPAN_TOKENS: &[&str] = &["SpanGuard", "enter", "enter_family", "span", "SpanKind"];

pub fn run(f: &SourceFile, out: &mut Vec<Finding>) {
    let is_kernel = f.rel_path.ends_with(KERNEL_SUFFIX);
    let is_engine = f.rel_path.ends_with(ENGINE_SUFFIX);
    let is_maintainer = MAINTAINER_SUFFIXES.iter().any(|s| f.rel_path.ends_with(s));
    if !is_kernel && !is_engine && !is_maintainer {
        return;
    }
    let toks = &f.toks;
    let mut i = 0usize;
    while i < toks.len() {
        // `pub fn name` — but not `pub(crate) fn`: internal plumbing.
        if toks[i].is_ident("pub") // xsi-lint: allow(slice-index, loop condition bounds i < toks.len())
            && toks.get(i + 1).is_some_and(|t| t.is_ident("fn"))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let name = toks[i + 2].text.clone(); // xsi-lint: allow(slice-index, the i + 2 lookahead was get-checked above)
            let line = toks[i + 2].line; // xsi-lint: allow(slice-index, the i + 2 lookahead was get-checked above)
            if !f.is_test_line(line) {
                if let Some((body_open, body_close)) = fn_body_span(toks, i + 2) {
                    let sig = &toks[i + 3..body_open]; // xsi-lint: allow(slice-index, fn_body_span returns body_open past the name token)
                                                       // Kernel: the driver entry points are exactly the pub
                                                       // fns threading `UpdateStats` (process_compounds,
                                                       // refine_to_fixpoint, merge_fold); queue plumbing is
                                                       // exempt. Maintainers: every pub `&mut self` driver.
                                                       // Engine: every pub `&mut self` entry point, plus any
                                                       // `freeze*` whatever its receiver — a read-only
                                                       // freeze still owes its Freeze span.
                    let is_entry = if is_kernel {
                        sig.iter()
                            .any(|t| t.kind == TokKind::Ident && t.text == "UpdateStats")
                    } else {
                        takes_mut_self(sig) || (is_engine && name.starts_with("freeze"))
                    };
                    if is_entry {
                        // xsi-lint: allow(slice-index, fn_body_span returns in-bounds body_close)
                        let covered = toks[i + 3..=body_close].iter().any(|t| {
                            t.kind == TokKind::Ident && SPAN_TOKENS.contains(&t.text.as_str())
                        });
                        if !covered {
                            out.push(super::finding(
                                f,
                                "span-coverage",
                                line,
                                format!(
                                    "entry point `pub fn {name}(…)` never opens a causal \
                                     span (no SpanGuard::enter/enter_family); instrument it or \
                                     waive naming the span-opening delegate"
                                ),
                            ));
                        }
                        i = body_close + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
}

/// From the token index of a fn's name, find its body `{`/`}` token
/// span. Returns `None` for body-less fns (trait decls).
pub(crate) fn fn_body_span(toks: &[Tok], name_idx: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    for (j, t) in toks.iter().enumerate().skip(name_idx + 1) {
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if paren == 0 && t.is_punct(';') {
            return None;
        } else if paren == 0 && t.is_punct('{') {
            let mut depth = 0usize;
            for (k, t) in toks.iter().enumerate().skip(j) {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some((j, k));
                    }
                }
            }
            // Unbalanced: the body runs to the end of the file.
            return Some((j, toks.len() - 1));
        }
    }
    None
}

/// Does the signature contain `&mut self` (possibly `&'a mut self`)?
pub(crate) fn takes_mut_self(sig: &[Tok]) -> bool {
    sig.iter().enumerate().any(|(w, t)| {
        if !t.is_punct('&') {
            return false;
        }
        let mut rest = sig.iter().skip(w + 1).peekable();
        if rest.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
            rest.next();
        }
        rest.next().is_some_and(|t| t.is_ident("mut"))
            && rest.next().is_some_and(|t| t.is_ident("self"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint_at(rel: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(rel.to_string(), PathBuf::from(format!("/x/{rel}")), src);
        let mut out = Vec::new();
        run(&f, &mut out);
        out
    }

    #[test]
    fn kernel_driver_without_span_flagged() {
        let src =
            "pub fn process<D: SplitDriver>(d: &mut D, stats: &mut UpdateStats) { d.scan(); }";
        let hits = lint_at("crates/core/src/kernel.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("process"));
    }

    #[test]
    fn kernel_driver_with_span_guard_is_clean() {
        let src = "pub fn process<D: SplitDriver>(d: &mut D, stats: &mut UpdateStats) { \
                   let sp = SpanGuard::enter(SpanKind::KernelScan); d.scan(); drop(sp); }";
        assert!(lint_at("crates/core/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn kernel_queue_plumbing_is_exempt() {
        let src =
            "impl<K> CompoundQueue<K> { pub fn push(&mut self, c: Vec<K>) { self.q.push(c); } }";
        assert!(lint_at("crates/core/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn maintainer_mut_self_without_span_flagged() {
        let src = "impl M { pub fn apply(&mut self, g: &mut Graph) { self.go(g); } }";
        let hits = lint_at("crates/core/src/oneindex/maintain.rs", src);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn maintainer_with_enter_family_is_clean() {
        let src = "impl M { pub fn apply(&mut self, g: &mut Graph) { \
                   let sp = SpanGuard::enter_family(SpanKind::Split, self.family); self.go(g); drop(sp); } }";
        assert!(lint_at("crates/core/src/akindex/maintain.rs", src).is_empty());
    }

    #[test]
    fn shared_ref_and_private_fns_ignored() {
        let src = "impl M { pub fn size(&self) -> usize { self.n } \
                   fn helper(&mut self) { poke(); } \
                   pub(crate) fn h2(&mut self) { poke(); } }";
        assert!(lint_at("crates/core/src/oneindex/maintain.rs", src).is_empty());
    }

    #[test]
    fn engine_entry_point_without_span_flagged() {
        let src = "impl E { pub fn mutate(&mut self, n: u32) -> UpdateStats { self.g.poke(n) } }";
        let hits = lint_at("crates/core/src/engine.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("mutate"));
    }

    #[test]
    fn engine_freeze_flagged_even_on_shared_receiver() {
        let src = "impl E { pub fn freeze(&self) -> Vec<Snap> { self.entries.iter().map(snap).collect() } }";
        let hits = lint_at("crates/core/src/engine.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("freeze"));
    }

    #[test]
    fn engine_freeze_with_span_is_clean() {
        let src = "impl E { pub fn freeze(&self) -> Vec<Snap> { \
                   let sp = SpanGuard::enter_family(SpanKind::Freeze, f); let s = snap(); drop(sp); s } }";
        assert!(lint_at("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn shared_receiver_freeze_outside_the_engine_ignored() {
        let src = "impl M { pub fn freeze(&self) -> Snap { snap(self) } }";
        assert!(lint_at("crates/core/src/oneindex/maintain.rs", src).is_empty());
    }

    #[test]
    fn engine_shared_receiver_accessors_ignored() {
        let src = "impl E { pub fn graph(&self) -> &Graph { &self.g } \
                   pub fn publish_count(&self) -> usize { self.n } }";
        assert!(lint_at("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn engine_entry_point_with_enter_is_clean() {
        let src = "impl E { pub fn mutate(&mut self, n: u32) -> UpdateStats { \
                   let sp = SpanGuard::enter(SpanKind::Op); let s = self.g.poke(n); drop(sp); s } }";
        assert!(lint_at("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn engine_private_and_crate_fns_ignored() {
        let src = "impl E { fn helper(&mut self) { poke(); } \
                   pub(crate) fn h2(&mut self) { poke(); } \
                   pub(super) fn h3(&mut self) { poke(); } }";
        assert!(lint_at("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn engine_named_files_outside_core_ignored() {
        let src = "impl E { pub fn mutate(&mut self, n: u32) { poke(n); } \
                   pub fn freeze(&self) -> Snap { snap(self) } }";
        assert!(lint_at("crates/bench/src/engine.rs", src).is_empty());
        assert!(lint_at("crates/core/src/engine_util.rs", src).is_empty());
    }

    #[test]
    fn non_target_files_ignored() {
        let src = "impl G { pub fn mutate(&mut self, stats: &mut UpdateStats) { poke(); } }";
        assert!(lint_at("crates/graph/src/graph.rs", src).is_empty());
    }

    #[test]
    fn body_span_and_receiver_helpers() {
        let f = SourceFile::parse(
            "x.rs".into(),
            PathBuf::from("/x/x.rs"),
            "fn a(&'a mut self) { if x { y } } fn b(&self);",
        );
        let toks = &f.toks;
        let name_a = toks.iter().position(|t| t.is_ident("a")).unwrap();
        let (open, close) = fn_body_span(toks, name_a).unwrap();
        assert!(toks[open].is_punct('{') && toks[close].is_punct('}'));
        assert!(toks[close + 1].is_ident("fn"));
        assert!(takes_mut_self(&toks[name_a + 1..open]));
        let name_b = toks.iter().position(|t| t.is_ident("b")).unwrap();
        assert_eq!(fn_body_span(toks, name_b), None);
        assert!(!takes_mut_self(&toks[name_b + 1..]));
    }
}
