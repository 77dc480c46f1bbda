//! `mem-accounting`: heap-owning struct fields must appear in the
//! struct's `heap_use()` accounting (DESIGN.md §13).
//!
//! The memory observability layer's contract is that `heap_use()` is
//! *exhaustive*: `MemReport::total_bytes()` equals the walker's deep
//! bytes exactly, which only holds while every heap-typed field of an
//! accounted struct is visited. The failure mode is silent — add a
//! `Vec` side table to `Block` and forget the accounting, and every
//! mem report understates by exactly that table forever; no test can
//! notice bytes it was never told about. This rule closes the loop
//! statically.
//!
//! Scope is self-selecting: any file that defines a `heap_use` fn
//! (trait impl or inherent) for a type whose struct is declared in the
//! same file. For each such type, every named field whose type
//! mentions a heap-owning container (`Vec`, `String`, `BTreeMap`,
//! `BTreeSet`, `HashMap`, `HashSet`, `Arc`, `Box`, `CowVec`,
//! `IedgeMap`, `ScratchTable`, `SlotMap`) must be named in the
//! `heap_use` body — or in the body of another same-type method the
//! `heap_use` body calls (one level: `heap_use` → `shell_bytes` →
//! fields is the SlotMap idiom).
//!
//! Deliberately uncounted fields (caches, `Rc` back-references)
//! carry a waiver on the field line arguing why:
//! `// xsi-lint: allow(mem-accounting, <why the bytes are excluded>)`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::Finding;

use super::span_coverage::fn_body_span;

/// Container heads that own heap allocations a `heap_use()` must
/// account for (or explicitly waive).
const HEAP_HEADS: &[&str] = &[
    "Vec",
    "String",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "VecDeque",
    "Arc",
    "Box",
    "Rc",
    "CowVec",
    "IedgeMap",
    "ScratchTable",
    "SlotMap",
];

/// All methods declared in `impl` blocks for one type in this file.
#[derive(Default)]
struct TypeMethods {
    /// fn name -> token range of the body (inclusive braces).
    bodies: BTreeMap<String, (usize, usize)>,
}

pub fn run(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    let methods = collect_impl_methods(toks);
    // Only types that actually declare a heap_use participate; the
    // MemReport trait hook is optional per family, and unaccounted
    // types are a design decision, not a lint finding.
    let accounted: BTreeMap<&str, &TypeMethods> = methods
        .iter()
        .filter(|(_, m)| m.bodies.contains_key("heap_use"))
        .map(|(n, m)| (n.as_str(), m))
        .collect();
    if accounted.is_empty() {
        return;
    }

    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("struct")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && !f.is_test_line(toks[i].line)
        {
            let name = toks[i + 1].text.as_str();
            if let Some(m) = accounted.get(name) {
                if let Some((open, close)) = named_field_block(toks, i + 1) {
                    let covered = covered_idents(toks, m);
                    check_fields(f, toks, name, open, close, &covered, out);
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// The identifier set a `heap_use` body can "see": its own tokens plus
/// the bodies of same-type methods it names (one call level deep).
fn covered_idents(toks: &[Tok], m: &TypeMethods) -> BTreeSet<String> {
    let Some(&(open, close)) = m.bodies.get("heap_use") else {
        return BTreeSet::new();
    };
    let mut covered: BTreeSet<String> = ident_texts(&toks[open..=close]);
    let callees: Vec<(usize, usize)> = m
        .bodies
        .iter()
        .filter(|(name, _)| name.as_str() != "heap_use" && covered.contains(name.as_str()))
        .map(|(_, &span)| span)
        .collect();
    for (o, c) in callees {
        covered.extend(ident_texts(&toks[o..=c]));
    }
    covered
}

fn ident_texts(toks: &[Tok]) -> BTreeSet<String> {
    toks.iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

/// Walk the named-field block of a struct, flagging heap-typed fields
/// absent from the covered-identifier set.
fn check_fields(
    f: &SourceFile,
    toks: &[Tok],
    type_name: &str,
    open: usize,
    close: usize,
    covered: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let mut j = open + 1;
    while j < close {
        // Field pattern at depth 1: [pub[(…)]] name ':' type, ended by a
        // depth-1 ',' or the closing '}'. Attributes are skipped.
        if toks[j].is_punct('#') {
            j = skip_attr(toks, j);
            continue;
        }
        if toks[j].is_ident("pub") {
            j += 1;
            if j < close && toks[j].is_punct('(') {
                j = skip_balanced(toks, j, '(', ')');
            }
            continue;
        }
        if toks[j].kind == TokKind::Ident && toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            let field = toks[j].text.as_str();
            let line = toks[j].line;
            let ty_start = j + 2;
            let ty_end = field_type_end(toks, ty_start, close);
            let heap_head = toks[ty_start..ty_end]
                .iter()
                .find(|t| t.kind == TokKind::Ident && HEAP_HEADS.contains(&t.text.as_str()));
            if let Some(head) = heap_head {
                if !covered.contains(field) {
                    out.push(super::finding(
                        f,
                        "mem-accounting",
                        line,
                        format!(
                            "heap-owning field `{type_name}.{field}` ({} in its type) is never \
                             named in `{type_name}::heap_use` (directly or one call level deep); \
                             account the bytes or waive with the reason they are excluded",
                            head.text
                        ),
                    ));
                }
            }
            j = ty_end + 1; // past the ',' (or lands on close)
            continue;
        }
        j += 1;
    }
}

/// Token index one past the field's type: the next ',' at brace/angle/
/// paren depth zero relative to the field, or `close`.
fn field_type_end(toks: &[Tok], start: usize, close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < close {
        let t = &toks[j];
        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            return j;
        }
        j += 1;
    }
    close
}

/// From a struct's name token, the `{`/`}` span of its named-field
/// block. `None` for tuple and unit structs (no named fields to audit).
fn named_field_block(toks: &[Tok], name_idx: usize) -> Option<(usize, usize)> {
    let mut j = name_idx + 1;
    // Skip generics + where clause; stop at '{', bail at '(' or ';'.
    let mut angle = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle == 0 && (t.is_punct('(') || t.is_punct(';')) {
            return None;
        } else if angle == 0 && t.is_punct('{') {
            let mut depth = 1usize;
            let mut k = j + 1;
            while k < toks.len() && depth > 0 {
                if toks[k].is_punct('{') {
                    depth += 1;
                } else if toks[k].is_punct('}') {
                    depth -= 1;
                }
                k += 1;
            }
            return Some((j, k - 1));
        }
        j += 1;
    }
    None
}

fn skip_attr(toks: &[Tok], j: usize) -> usize {
    if toks.get(j + 1).is_some_and(|t| t.is_punct('[')) {
        skip_balanced(toks, j + 1, '[', ']')
    } else {
        j + 1
    }
}

fn skip_balanced(toks: &[Tok], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut j = open_idx;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Every `impl … TypeName { … }` / `impl … for TypeName { … }` block in
/// the file, folded per type name with each declared fn's body span.
fn collect_impl_methods(toks: &[Tok]) -> BTreeMap<String, TypeMethods> {
    let mut map: BTreeMap<String, TypeMethods> = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Header: up to the body '{' at angle-depth 0. The self type is
        // the last ident seen outside generics — after `for` when
        // present (trait impls), else after the impl generics.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut candidate: Option<String> = None;
        let mut body_open = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 {
                if t.is_punct('{') {
                    body_open = Some(j);
                    break;
                }
                if t.is_ident("for") {
                    candidate = None; // restart: the self type follows
                } else if t.is_ident("where") {
                    // where-clause idents are bounds, not the self type.
                    while j + 1 < toks.len() && !toks[j + 1].is_punct('{') {
                        j += 1;
                    }
                } else if t.kind == TokKind::Ident {
                    candidate = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let (Some(name), Some(open)) = (candidate, body_open) else {
            i = j + 1;
            continue;
        };
        // Body span.
        let mut depth = 1usize;
        let mut k = open + 1;
        while k < toks.len() && depth > 0 {
            if toks[k].is_punct('{') {
                depth += 1;
            } else if toks[k].is_punct('}') {
                depth -= 1;
            }
            k += 1;
        }
        let body_close = k - 1;
        let entry = map.entry(name).or_default();
        // Fns declared directly in the body (nested fns inside method
        // bodies are absorbed into their parent's span, which is fine —
        // their idents are part of what the parent "sees").
        let mut p = open + 1;
        while p < body_close {
            if toks[p].is_ident("fn") && toks.get(p + 1).is_some_and(|t| t.kind == TokKind::Ident) {
                let fname = toks[p + 1].text.clone();
                if let Some(span) = fn_body_span(toks, p + 1) {
                    p = span.1 + 1;
                    entry.bodies.entry(fname).or_insert(span);
                    continue;
                }
            }
            p += 1;
        }
        i = body_close + 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(
            "crates/core/src/store/thing.rs".into(),
            PathBuf::from("/x/crates/core/src/store/thing.rs"),
            src,
        );
        let mut out = Vec::new();
        run(&f, &mut out);
        out
    }

    #[test]
    fn unaccounted_vec_field_flagged() {
        let src = "
struct T { items: Vec<u32>, cache: Vec<u8>, n: usize }
impl HeapUse for T { fn heap_use(&self) -> usize { vec_cap_heap(&self.items) } }
";
        let hits = lint(src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("T.cache"));
        assert!(hits[0].message.contains("Vec"));
    }

    #[test]
    fn fully_accounted_struct_is_clean() {
        let src = "
struct T { items: Vec<u32>, names: BTreeMap<u32, String>, n: usize }
impl HeapUse for T {
    fn heap_use(&self) -> usize {
        vec_cap_heap(&self.items) + btree_map_heap::<u32, String>(self.names.len())
    }
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn one_helper_level_counts() {
        let src = "
struct T { items: Vec<u32>, free: Vec<u32> }
impl T { fn shell(&self) -> usize { cap(&self.items) + cap(&self.free) } }
impl HeapUse for T { fn heap_use(&self) -> usize { self.shell() } }
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn two_helper_levels_do_not_count() {
        let src = "
struct T { items: Vec<u32> }
impl T {
    fn a(&self) -> usize { self.b() }
    fn b(&self) -> usize { cap(&self.items) }
}
impl HeapUse for T { fn heap_use(&self) -> usize { self.a() } }
";
        let hits = lint(src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("T.items"));
    }

    #[test]
    fn inherent_heap_use_participates() {
        let src = "
struct P { blocks: Vec<u32>, orphans: BTreeSet<u32> }
impl P { pub fn heap_use(&self) -> usize { cap(&self.blocks) } }
";
        let hits = lint(src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("P.orphans"));
    }

    #[test]
    fn types_without_heap_use_ignored() {
        let src = "
struct U { items: Vec<u32> }
impl U { pub fn len(&self) -> usize { self.items.len() } }
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn non_heap_fields_ignored() {
        let src = "
struct T { n: usize, flag: bool, id: BlockId }
impl HeapUse for T { fn heap_use(&self) -> usize { 0 } }
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn generic_trait_impl_resolves_self_type() {
        let src = "
struct M<K> { inline: [u32; 8], spill: BTreeMap<K, u32> }
impl<K: Key> crate::obs::mem::HeapUse for M<K> {
    fn heap_use(&self) -> usize { btree_map_heap::<K, u32>(self.spill.len()) }
}
";
        assert!(lint(src).is_empty());
        let bad = "
struct M<K> { spill: BTreeMap<K, u32>, extra: Vec<K> }
impl<K: Key> crate::obs::mem::HeapUse for M<K> {
    fn heap_use(&self) -> usize { btree_map_heap::<K, u32>(self.spill.len()) }
}
";
        let hits = lint(bad);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("M.extra"));
    }

    #[test]
    fn tuple_structs_skipped() {
        let src = "
struct W(pub Vec<u32>);
impl HeapUse for W { fn heap_use(&self) -> usize { vec_cap_heap(&self.0) } }
";
        assert!(lint(src).is_empty());
    }
}
