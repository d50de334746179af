//! The conservative intra-workspace call graph.
//!
//! Nodes are the [`FnItem`](crate::items::FnItem)s of every scanned
//! file; edges are resolved *by name*, which over-approximates in
//! exactly the direction a reachability rule wants:
//!
//! * a method call `.poll(…)` edges to **every** workspace function
//!   named `poll` (trait dispatch cannot be resolved lexically, so all
//!   candidate implementations are assumed callable);
//! * a path call `Type::poll(…)` edges only to functions of a known
//!   `impl Type` block, falling back to every `poll` when the type is
//!   not a workspace `impl` target;
//! * a bare call `poll(…)` also edges to every function named `poll`.
//!
//! Calls on receivers outside the workspace (`Vec::push`, `.iter()`)
//! resolve to nothing unless a workspace function shares the name —
//! a harmless extra edge. The graph therefore never *misses* a real
//! intra-workspace call edge for non-macro code (over-approximation),
//! while panic-site detection inside function bodies is purely lexical
//! (under-approximating macro-generated panics).

use crate::items::ItemMap;
use crate::lexer::Line;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// How a panic site can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum PanicKind {
    /// `.unwrap()` on Option/Result.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` / `assert…!`.
    Macro,
    /// Slice or array indexing `x[i]`.
    Indexing,
}

impl PanicKind {
    /// Human label used in findings.
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::Macro => "panicking macro",
            PanicKind::Indexing => "indexing",
        }
    }
}

/// One potential panic inside a function body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PanicSite {
    /// 0-based source line.
    pub line: usize,
    /// What kind of panic.
    pub kind: PanicKind,
}

/// A function call reference found in a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallRef {
    /// `name(…)` — a free call.
    Bare(String),
    /// `.name(…)` — a method call.
    Method(String),
    /// `qualifier::name(…)` — a path call.
    Path(String, String),
}

/// One file's contribution to the graph.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Cargo package the file belongs to.
    pub crate_name: String,
    /// Workspace-relative path.
    pub rel: String,
    /// Parsed function items and line ownership.
    pub items: ItemMap,
    /// Per function (indexed like `items.fns`): calls out of its body.
    pub calls: Vec<Vec<CallRef>>,
    /// Per function: potential panic sites in its body.
    pub panics: Vec<Vec<PanicSite>>,
}

const KEYWORDS: [&str; 20] = [
    "if", "else", "match", "while", "for", "loop", "return", "fn", "let", "in", "as", "move",
    "ref", "mut", "impl", "where", "unsafe", "async", "await", "dyn",
];

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extracts the call references on one line of code.
pub fn calls_on_line(code: &str) -> Vec<CallRef> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        // Read the identifier immediately before the `(`.
        let mut start = i;
        while start > 0 && is_ident_char(bytes[start - 1] as char) {
            start -= 1;
        }
        if start == i {
            continue; // `(` with no preceding identifier
        }
        let name = &code[start..i];
        if name.as_bytes()[0].is_ascii_digit() || KEYWORDS.contains(&name) {
            continue;
        }
        // Classify by what precedes the identifier.
        if start >= 1 && bytes[start - 1] == b'.' {
            out.push(CallRef::Method(name.to_string()));
            continue;
        }
        if start >= 2 && &bytes[start - 2..start] == b"::" {
            let mut qstart = start - 2;
            while qstart > 0 && is_ident_char(bytes[qstart - 1] as char) {
                qstart -= 1;
            }
            let qualifier = &code[qstart..start - 2];
            if !qualifier.is_empty() {
                out.push(CallRef::Path(qualifier.to_string(), name.to_string()));
                continue;
            }
            out.push(CallRef::Bare(name.to_string()));
            continue;
        }
        // Skip the declaration itself (`fn name(`) and macro bangs.
        let before = code[..start].trim_end();
        if before.ends_with("fn") || before.ends_with('!') {
            continue;
        }
        out.push(CallRef::Bare(name.to_string()));
    }
    out
}

/// Panic-family macros (matched with the trailing `!`).
const PANIC_MACROS: [&str; 7] = [
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

/// Detects potential panic sites on one line of code. `debug_assert`
/// family macros are compiled out of release binaries and are not
/// counted.
pub fn panics_on_line(code: &str) -> Vec<PanicKind> {
    let mut out = Vec::new();
    if code.contains(".unwrap()") {
        out.push(PanicKind::Unwrap);
    }
    if code.contains(".expect(") {
        out.push(PanicKind::Expect);
    }
    if PANIC_MACROS
        .iter()
        .any(|m| code.contains(m) && !code.contains(&format!("debug_{m}")))
    {
        out.push(PanicKind::Macro);
    }
    // Indexing: `[` whose preceding character ends a value expression.
    // `&[u8]` (types), `#[attr]`, and slice patterns never match.
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'[' && i > 0 {
            let p = bytes[i - 1] as char;
            if is_ident_char(p) || p == ')' || p == ']' {
                // Attribute lines are never value indexing.
                if !code.trim_start().starts_with("#[") {
                    out.push(PanicKind::Indexing);
                    break;
                }
            }
        }
    }
    out
}

/// Builds one file's [`FileFacts`] from its lexed lines and items.
pub fn file_facts(crate_name: &str, rel: &str, lines: &[Line], items: ItemMap) -> FileFacts {
    let mut calls = vec![Vec::new(); items.fns.len()];
    let mut panics = vec![Vec::new(); items.fns.len()];
    for (i, line) in lines.iter().enumerate() {
        let Some(owner) = items.owner.get(i).copied().flatten() else {
            continue;
        };
        calls[owner].extend(calls_on_line(&line.code));
        for kind in panics_on_line(&line.code) {
            // The declaration line of a fn named like a panic pattern
            // cannot panic; body lines can.
            panics[owner].push(PanicSite { line: i, kind });
        }
    }
    FileFacts {
        crate_name: crate_name.to_string(),
        rel: rel.to_string(),
        items,
        calls,
        panics,
    }
}

/// One node of the workspace graph.
#[derive(Debug, Clone, Serialize)]
pub struct FnNode {
    /// Cargo package.
    pub crate_name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
    /// `Type::name` or `name`.
    pub qualified: String,
    /// Externally visible (`pub` without restriction).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Potential panic sites in the body.
    pub panics: Vec<PanicSite>,
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct SymbolGraph {
    /// Every function node, in walk order.
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[i]` are the callees of node `i` (sorted,
    /// deduplicated).
    pub edges: Vec<Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_qualified: BTreeMap<String, Vec<usize>>,
    impl_types: std::collections::BTreeSet<String>,
}

impl SymbolGraph {
    /// Builds the graph from every file's facts.
    pub fn build(files: &[FileFacts]) -> Self {
        let mut graph = SymbolGraph::default();
        // First pass: nodes and name indexes.
        let mut node_of: Vec<Vec<usize>> = Vec::with_capacity(files.len());
        for file in files {
            let mut ids = Vec::with_capacity(file.items.fns.len());
            for (fi, item) in file.items.fns.iter().enumerate() {
                let id = graph.nodes.len();
                ids.push(id);
                graph.nodes.push(FnNode {
                    crate_name: file.crate_name.clone(),
                    file: file.rel.clone(),
                    line: item.line + 1,
                    qualified: item.qualified.clone(),
                    is_pub: item.is_pub,
                    in_test: item.in_test,
                    panics: file.panics[fi].clone(),
                });
                graph.by_name.entry(item.name.clone()).or_default().push(id);
                graph
                    .by_qualified
                    .entry(item.qualified.clone())
                    .or_default()
                    .push(id);
                if let Some(t) = &item.self_type {
                    graph.impl_types.insert(t.clone());
                }
            }
            node_of.push(ids);
        }
        // Second pass: resolve call references to edges.
        graph.edges = vec![Vec::new(); graph.nodes.len()];
        for (file_idx, file) in files.iter().enumerate() {
            for (fi, refs) in file.calls.iter().enumerate() {
                let from = node_of[file_idx][fi];
                for call in refs {
                    for to in graph.resolve(call) {
                        if to != from {
                            graph.edges[from].push(to);
                        }
                    }
                }
            }
        }
        for adj in &mut graph.edges {
            adj.sort_unstable();
            adj.dedup();
        }
        graph
    }

    /// Candidate callees for one call reference.
    pub fn resolve(&self, call: &CallRef) -> Vec<usize> {
        match call {
            CallRef::Bare(name) | CallRef::Method(name) => {
                self.by_name.get(name).cloned().unwrap_or_default()
            }
            CallRef::Path(qualifier, name) => {
                if self.impl_types.contains(qualifier) {
                    self.by_qualified
                        .get(&format!("{qualifier}::{name}"))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    self.by_name.get(name).cloned().unwrap_or_default()
                }
            }
        }
    }

    /// BFS from `roots`: returns, for each node, the predecessor on a
    /// shortest path from some root (roots point to themselves).
    /// Unreachable nodes map to `None`. Cycle-safe.
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if parent[m].is_none() {
                    parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// The shortest root-to-node chain recorded by
    /// [`SymbolGraph::reachable_from`], rendered as
    /// `crate::Type::fn (file:line)` steps.
    pub fn chain_to(&self, parent: &[Option<usize>], node: usize) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = node;
        loop {
            rev.push(cur);
            match parent[cur] {
                Some(p) if p != cur => cur = p,
                _ => break,
            }
        }
        rev.reverse();
        rev.iter()
            .map(|&n| {
                let node = &self.nodes[n];
                format!(
                    "{}::{} ({}:{})",
                    node.crate_name, node.qualified, node.file, node.line
                )
            })
            .collect()
    }

    /// Serializes the graph as pretty JSON for `--emit-graph`.
    pub fn to_json(&self) -> String {
        // The vendored serde derive cannot handle borrowed generic
        // wrappers, so the export struct owns its data.
        #[derive(Serialize)]
        struct Export {
            nodes: Vec<FnNode>,
            edges: Vec<Vec<usize>>,
        }
        serde_json::to_string_pretty(&Export {
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
        })
        .expect("graph is serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::{split_lines, test_mask};

    fn facts(crate_name: &str, rel: &str, src: &str) -> FileFacts {
        let lines = split_lines(src);
        let mask = test_mask(&lines);
        let items = parse_items(&lines, &mask);
        file_facts(crate_name, rel, &lines, items)
    }

    #[test]
    fn call_extraction_classifies_bare_method_and_path() {
        let calls = calls_on_line("let x = helper(a).finish(); Shard::poll(s); f(1)[0];");
        assert!(calls.contains(&CallRef::Bare("helper".into())));
        assert!(calls.contains(&CallRef::Method("finish".into())));
        assert!(calls.contains(&CallRef::Path("Shard".into(), "poll".into())));
        assert!(calls.contains(&CallRef::Bare("f".into())));
        // Declarations, keywords, and macros are not calls.
        assert!(calls_on_line("pub fn helper(a: usize) {").is_empty());
        assert!(calls_on_line("if (a) { panic!(\"\") }").is_empty());
    }

    #[test]
    fn panic_sites_cover_all_kinds_without_type_noise() {
        assert_eq!(panics_on_line("x.unwrap();"), vec![PanicKind::Unwrap]);
        assert_eq!(panics_on_line("x.expect(\"m\");"), vec![PanicKind::Expect]);
        assert_eq!(panics_on_line("panic!(\"m\");"), vec![PanicKind::Macro]);
        assert_eq!(panics_on_line("let y = xs[i];"), vec![PanicKind::Indexing]);
        assert!(panics_on_line("fn f(x: &[u8]) -> [u8; 4] {").is_empty());
        assert!(panics_on_line("#[derive(Debug)]").is_empty());
        assert!(panics_on_line("debug_assert!(ok);").is_empty());
        assert!(panics_on_line("x.unwrap_or(0);").is_empty());
    }

    #[test]
    fn cross_crate_edges_resolve_and_cycles_terminate() {
        let a = facts(
            "crate-a",
            "a/src/lib.rs",
            "pub fn entry() { step(); }\nfn step() { entry(); other_poll(); }\n",
        );
        let b = facts(
            "crate-b",
            "b/src/lib.rs",
            "pub fn other_poll() { danger(); }\nfn danger() { xs[0].unwrap(); }\n",
        );
        let graph = SymbolGraph::build(&[a, b]);
        let entry = graph
            .nodes
            .iter()
            .position(|n| n.qualified == "entry")
            .unwrap();
        let parent = graph.reachable_from(&[entry]);
        let danger = graph
            .nodes
            .iter()
            .position(|n| n.qualified == "danger")
            .unwrap();
        // entry → step → other_poll (cross-crate) → danger, despite the
        // entry↔step cycle.
        assert!(parent[danger].is_some());
        let chain = graph.chain_to(&parent, danger);
        assert_eq!(chain.len(), 4);
        assert!(chain[0].starts_with("crate-a::entry"));
        assert!(chain[3].starts_with("crate-b::danger (b/src/lib.rs:2)"));
        assert_eq!(
            graph.nodes[danger].panics,
            vec![
                PanicSite {
                    line: 1,
                    kind: PanicKind::Unwrap
                },
                PanicSite {
                    line: 1,
                    kind: PanicKind::Indexing
                }
            ]
        );
    }

    #[test]
    fn trait_method_calls_edge_to_every_same_named_impl() {
        let src = "\
struct A;
struct B;
impl A {
    fn poll(&self) {}
}
impl B {
    fn poll(&self) {
        data[0];
    }
}
pub fn drive(x: &dyn Probe) {
    x.poll();
}
";
        let graph = SymbolGraph::build(&[facts("c", "c/src/lib.rs", src)]);
        let drive = graph
            .nodes
            .iter()
            .position(|n| n.qualified == "drive")
            .unwrap();
        // Conservatism: the method call resolves to both impls.
        let callees: Vec<&str> = graph.edges[drive]
            .iter()
            .map(|&n| graph.nodes[n].qualified.as_str())
            .collect();
        assert_eq!(callees, vec!["A::poll", "B::poll"]);
        // Path calls pin to the impl when the type is known.
        let pinned = graph.resolve(&CallRef::Path("B".into(), "poll".into()));
        assert_eq!(pinned.len(), 1);
        assert_eq!(graph.nodes[pinned[0]].qualified, "B::poll");
    }

    #[test]
    fn graph_json_export_carries_nodes_and_edges() {
        let graph = SymbolGraph::build(&[facts(
            "c",
            "c/src/lib.rs",
            "pub fn a() { b(); }\nfn b() {}\n",
        )]);
        let json = graph.to_json();
        assert!(json.contains("\"qualified\": \"a\""));
        assert!(json.contains("\"qualified\": \"b\""));
        assert!(json.contains("\"edges\""));
        // a (node 0) calls b (node 1): the adjacency list shows it.
        assert_eq!(json.matches("\"crate_name\"").count(), 2);
    }
}
