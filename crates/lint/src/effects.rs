//! Interprocedural effect inference over the workspace call graph.
//!
//! Every function gets an [`EffectSet`] summary — which of the five
//! effects it may exercise, directly or through any callee:
//!
//! - `wall-clock`: reads real time (`Instant::now`, `SystemTime::now`,
//!   `.elapsed()`, a `thread::sleep` — a wall-clock sleep *waits on* wall
//!   time, which is exactly what the DES refactor's virtual time replaces);
//! - `blocks`: parks the calling OS thread (condvar waits, blocking
//!   channel `recv`, `JoinHandle::join`, sleeps);
//! - `spawns`: creates an OS thread (std or loom, free or scoped);
//! - `non-det`: nondeterminism sources — RNG draws and iteration over
//!   unordered hash containers feeding the function's logic;
//! - `panics`: contains a potential panic site (tracked in the lattice
//!   for completeness; site-level reporting stays with `panic-reach`).
//!
//! Summaries are computed bottom-up over the condensation of the call
//! graph (iterative Tarjan SCCs, emitted callees-first), so a single pass
//! reaches the least fixpoint: effects are a join-semilattice and
//! propagation is union-only, hence monotone — properties the
//! `effects_props` suite checks against a naive worklist oracle.
//!
//! Sites that are *legitimately* effectful carry a sanction pragma on the
//! line or up to three lines above:
//!
//! ```text
//! // lint: sanction(wall-clock, blocks): modeled transfer time; the DES
//! // scheduler replaces this with virtual time.
//! ```
//!
//! A sanction clears the named bits for rule purposes but the site still
//! appears in the effects inventory, flagged `sanctioned` with its
//! justification — the inventory *is* the DES-migration checklist.
//!
//! Three rules ride on the summaries: `rank-path-effects` (no wall-clock,
//! nondeterminism, or spawning reachable from a rank entry point),
//! `blocking-in-governor` (no blocking inside bandwidth-governor
//! reservation math or telemetry export callbacks), and `effect-drift`
//! (any unsanctioned effect site reachable from a rank entry that is not
//! in the committed `effects-inventory.json` fails the scan). Every
//! diagnostic carries a witness call chain — the shortest path from the
//! entry point to the effectful site.

use std::collections::{HashMap, HashSet, VecDeque};

use telemetry::Json;

use crate::callgraph::{CallGraph, FnId, GraphOpts, Workspace};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::parser::{CallKind, FnItem, ParsedFile};
use crate::rules::{GOVERNOR_FNS, RANK_ENTRY_FNS};

/// A set of effects, as a bitset join-semilattice (union is join).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub struct EffectSet(pub u8);

impl EffectSet {
    pub const EMPTY: EffectSet = EffectSet(0);
    pub const WALL_CLOCK: EffectSet = EffectSet(1 << 0);
    pub const BLOCKS: EffectSet = EffectSet(1 << 1);
    pub const SPAWNS: EffectSet = EffectSet(1 << 2);
    pub const NON_DET: EffectSet = EffectSet(1 << 3);
    pub const PANICS: EffectSet = EffectSet(1 << 4);
    /// The effects the DES migration must eliminate or sanction; `panics`
    /// is excluded — `panic-reach` owns site-level panic reporting.
    pub const MIGRATION: EffectSet =
        EffectSet(Self::WALL_CLOCK.0 | Self::BLOCKS.0 | Self::SPAWNS.0 | Self::NON_DET.0);

    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    pub fn intersect(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 & other.0)
    }

    pub fn minus(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 & !other.0)
    }

    pub fn contains(self, other: EffectSet) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Stable names of the set bits, in display order.
    pub fn names(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (bit, name) in [
            (Self::WALL_CLOCK, "wall-clock"),
            (Self::BLOCKS, "blocks"),
            (Self::SPAWNS, "spawns"),
            (Self::NON_DET, "non-det"),
            (Self::PANICS, "panics"),
        ] {
            if self.contains(bit) {
                out.push(name);
            }
        }
        out
    }

    /// Parse one effect name as written in a sanction pragma.
    pub fn from_name(name: &str) -> Option<EffectSet> {
        match name {
            "wall-clock" => Some(Self::WALL_CLOCK),
            "blocks" => Some(Self::BLOCKS),
            "spawns" => Some(Self::SPAWNS),
            "non-det" => Some(Self::NON_DET),
            "panics" => Some(Self::PANICS),
            _ => None,
        }
    }
}

/// One directly effectful call site inside a function body.
#[derive(Clone, Debug)]
pub struct EffectSite {
    /// Raw effects of the intrinsic at this site.
    pub effects: EffectSet,
    /// Bits cleared by a sanction pragma covering this site.
    pub sanctioned: EffectSet,
    /// The sanction justification (`""` when unsanctioned).
    pub justification: String,
    /// What the site is, e.g. `std::thread::sleep` or `.wait_for()`.
    pub what: String,
    pub line: u32,
}

impl EffectSite {
    /// Effects the site still carries after sanctions.
    pub fn unsanctioned(&self) -> EffectSet {
        self.effects.minus(self.sanctioned)
    }
}

/// Path-call intrinsics, matched as a suffix of the call's segments.
const PATH_INTRINSICS: &[(&[&str], EffectSet)] = &[
    (&["Instant", "now"], EffectSet::WALL_CLOCK),
    (&["SystemTime", "now"], EffectSet::WALL_CLOCK),
    (
        &["thread", "sleep"],
        EffectSet(EffectSet::WALL_CLOCK.0 | EffectSet::BLOCKS.0),
    ),
    (&["thread", "spawn"], EffectSet::SPAWNS),
    (&["thread", "scope"], EffectSet::SPAWNS),
    (&["thread", "park"], EffectSet::BLOCKS),
    (
        &["thread", "park_timeout"],
        EffectSet(EffectSet::WALL_CLOCK.0 | EffectSet::BLOCKS.0),
    ),
];

/// Method names that read the wall clock.
const METHOD_WALL_CLOCK: &[&str] = &["elapsed", "duration_since"];

/// Method names that block the calling thread regardless of arity
/// (condvar family, timed channel receive).
const METHOD_BLOCKS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
    "recv_timeout",
];

/// Method names that block only as zero-argument calls — `recv("x")` is a
/// lookup and `parts.join(", ")` is string concatenation, but `rx.recv()`
/// and `handle.join()` park the thread.
const METHOD_BLOCKS_ZERO_ARG: &[&str] = &["recv", "join", "park"];

/// Method names that spawn a thread (`Builder::spawn`, `Scope::spawn`).
const METHOD_SPAWNS: &[&str] = &["spawn"];

/// RNG draw method names (the workspace RNG plus the usual rand idioms).
const METHOD_NON_DET: &[&str] = &[
    "next_u32",
    "next_u64",
    "fill_bytes",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "choose",
    "shuffle",
];

/// Iteration methods that surface unordered-container order.
const ITER_METHODS: &[&str] = &["iter", "keys", "values", "drain", "into_iter"];

/// The condensation of a call graph: SCCs in *reverse topological* order
/// (every callee SCC is emitted before any of its callers), which is the
/// processing order for the bottom-up fixpoint.
pub struct Condensation {
    pub sccs: Vec<Vec<FnId>>,
    pub comp_of: HashMap<FnId, usize>,
}

/// Iterative Tarjan over the call graph (recursion would overflow on
/// splice-generated pathological chains).
pub fn condense(graph: &CallGraph) -> Condensation {
    let mut nodes: Vec<FnId> = graph.edges.keys().copied().collect();
    for callees in graph.edges.values() {
        nodes.extend(callees.iter().copied());
    }
    nodes.sort_unstable();
    nodes.dedup();

    let mut index: HashMap<FnId, usize> = HashMap::new();
    let mut low: HashMap<FnId, usize> = HashMap::new();
    let mut on_stack: HashSet<FnId> = HashSet::new();
    let mut stack: Vec<FnId> = Vec::new();
    let mut sccs: Vec<Vec<FnId>> = Vec::new();
    let mut next = 0usize;
    let empty: Vec<FnId> = Vec::new();

    for &start in &nodes {
        if index.contains_key(&start) {
            continue;
        }
        index.insert(start, next);
        low.insert(start, next);
        next += 1;
        stack.push(start);
        on_stack.insert(start);
        let mut frames: Vec<(FnId, usize)> = vec![(start, 0)];
        while let Some(&(v, cursor)) = frames.last() {
            let succs = graph.edges.get(&v).unwrap_or(&empty);
            if cursor < succs.len() {
                frames.last_mut().expect("frame present").1 += 1;
                let w = succs[cursor];
                if let std::collections::hash_map::Entry::Vacant(slot) = index.entry(w) {
                    slot.insert(next);
                    low.insert(w, next);
                    next += 1;
                    stack.push(w);
                    on_stack.insert(w);
                    frames.push((w, 0));
                } else if on_stack.contains(&w) {
                    let lw = index[&w];
                    let lv = low.get_mut(&v).expect("visited");
                    *lv = (*lv).min(lw);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    let lv = low[&v];
                    let lp = low.get_mut(&p).expect("visited");
                    *lp = (*lp).min(lv);
                }
                if low[&v] == index[&v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack.remove(&w);
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }

    let mut comp_of = HashMap::new();
    for (i, comp) in sccs.iter().enumerate() {
        for &f in comp {
            comp_of.insert(f, i);
        }
    }
    Condensation { sccs, comp_of }
}

/// A sanction pragma parsed from a comment.
struct Sanction {
    line: u32,
    effects: EffectSet,
    justification: String,
}

/// How many lines above a site a sanction pragma still covers it. Wide
/// enough for a multi-line justification comment between the pragma line
/// and the site it covers.
const SANCTION_WINDOW: u32 = 5;

fn parse_sanctions(file: &ParsedFile, malformed: &mut Vec<(String, u32, String)>) -> Vec<Sanction> {
    let mut out = Vec::new();
    for t in &file.lexed.toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let text = &file.lexed.src[t.start..t.end];
        let Some(pos) = text.find("lint: sanction(") else {
            continue;
        };
        let rest = &text[pos + "lint: sanction(".len()..];
        let Some(close) = rest.find(')') else {
            malformed.push((file.rel.clone(), t.line, "unclosed effect list".into()));
            continue;
        };
        let mut effects = EffectSet::EMPTY;
        let mut bad_name = None;
        for name in rest[..close].split(',') {
            let name = name.trim();
            match EffectSet::from_name(name) {
                Some(e) => effects = effects.union(e),
                None => bad_name = Some(name.to_owned()),
            }
        }
        if let Some(name) = bad_name {
            malformed.push((
                file.rel.clone(),
                t.line,
                format!(
                    "unknown effect `{name}` (expected wall-clock/blocks/spawns/non-det/panics)"
                ),
            ));
            continue;
        }
        let justification = rest[close + 1..]
            .trim_start_matches(':')
            .trim()
            .trim_end_matches("*/")
            .trim()
            .to_owned();
        if justification.is_empty() {
            malformed.push((
                file.rel.clone(),
                t.line,
                "sanction without a justification after the effect list".into(),
            ));
            continue;
        }
        out.push(Sanction {
            line: t.line,
            effects,
            justification,
        });
    }
    out
}

/// Sanctions covering `line`: within the window above it, but never from
/// before `floor` (the function's declaration line) — a pragma cannot
/// bleed across a function boundary however close the functions sit.
fn sanction_for(sanctions: &[Sanction], line: u32, floor: u32) -> (EffectSet, String) {
    let mut set = EffectSet::EMPTY;
    let mut just = String::new();
    for s in sanctions {
        if s.line >= floor && s.line <= line && line - s.line <= SANCTION_WINDOW {
            set = set.union(s.effects);
            if just.is_empty() {
                just = s.justification.clone();
            }
        }
    }
    (set, just)
}

/// Does the method call at `si` have an empty argument list?
fn zero_arg(file: &ParsedFile, si: usize) -> bool {
    si + 2 < file.sig.len() && file.text(si + 1) == "(" && file.text(si + 2) == ")"
}

/// Collect the direct effect sites of one function.
fn fn_sites(file: &ParsedFile, f: &FnItem, sanctions: &[Sanction]) -> Vec<EffectSite> {
    let mut out = Vec::new();
    let mut push = |effects: EffectSet, what: String, line: u32| {
        let (sanctioned, justification) = sanction_for(sanctions, line, f.line);
        out.push(EffectSite {
            effects,
            sanctioned: effects.intersect(sanctioned),
            justification,
            what,
            line,
        });
    };

    // Idents `let`-bound to hash-container constructors: iteration over
    // them is the non-det heuristic's target. Restricting to let-bound
    // receivers keeps field iteration (often sorted afterwards) out.
    let mut hash_bound: HashSet<String> = HashSet::new();
    for l in &f.lets {
        if let crate::parser::LetPat::Ident(name) = &l.pat {
            let mentions_hash = (l.init.0..l.init.1.min(file.sig.len()))
                .any(|k| matches!(file.text(k), "HashMap" | "HashSet"));
            if mentions_hash {
                hash_bound.insert(name.clone());
            }
        }
    }

    for c in &f.calls {
        match c.kind {
            CallKind::Path => {
                for (suffix, effects) in PATH_INTRINSICS {
                    if c.segs.len() >= suffix.len()
                        && c.segs[c.segs.len() - suffix.len()..]
                            .iter()
                            .zip(suffix.iter())
                            .all(|(a, b)| a == b)
                    {
                        push(*effects, c.segs.join("::"), c.line);
                        break;
                    }
                }
            }
            CallKind::Method => {
                let name = c.name();
                let mut effects = EffectSet::EMPTY;
                if METHOD_WALL_CLOCK.contains(&name) {
                    effects = effects.union(EffectSet::WALL_CLOCK);
                }
                if METHOD_BLOCKS.contains(&name)
                    || (METHOD_BLOCKS_ZERO_ARG.contains(&name) && zero_arg(file, c.si))
                {
                    effects = effects.union(EffectSet::BLOCKS);
                }
                if METHOD_SPAWNS.contains(&name) {
                    effects = effects.union(EffectSet::SPAWNS);
                }
                if METHOD_NON_DET.contains(&name) {
                    effects = effects.union(EffectSet::NON_DET);
                }
                if ITER_METHODS.contains(&name)
                    && c.si >= 2
                    && file.text(c.si - 1) == "."
                    && file.tok(c.si - 2).kind == TokKind::Ident
                    && hash_bound.contains(file.text(c.si - 2))
                {
                    push(
                        EffectSet::NON_DET,
                        format!("iteration over unordered `{}`", file.text(c.si - 2)),
                        c.line,
                    );
                    continue;
                }
                if !effects.is_empty() {
                    push(effects, format!(".{name}()"), c.line);
                }
            }
            CallKind::Free | CallKind::Macro => {}
        }
    }
    out
}

/// One entry of the effects inventory: an effect site reachable from a
/// rank entry point, with its witness chain.
#[derive(Clone, Debug)]
pub struct InventoryEntry {
    /// Line-independent key: `effects @ file # function : what`.
    pub key: String,
    pub file: String,
    pub line: u32,
    pub func: String,
    pub what: String,
    pub effects: EffectSet,
    pub sanctioned: EffectSet,
    pub justification: String,
    /// Qualified names along the shortest entry → site path.
    pub witness: Vec<String>,
}

impl InventoryEntry {
    pub fn is_sanctioned(&self) -> bool {
        self.effects
            .intersect(EffectSet::MIGRATION)
            .minus(self.sanctioned)
            .is_empty()
    }
}

/// The full interprocedural effect analysis of one workspace.
pub struct EffectAnalysis {
    /// Per-function *unsanctioned* effect summaries (local ∪ callees).
    pub summaries: HashMap<FnId, EffectSet>,
    /// Per-function direct (local) unsanctioned effects, panics included.
    pub local: HashMap<FnId, EffectSet>,
    /// Per-function direct effect sites (sanctioned ones included).
    pub sites: HashMap<FnId, Vec<EffectSite>>,
    /// The call graph the fixpoint ran over.
    pub graph: CallGraph,
    pub cond: Condensation,
    /// Malformed sanction pragmas: (file, line, reason).
    pub malformed: Vec<(String, u32, String)>,
}

impl EffectAnalysis {
    /// Run the analysis (and build the workspace call graph it and the
    /// reachability rules share).
    pub fn run(ws: &Workspace, opts: GraphOpts) -> EffectAnalysis {
        let graph = CallGraph::build(ws, opts);
        let mut malformed = Vec::new();
        let mut sites: HashMap<FnId, Vec<EffectSite>> = HashMap::new();
        let mut local: HashMap<FnId, EffectSet> = HashMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            if file.file_is_test {
                continue;
            }
            let sanctions = parse_sanctions(file, &mut malformed);
            for (gi, f) in file.fns.iter().enumerate() {
                if f.is_test || (f.mutant_gated && !opts.include_mutants) {
                    continue;
                }
                let fs = fn_sites(file, f, &sanctions);
                let mut eff = fs
                    .iter()
                    .fold(EffectSet::EMPTY, |acc, s| acc.union(s.unsanctioned()));
                if !f.panics.is_empty() {
                    eff = eff.union(EffectSet::PANICS);
                }
                local.insert((fi, gi), eff);
                if !fs.is_empty() {
                    sites.insert((fi, gi), fs);
                }
            }
        }

        let cond = condense(&graph);
        // Bottom-up over the condensation: SCCs arrive callees-first, so
        // one pass per SCC reaches the least fixpoint (union is monotone
        // and all members of an SCC share one summary).
        let mut summaries: HashMap<FnId, EffectSet> = HashMap::new();
        for comp in &cond.sccs {
            let mut eff = EffectSet::EMPTY;
            for &f in comp {
                eff = eff.union(local.get(&f).copied().unwrap_or_default());
                for callee in graph.edges.get(&f).into_iter().flatten() {
                    if let Some(&s) = summaries.get(callee) {
                        eff = eff.union(s);
                    }
                }
            }
            for &f in comp {
                summaries.insert(f, eff);
            }
        }

        EffectAnalysis {
            summaries,
            local,
            sites,
            graph,
            cond,
            malformed,
        }
    }

    /// BFS parent forest from `entries`, for shortest witness chains.
    fn parents(&self, entries: &[FnId]) -> HashMap<FnId, Option<FnId>> {
        let mut parent: HashMap<FnId, Option<FnId>> = HashMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &e in entries {
            if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(e) {
                slot.insert(None);
                queue.push_back(e);
            }
        }
        while let Some(v) = queue.pop_front() {
            for &w in self.graph.edges.get(&v).into_iter().flatten() {
                if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(w) {
                    slot.insert(Some(v));
                    queue.push_back(w);
                }
            }
        }
        parent
    }

    /// Reconstruct the entry → target chain of qualified names.
    fn chain(ws: &Workspace, parent: &HashMap<FnId, Option<FnId>>, target: FnId) -> Vec<String> {
        let mut path = vec![target];
        let mut at = target;
        while let Some(Some(p)) = parent.get(&at) {
            path.push(*p);
            at = *p;
        }
        path.reverse();
        path.iter().map(|&f| ws.fn_item(f).qual()).collect()
    }

    /// Every migration-effect site reachable from the rank entry points,
    /// with witness chains — the DES-migration checklist.
    pub fn inventory(&self, ws: &Workspace, opts: GraphOpts) -> Vec<InventoryEntry> {
        let entries = collect_entries(ws, RANK_ENTRY_FNS, opts);
        let parent = self.parents(&entries);
        let mut out = Vec::new();
        for (&id, sites) in &self.sites {
            if !parent.contains_key(&id) {
                continue;
            }
            let file = ws.file(id);
            let func = ws.fn_item(id).qual();
            let witness = Self::chain(ws, &parent, id);
            for s in sites {
                let migration = s.effects.intersect(EffectSet::MIGRATION);
                if migration.is_empty() {
                    continue;
                }
                let key = format!(
                    "{} @ {} # {} : {}",
                    migration.names().join("+"),
                    file.rel,
                    func,
                    s.what
                );
                out.push(InventoryEntry {
                    key,
                    file: file.rel.clone(),
                    line: s.line,
                    func: func.clone(),
                    what: s.what.clone(),
                    effects: migration,
                    sanctioned: s.sanctioned,
                    justification: s.justification.clone(),
                    witness: witness.clone(),
                });
            }
        }
        out.sort_by(|a, b| (&a.key, a.line).cmp(&(&b.key, b.line)));
        out.dedup_by(|a, b| a.key == b.key && a.line == b.line);
        out
    }
}

/// Resolve an entry-point table (`(crate, patterns)`; a pattern with `::`
/// matches the qualified name exactly, a bare name matches only free
/// functions) against the workspace.
pub fn collect_entries(ws: &Workspace, table: &[(&str, &[&str])], opts: GraphOpts) -> Vec<FnId> {
    let mut out = Vec::new();
    for (id, f) in ws.fns() {
        if f.is_test || (f.mutant_gated && !opts.include_mutants) {
            continue;
        }
        let file = ws.file(id);
        if file.file_is_test {
            continue;
        }
        let Some((_, pats)) = table
            .iter()
            .find(|(krate, _)| *krate == file.crate_name.as_str())
        else {
            continue;
        };
        let qual = f.qual();
        if pats.iter().any(|p| {
            if p.contains("::") {
                qual == *p
            } else {
                f.impl_type.is_none() && f.name == *p
            }
        }) {
            out.push(id);
        }
    }
    out.sort_unstable();
    out
}

/// Shared body of the two reachability rules.
fn check_reachable(
    ws: &Workspace,
    fx: &EffectAnalysis,
    opts: GraphOpts,
    rule: &'static str,
    table: &[(&str, &[&str])],
    forbidden: EffectSet,
    context: &str,
) -> Vec<Diagnostic> {
    let entries = collect_entries(ws, table, opts);
    let parent = fx.parents(&entries);
    let mut out = Vec::new();
    for (&id, sites) in &fx.sites {
        if !parent.contains_key(&id) {
            continue;
        }
        let file = ws.file(id);
        let func = ws.fn_item(id).qual();
        for s in sites {
            let bad = s.unsanctioned().intersect(forbidden);
            if bad.is_empty() {
                continue;
            }
            let witness = EffectAnalysis::chain(ws, &parent, id);
            out.push(Diagnostic {
                rule,
                file: file.rel.clone(),
                line: s.line,
                func: func.clone(),
                msg: format!(
                    "{} effect ({}) reachable from {}; witness: {}; \
                     fix the site or sanction it with `// lint: sanction({}): <why>`",
                    bad.names().join("+"),
                    s.what,
                    context,
                    witness.join(" -> "),
                    bad.names().join(", "),
                ),
            });
        }
    }
    out
}

/// `rank-path-effects`: nothing a simulated rank executes may read the
/// wall clock, draw nondeterminism, or spawn OS threads — those are the
/// three things the deterministic event scheduler must own. Plain
/// blocking (mailbox condvar waits) is allowed: it becomes a yield point.
pub fn check_rank_path(ws: &Workspace, fx: &EffectAnalysis, opts: GraphOpts) -> Vec<Diagnostic> {
    check_reachable(
        ws,
        fx,
        opts,
        "rank-path-effects",
        RANK_ENTRY_FNS,
        EffectSet::WALL_CLOCK
            .union(EffectSet::NON_DET)
            .union(EffectSet::SPAWNS),
        "a rank entry point",
    )
}

/// `blocking-in-governor`: bandwidth-governor reservation math and
/// telemetry export callbacks run under locks and on hot paths — they
/// must compute, never park the thread.
pub fn check_governor(ws: &Workspace, fx: &EffectAnalysis, opts: GraphOpts) -> Vec<Diagnostic> {
    check_reachable(
        ws,
        fx,
        opts,
        "blocking-in-governor",
        GOVERNOR_FNS,
        EffectSet::BLOCKS,
        "a governor/exporter callback",
    )
}

/// `effect-drift`: every *unsanctioned* migration-effect site reachable
/// from a rank entry must already be in the committed
/// `effects-inventory.json`; a new one fails CI until it is either fixed
/// or sanctioned. Malformed sanction pragmas are reported here too.
pub fn check_drift(ws: &Workspace, fx: &EffectAnalysis, opts: GraphOpts) -> Vec<Diagnostic> {
    let committed: HashSet<String> = ws
        .root
        .as_ref()
        .and_then(|root| std::fs::read_to_string(root.join("effects-inventory.json")).ok())
        .map(|text| snapshot_keys(&text))
        .unwrap_or_default();
    let mut out = Vec::new();
    for e in fx.inventory(ws, opts) {
        if e.is_sanctioned() || committed.contains(&e.key) {
            continue;
        }
        out.push(Diagnostic {
            rule: "effect-drift",
            file: e.file.clone(),
            line: e.line,
            func: e.func.clone(),
            msg: format!(
                "new unsanctioned effect site ({}: {}) not in committed effects-inventory.json; \
                 witness: {}; sanction it or regenerate the snapshot with `--effects`",
                e.effects.names().join("+"),
                e.what,
                e.witness.join(" -> "),
            ),
        });
    }
    for (file, line, reason) in &fx.malformed {
        out.push(Diagnostic {
            rule: "effect-drift",
            file: file.clone(),
            line: *line,
            func: String::new(),
            msg: format!("malformed sanction pragma: {reason}"),
        });
    }
    out
}

/// Entry keys of a rendered inventory snapshot; empty when `text` is not
/// one (every unsanctioned site then reports as new).
pub fn snapshot_keys(text: &str) -> HashSet<String> {
    let Ok(doc) = Json::parse(text) else {
        return HashSet::new();
    };
    let entries = doc.get("entries").and_then(Json::as_array);
    entries
        .unwrap_or_default()
        .iter()
        .filter_map(|e| Some(e.get("key")?.as_str()?.to_owned()))
        .collect()
}

/// Render the inventory as JSON (the `--effects` artifact and the
/// committed snapshot share this format).
pub fn render_inventory(entries: &[InventoryEntry]) -> String {
    let rendered = entries.iter().map(|e| {
        Json::obj([
            ("key", Json::from(e.key.as_str())),
            ("file", Json::from(e.file.as_str())),
            ("line", Json::from(e.line)),
            ("function", Json::from(e.func.as_str())),
            (
                "effects",
                Json::arr(e.effects.names().into_iter().map(Json::from)),
            ),
            ("sanctioned", Json::from(e.is_sanctioned())),
            ("justification", Json::from(e.justification.as_str())),
            (
                "witness",
                Json::arr(e.witness.iter().map(|w| Json::from(w.as_str()))),
            ),
        ])
    });
    let unsanctioned = entries.iter().filter(|e| !e.is_sanctioned()).count();
    let doc = Json::obj([
        ("entries", Json::arr(rendered)),
        ("total", Json::from(entries.len())),
        ("unsanctioned", Json::from(unsanctioned)),
    ]);
    doc.to_json_pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::ParsedFile;

    fn ws(files: &[(&str, &str, &str)]) -> Workspace {
        Workspace {
            root: None,
            files: files
                .iter()
                .map(|(rel, krate, src)| ParsedFile::parse(rel, krate, src, false))
                .collect(),
        }
    }

    fn id_of(ws: &Workspace, name: &str) -> FnId {
        ws.fns()
            .find(|(_, f)| f.name == name)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no fn named {name}"))
    }

    #[test]
    fn effects_propagate_through_calls() {
        let w = ws(&[(
            "crates/simmpi/src/lib.rs",
            "simmpi",
            "pub fn outer() { middle(); }\n\
             fn middle() { leaf(); }\n\
             fn leaf() { let _t = std::time::Instant::now(); }\n",
        )]);
        let fx = EffectAnalysis::run(&w, GraphOpts::default());
        for name in ["outer", "middle", "leaf"] {
            let s = fx.summaries[&id_of(&w, name)];
            assert!(s.contains(EffectSet::WALL_CLOCK), "{name}: {s:?}");
        }
    }

    #[test]
    fn sleep_is_wall_clock_and_blocking() {
        let w = ws(&[(
            "crates/cluster/src/lib.rs",
            "cluster",
            "pub fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
        )]);
        let fx = EffectAnalysis::run(&w, GraphOpts::default());
        let s = fx.summaries[&id_of(&w, "nap")];
        assert!(s.contains(EffectSet::WALL_CLOCK.union(EffectSet::BLOCKS)));
    }

    #[test]
    fn zero_arg_heuristic_separates_joins() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub fn strings(v: &[String]) -> String { v.join(\", \") }\n\
             pub fn threads(h: std::thread::JoinHandle<()>) { h.join().ok(); }\n",
        )]);
        let fx = EffectAnalysis::run(&w, GraphOpts::default());
        assert!(fx.summaries[&id_of(&w, "strings")].is_empty());
        assert!(fx.summaries[&id_of(&w, "threads")].contains(EffectSet::BLOCKS));
    }

    #[test]
    fn sanction_clears_named_bits_and_requires_justification() {
        let w = ws(&[(
            "crates/cluster/src/lib.rs",
            "cluster",
            "pub fn modeled() {\n\
             // lint: sanction(wall-clock, blocks): modeled time, DES replaces it\n\
             std::thread::sleep(std::time::Duration::from_millis(1));\n\
             }\n\
             pub fn naked() {\n\
             // lint: sanction(wall-clock):\n\
             let _t = std::time::Instant::now();\n\
             }\n",
        )]);
        let fx = EffectAnalysis::run(&w, GraphOpts::default());
        assert!(fx.summaries[&id_of(&w, "modeled")].is_empty());
        // The empty justification is rejected: the pragma is malformed and
        // the site keeps its effect.
        assert!(fx.summaries[&id_of(&w, "naked")].contains(EffectSet::WALL_CLOCK));
        assert_eq!(fx.malformed.len(), 1);
    }

    #[test]
    fn recursive_scc_reaches_fixpoint() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub fn ping(n: u32) { if n > 0 { pong(n - 1); } }\n\
             fn pong(n: u32) { std::thread::sleep(std::time::Duration::ZERO); ping(n); }\n",
        )]);
        let fx = EffectAnalysis::run(&w, GraphOpts::default());
        let ping = id_of(&w, "ping");
        let pong = id_of(&w, "pong");
        assert_eq!(fx.summaries[&ping], fx.summaries[&pong]);
        assert!(fx.summaries[&ping].contains(EffectSet::BLOCKS));
        assert_eq!(fx.cond.comp_of[&ping], fx.cond.comp_of[&pong]);
    }

    #[test]
    fn inventory_carries_witness_chain() {
        let w = ws(&[(
            "crates/simmpi/src/router.rs",
            "simmpi",
            "pub struct Router;\n\
             impl Router {\n\
             pub fn recv(&self) { self.backoff(); }\n\
             fn backoff(&self) { let _t = std::time::Instant::now(); }\n\
             }\n",
        )]);
        let fx = EffectAnalysis::run(&w, GraphOpts::default());
        let inv = fx.inventory(&w, GraphOpts::default());
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].witness, vec!["Router::recv", "Router::backoff"]);
        assert!(inv[0].key.contains("wall-clock @"));
        assert!(!inv[0].is_sanctioned());
        let rendered = render_inventory(&inv);
        let keys = snapshot_keys(&rendered);
        assert!(keys.contains(&inv[0].key), "snapshot round-trips keys");
    }

    #[test]
    fn hash_iteration_is_non_det() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub fn order(v: &[u64]) -> u64 {\n\
             let seen = std::collections::HashSet::from([1u64]);\n\
             let mut acc = 0;\n\
             for k in seen.iter() { acc += k; }\n\
             acc + v.len() as u64\n\
             }\n\
             pub fn sorted_field(v: &[u64]) -> Vec<u64> { let mut s = v.to_vec(); s.sort(); s }\n",
        )]);
        let fx = EffectAnalysis::run(&w, GraphOpts::default());
        assert!(fx.summaries[&id_of(&w, "order")].contains(EffectSet::NON_DET));
        assert!(fx.summaries[&id_of(&w, "sorted_field")].is_empty());
    }
}
