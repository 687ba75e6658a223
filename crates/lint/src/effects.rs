//! The call-graph query behind every reachability rule: *is a site of
//! kind K reachable from root set R?*
//!
//! Each live function body is scanned once into a table of
//! [`EffectSite`]s, one per directly effectful expression:
//!
//! - `wall-clock`: reads real time (`Instant::now`, `SystemTime::now`,
//!   `.elapsed()`, a `thread::sleep` — a wall-clock sleep *waits on* wall
//!   time, which is exactly what the DES scheduler's virtual time replaces);
//! - `blocks`: parks the calling OS thread (condvar waits, blocking
//!   channel `recv`, `JoinHandle::join`, sleeps);
//! - `spawns`: creates an OS thread (std or loom, free or scoped);
//! - `non-det`: nondeterminism sources — RNG draws and iteration over
//!   unordered hash containers feeding the function's logic;
//! - `panics`: the parser's panic sites (`panic!`-family macros,
//!   `.unwrap()`, `.expect(…)`, non-range indexing).
//!
//! A rule is a row of [`QUERIES`]: a root set, the kinds it forbids, and
//! the crates it reports in. One breadth-first traversal
//! ([`CallGraph::reach`]) answers every row, and its parent forest gives
//! each diagnostic a witness call chain — the shortest path from a root to
//! the function holding the site.
//!
//! Sites of the first four kinds that are *legitimately* effectful carry
//! a sanction pragma on the line or up to five lines above:
//!
//! ```text
//! // lint: sanction(wall-clock, blocks): modeled transfer time; the DES
//! // scheduler replaces this with virtual time.
//! ```
//!
//! A sanction clears the named kinds for rule purposes but the site still
//! appears in the effects inventory (`--effects`), flagged `sanctioned`
//! with its justification. Panic sites cannot be sanctioned: there is no
//! exception path for them, so a reachable one is fixed.

use std::collections::{HashMap, HashSet};

use telemetry::Json;

use crate::callgraph::{CallGraph, FnId, GraphOpts, Workspace};
use crate::cfg;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::parser::{CallKind, FnItem, LetPat, PanicKind, ParsedFile};
use crate::rules::{
    EntryTable, GOVERNOR_FNS, PANIC_SITE_CRATES, RANK_ENTRY_FNS, RECOVERY_ENTRY_FNS,
};

/// A set of site kinds, as a bitset.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub struct EffectSet(pub u8);

impl EffectSet {
    pub const EMPTY: EffectSet = EffectSet(0);
    pub const WALL_CLOCK: EffectSet = EffectSet(1 << 0);
    pub const BLOCKS: EffectSet = EffectSet(1 << 1);
    pub const SPAWNS: EffectSet = EffectSet(1 << 2);
    pub const NON_DET: EffectSet = EffectSet(1 << 3);
    pub const PANICS: EffectSet = EffectSet(1 << 4);
    /// The kinds a deterministic rank path must be free of or sanction,
    /// and the ones the effects inventory lists. Only these have a pragma
    /// word.
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

    /// Every kind with its stable name, in display order.
    const KINDS: [(EffectSet, &'static str); 5] = [
        (Self::WALL_CLOCK, "wall-clock"),
        (Self::BLOCKS, "blocks"),
        (Self::SPAWNS, "spawns"),
        (Self::NON_DET, "non-det"),
        (Self::PANICS, "panics"),
    ];

    /// Names of the set bits.
    pub fn names(self) -> Vec<&'static str> {
        let set = Self::KINDS.iter().filter(|(bit, _)| self.contains(*bit));
        set.map(|(_, name)| *name).collect()
    }

    /// Parse one effect name as written in a sanction pragma: the
    /// [`Self::MIGRATION`] kinds only — panic sites are not sanctionable.
    pub fn from_name(name: &str) -> Option<EffectSet> {
        let mut words = Self::KINDS.iter();
        let word = words.find(|(bit, n)| *n == name && Self::MIGRATION.contains(*bit));
        word.map(|(bit, _)| *bit)
    }
}

/// One directly effectful site inside a function body.
#[derive(Clone, Debug)]
pub struct EffectSite {
    /// Kinds of the intrinsic at this site.
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
                format!("unknown effect `{name}` (expected wall-clock/blocks/spawns/non-det)"),
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
        if let LetPat::Ident(name) = &l.pat {
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
                    || (METHOD_BLOCKS_ZERO_ARG.contains(&name) && cfg::call_arity(file, c) == 0)
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
    for p in &f.panics {
        let what = match &p.kind {
            PanicKind::Macro(m) => format!("{m}!"),
            PanicKind::Unwrap => ".unwrap()".into(),
            PanicKind::Expect => ".expect(…)".into(),
            PanicKind::Index => "[…]-indexing".into(),
        };
        push(EffectSet::PANICS, what, p.line);
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

/// One reachability rule: no unsanctioned site of a `forbidden` kind in a
/// function reachable from the entry table `roots` (resolved by
/// [`collect_entries`]).
pub struct Query {
    pub rule: &'static str,
    pub roots: EntryTable,
    pub forbidden: EffectSet,
    /// Crates whose sites are reported (`None`: all). The traversal itself
    /// follows calls anywhere, vendored shims included.
    pub report_in: Option<&'static [&'static str]>,
    /// Completes "reachable from …".
    pub from: &'static str,
    pub fix: &'static str,
}

/// Reservation math and export callbacks that park the thread.
pub const RULE_BLOCKING: &str = "blocking-context";

const SANCTION_FIX: &str = "fix the site or sanction it with `// lint: sanction(<effect>): <why>`";

/// The reachability rules.
///
/// - `panic-reach`: a panic on the re-entry path after a failure kills the
///   rank that was supposed to be recovering. Reported only where the code
///   participates in the recovery protocol ([`PANIC_SITE_CRATES`]).
///   `assert!`/`unreachable!` are stated invariants, not sites.
/// - `rank-path-effects`: nothing a simulated rank executes may read the
///   wall clock, park the OS thread, draw nondeterminism, or spawn threads
///   unless the site says why it may — those are what the deterministic
///   scheduler must own. Malformed pragmas are reported under this rule.
/// - `blocking-context`: reservation math and telemetry export callbacks
///   run under locks and on hot paths — they compute, never park.
pub const QUERIES: &[Query] = &[
    Query {
        rule: "panic-reach",
        roots: RECOVERY_ENTRY_FNS,
        forbidden: EffectSet::PANICS,
        report_in: Some(PANIC_SITE_CRATES),
        from: "a recovery entry point",
        fix: "a panic here kills the recovering rank — return the error through the \
              resilience layers instead",
    },
    Query {
        rule: "rank-path-effects",
        roots: RANK_ENTRY_FNS,
        forbidden: EffectSet::MIGRATION,
        report_in: None,
        from: "a rank entry point",
        fix: SANCTION_FIX,
    },
    Query {
        rule: RULE_BLOCKING,
        roots: GOVERNOR_FNS,
        forbidden: EffectSet::BLOCKS,
        report_in: None,
        from: "a governor/exporter callback",
        fix: SANCTION_FIX,
    },
];

/// The site table and call graph of one workspace scan.
pub struct EffectAnalysis {
    /// Per-function direct sites (sanctioned ones included).
    pub sites: HashMap<FnId, Vec<EffectSite>>,
    pub graph: CallGraph,
    /// Malformed sanction pragmas: (file, line, reason).
    pub malformed: Vec<(String, u32, String)>,
    opts: GraphOpts,
}

impl EffectAnalysis {
    /// Build the workspace call graph and collect every live function's
    /// sites.
    pub fn run(ws: &Workspace, opts: GraphOpts) -> EffectAnalysis {
        let mut malformed = Vec::new();
        let sanctions: Vec<Vec<Sanction>> = ws
            .files
            .iter()
            .map(|file| {
                if file.file_is_test {
                    return Vec::new();
                }
                parse_sanctions(file, &mut malformed)
            })
            .collect();
        let mut sites: HashMap<FnId, Vec<EffectSite>> = HashMap::new();
        for (id, f) in ws.live(opts) {
            let fs = fn_sites(ws.file(id), f, &sanctions[id.0]);
            if !fs.is_empty() {
                sites.insert(id, fs);
            }
        }
        EffectAnalysis {
            sites,
            graph: CallGraph::build(ws, opts),
            malformed,
            opts,
        }
    }

    /// Run every row of [`QUERIES`], plus the malformed-pragma report.
    pub fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for q in QUERIES {
            let roots = collect_entries(ws, q.roots, self.opts);
            let parent = self.graph.reach(&roots);
            for (&id, sites) in &self.sites {
                let file = ws.file(id);
                if !parent.contains_key(&id)
                    || q.report_in
                        .is_some_and(|crates| !crates.contains(&file.crate_name.as_str()))
                {
                    continue;
                }
                for s in sites {
                    let bad = s.unsanctioned().intersect(q.forbidden);
                    if bad.is_empty() {
                        continue;
                    }
                    out.push(Diagnostic {
                        rule: q.rule,
                        file: file.rel.clone(),
                        line: s.line,
                        func: ws.fn_item(id).qual(),
                        msg: format!(
                            "{} site ({}) reachable from {}; witness: {}; {}",
                            bad.names().join("+"),
                            s.what,
                            q.from,
                            chain(ws, &parent, id).join(" -> "),
                            q.fix,
                        ),
                    });
                }
            }
        }
        for (file, line, reason) in &self.malformed {
            out.push(Diagnostic {
                rule: "rank-path-effects",
                file: file.clone(),
                line: *line,
                func: String::new(),
                msg: format!("malformed sanction pragma: {reason}"),
            });
        }
        out
    }

    /// Every wall-clock / blocks / spawns / non-det site reachable from
    /// the rank entry points, sanctioned or not, with witness chains — the
    /// `--effects` artifact.
    pub fn inventory(&self, ws: &Workspace) -> Vec<InventoryEntry> {
        let parent = self
            .graph
            .reach(&collect_entries(ws, RANK_ENTRY_FNS, self.opts));
        let mut out = Vec::new();
        for (&id, sites) in &self.sites {
            if !parent.contains_key(&id) {
                continue;
            }
            let file = &ws.file(id).rel;
            let func = ws.fn_item(id).qual();
            for s in sites {
                let effects = s.effects.intersect(EffectSet::MIGRATION);
                if effects.is_empty() {
                    continue;
                }
                out.push(InventoryEntry {
                    key: format!(
                        "{} @ {file} # {func} : {}",
                        effects.names().join("+"),
                        s.what
                    ),
                    file: file.clone(),
                    line: s.line,
                    func: func.clone(),
                    what: s.what.clone(),
                    effects,
                    sanctioned: s.sanctioned,
                    justification: s.justification.clone(),
                    witness: chain(ws, &parent, id),
                });
            }
        }
        out.sort_by(|a, b| (&a.key, a.line).cmp(&(&b.key, b.line)));
        out.dedup_by(|a, b| a.key == b.key && a.line == b.line);
        out
    }
}

/// The root → `target` chain of qualified names through a
/// [`CallGraph::reach`] parent forest.
fn chain(ws: &Workspace, parent: &HashMap<FnId, Option<FnId>>, target: FnId) -> Vec<String> {
    let mut path = vec![target];
    let mut at = target;
    while let Some(&Some(p)) = parent.get(&at) {
        path.push(p);
        at = p;
    }
    path.iter().rev().map(|&f| ws.fn_item(f).qual()).collect()
}

/// Does `f` match the entry-table pattern `pat`? (See [`EntryTable`].)
fn entry_matches(pat: &str, f: &FnItem) -> bool {
    if pat.contains("::") {
        f.qual() == pat
    } else {
        f.impl_type.is_none() && f.name == pat
    }
}

/// Resolve an entry-point table against the workspace's live functions.
pub fn collect_entries(ws: &Workspace, table: EntryTable, opts: GraphOpts) -> Vec<FnId> {
    let mut out = Vec::new();
    for (id, f) in ws.live(opts) {
        let krate = ws.file(id).crate_name.as_str();
        let Some((_, pats)) = table.iter().find(|(c, _)| *c == krate) else {
            continue;
        };
        if pats.iter().any(|p| entry_matches(p, f)) {
            out.push(id);
        }
    }
    out
}

/// The patterns of `table` that name no function of their crate, as
/// `crate: pattern`. Such a root roots nothing: the function it named was
/// renamed or deleted, and the rule goes on reporting a clean scan of
/// whatever the other patterns still reach. Seeded mutants count as present
/// whichever way the scan opted (the free `apply_repair` exists only
/// there); test code does not.
pub fn unmatched_entries(ws: &Workspace, table: EntryTable) -> Vec<String> {
    let mut out = Vec::new();
    for (krate, pats) in table {
        for pat in *pats {
            let named = |(id, f): (FnId, &FnItem)| {
                !f.is_test && ws.file(id).crate_name == *krate && entry_matches(pat, f)
            };
            if !ws.fns().any(named) {
                out.push(format!("{krate}: {pat}"));
            }
        }
    }
    out
}

/// [`unmatched_entries`] over every entry table [`QUERIES`] roots at, each
/// pattern once: a scan error, like a finding.
pub fn unmatched_roots(ws: &Workspace) -> Vec<String> {
    let tables = QUERIES.iter().map(|q| q.roots);
    let mut out: Vec<String> = tables.flat_map(|t| unmatched_entries(ws, t)).collect();
    out.sort();
    out.dedup();
    out
}

/// Sanctioned inventory sites per pragma word, for the scan's summary
/// line: the count a PR that removes a wall-clock read or a park site
/// from the rank path moves.
pub fn sanctioned_summary(entries: &[InventoryEntry]) -> String {
    let words = EffectSet::KINDS.iter();
    let words = words.filter(|(bit, _)| EffectSet::MIGRATION.contains(*bit));
    let per_word = words.map(|(bit, name)| {
        let n = entries
            .iter()
            .filter(|e| e.sanctioned.contains(*bit))
            .count();
        format!("{name} {n}")
    });
    per_word.collect::<Vec<_>>().join(", ")
}

/// Render the inventory as JSON (the `--effects` artifact).
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
    use crate::testutil::{id_of, ws};

    fn run(files: &[(&str, &str)]) -> (Workspace, EffectAnalysis) {
        let w = ws(files);
        let fx = EffectAnalysis::run(&w, GraphOpts::default());
        (w, fx)
    }

    #[test]
    fn sites_are_reported_through_calls_and_recursion() {
        let (w, fx) = run(&[(
            "crates/fenix/src/lib.rs",
            "pub fn run(n: u32) { middle(n); }\n\
             fn middle(n: u32) { if n > 0 { run(n - 1); } leaf(); }\n\
             fn leaf() { let _t = std::time::Instant::now(); }\n",
        )]);
        let d = fx.check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(
            (d[0].rule, d[0].func.as_str()),
            ("rank-path-effects", "leaf")
        );
        assert!(d[0]
            .msg
            .contains("wall-clock site (std::time::Instant::now)"));
        assert!(
            d[0].msg.contains("witness: run -> middle -> leaf;"),
            "{}",
            d[0].msg
        );
    }

    #[test]
    fn a_root_pattern_that_names_no_function_is_reported() {
        let w = ws(&[
            (
                "crates/veloc/src/client.rs",
                "impl Client { pub fn restart(&self) {} }\n\
                 #[cfg(feature = \"lint-mutants\")]\n\
                 pub fn seeded() {}\n\
                 #[cfg(test)]\n\
                 mod tests { fn only_tested() {} }\n",
            ),
            ("crates/fenix/src/lib.rs", "pub fn fabricated() {}\n"),
        ]);
        let table: EntryTable = &[(
            "veloc",
            &[
                "Client::restart",
                "seeded",
                "Client::fabricated",
                "fabricated",
                "only_tested",
            ],
        )];
        assert_eq!(
            unmatched_entries(&w, table),
            [
                "veloc: Client::fabricated",
                "veloc: fabricated",
                "veloc: only_tested"
            ]
        );
    }

    #[test]
    fn sleep_is_wall_clock_and_blocking() {
        let (w, fx) = run(&[(
            "crates/cluster/src/lib.rs",
            "pub fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
        )]);
        let sites = &fx.sites[&id_of(&w, "nap")];
        assert_eq!(sites.len(), 1);
        assert_eq!(
            sites[0].effects,
            EffectSet::WALL_CLOCK.union(EffectSet::BLOCKS)
        );
    }

    #[test]
    fn zero_arg_heuristic_separates_joins() {
        let (w, fx) = run(&[(
            "crates/x/src/lib.rs",
            "pub fn strings(v: &[String]) -> String { v.join(\", \") }\n\
             pub fn threads(h: std::thread::JoinHandle<()>) { h.join().ok(); }\n",
        )]);
        assert!(!fx.sites.contains_key(&id_of(&w, "strings")));
        assert_eq!(
            fx.sites[&id_of(&w, "threads")][0].effects,
            EffectSet::BLOCKS
        );
    }

    #[test]
    fn sanction_clears_named_kinds_and_requires_justification() {
        let (w, fx) = run(&[(
            "crates/cluster/src/lib.rs",
            "pub fn modeled() {\n\
             // lint: sanction(wall-clock, blocks): modeled time, DES replaces it\n\
             std::thread::sleep(std::time::Duration::from_millis(1));\n\
             }\n\
             pub fn naked() {\n\
             // lint: sanction(wall-clock):\n\
             let _t = std::time::Instant::now();\n\
             }\n\
             pub fn risky(v: Option<u8>) -> u8 {\n\
             // lint: sanction(panics): cannot be sanctioned in place\n\
             v.unwrap()\n\
             }\n",
        )]);
        assert!(fx.sites[&id_of(&w, "modeled")][0].unsanctioned().is_empty());
        // The empty justification is rejected: the pragma is malformed and
        // the site keeps its effect. `panics` is not a pragma word at all.
        let naked = &fx.sites[&id_of(&w, "naked")][0];
        assert_eq!(naked.unsanctioned(), EffectSet::WALL_CLOCK);
        let risky = &fx.sites[&id_of(&w, "risky")][0];
        assert_eq!(risky.unsanctioned(), EffectSet::PANICS);
        assert_eq!(fx.malformed.len(), 2);
        // Malformed pragmas fail the scan, under `rank-path-effects`.
        let d = fx.check(&w);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(
            |d| d.rule == "rank-path-effects" && d.msg.starts_with("malformed sanction pragma")
        ));
    }

    #[test]
    fn rows_scope_their_reports() {
        let (w, fx) = run(&[
            (
                "crates/fenix/src/lib.rs",
                "pub fn run(s: Option<u8>) { s.unwrap(); telemetry::note(s); }\n",
            ),
            (
                "crates/telemetry/src/lib.rs",
                "pub fn note(s: Option<u8>) { s.unwrap(); std::thread::park(); }\n",
            ),
        ]);
        let d = fx.check(&w);
        let got: Vec<_> = d.iter().map(|d| (d.rule, d.func.as_str())).collect();
        // Both traversals cross into telemetry: a park there is a rank-path
        // finding, but a panic there is not a resilience-protocol one.
        assert_eq!(got, [("panic-reach", "run"), ("rank-path-effects", "note")]);
    }

    #[test]
    fn inventory_carries_witness_chain() {
        let (w, fx) = run(&[(
            "crates/simmpi/src/router.rs",
            "pub struct Router;\n\
             impl Router {\n\
             pub fn recv(&self) { self.backoff(); }\n\
             fn backoff(&self) { let _t = std::time::Instant::now(); }\n\
             }\n",
        )]);
        let inv = fx.inventory(&w);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].witness, vec!["Router::recv", "Router::backoff"]);
        assert!(inv[0].key.contains("wall-clock @"));
        assert!(!inv[0].is_sanctioned());
        let rendered = render_inventory(&inv);
        assert!(rendered.contains(&inv[0].key) && rendered.contains("\"unsanctioned\": 1"));
        assert!(sanctioned_summary(&inv).starts_with("wall-clock 0, blocks 0"));
    }

    #[test]
    fn hash_iteration_is_non_det() {
        let (w, fx) = run(&[(
            "crates/x/src/lib.rs",
            "pub fn order(v: &[u64]) -> u64 {\n\
             let seen = std::collections::HashSet::from([1u64]);\n\
             let mut acc = 0;\n\
             for k in seen.iter() { acc += k; }\n\
             acc + v.len() as u64\n\
             }\n\
             pub fn sorted_field(v: &[u64]) -> Vec<u64> { let mut s = v.to_vec(); s.sort(); s }\n",
        )]);
        assert_eq!(fx.sites[&id_of(&w, "order")][0].effects, EffectSet::NON_DET);
        assert!(!fx.sites.contains_key(&id_of(&w, "sorted_field")));
    }
}
