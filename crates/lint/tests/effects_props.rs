//! Property tests for the call-graph query, stated on what the rules
//! consume: the site table, the witness chains and the inventory keys.
//!
//! * every witness a diagnostic or inventory entry carries is a real path
//!   in `fx.graph`: the first hop a root of its query, every hop an edge,
//!   the last hop the function holding the site;
//! * diagnostics and inventory keys do not depend on file order;
//! * the whole engine survives pseudo-Rust splice noise.

use lint::callgraph::{FnId, GraphOpts, Workspace};
use lint::effects::{collect_entries, EffectAnalysis};
use lint::parser::ParsedFile;
use lint::rules::{RANK_ENTRY_FNS, RECOVERY_ENTRY_FNS};
use proptest::prelude::*;

/// Statements the generator plants in function bodies: one site kind each.
const SITE_STMTS: &[&str] = &[
    "",
    "std::thread::sleep(std::time::Duration::from_millis(1));",
    "let t0 = std::time::Instant::now();",
    "std::thread::spawn(work);",
    "std::thread::park();",
    "panic!(\"boom\");",
];

/// Pseudo-Rust fragments for the splice fuzzer, biased toward the
/// constructs the engine inspects: intrinsics, zero-arg method sites,
/// sanction pragmas (well- and ill-formed), and delimiter noise.
const FRAGMENTS: &[&str] = &[
    "fn",
    "pub",
    "impl",
    "mod",
    "run",
    "Type",
    "self",
    "let",
    "match",
    "loop",
    "std::thread::sleep(d)",
    "Instant::now()",
    "std::process::exit(1)",
    "fenix::run(f)",
    "x.recv()",
    "h.join()",
    "v.join(\", \")",
    "cv.wait_for(g, t)",
    "panic!(\"b\")",
    "f0()",
    "let m = std::collections::HashMap::new();",
    "m.iter()",
    "// lint: sanction(blocks): ok\n",
    "// lint: sanction(bogus): broken\n",
    "// lint: sanction(wall-clock):\n",
    "{",
    "}",
    "(",
    ")",
    ";",
    ".",
    "::",
    "=>",
    "#[cfg(test)]",
];

/// One generated function: `(site statement index, callee indices)`.
type GenFn = (usize, Vec<usize>);

/// Render the generated program as two `fenix` source files (the split
/// exercises cross-file resolution). `f0` is named `run`, so it roots both
/// the rank-path and the recovery queries.
fn build_ws(prog: &[GenFn], reverse: bool) -> Workspace {
    let name = |i: usize| match i {
        0 => "run".to_owned(),
        _ => format!("f{i}"),
    };
    let render = |range: std::ops::Range<usize>| {
        let mut src = String::new();
        for i in range {
            let (site, calls) = &prog[i];
            src.push_str(&format!(
                "pub fn {}() {{\n    {}\n",
                name(i),
                SITE_STMTS[*site]
            ));
            for c in calls {
                // Out-of-range callees become unresolved calls on purpose.
                src.push_str(&format!("    {}();\n", name(*c)));
            }
            src.push_str("}\n");
        }
        src
    };
    let mid = prog.len() / 2;
    let mut files = vec![
        ParsedFile::parse("crates/fenix/src/a.rs", "fenix", &render(0..mid), false),
        ParsedFile::parse(
            "crates/fenix/src/b.rs",
            "fenix",
            &render(mid..prog.len()),
            false,
        ),
    ];
    if reverse {
        files.reverse();
    }
    Workspace { files }
}

fn prog() -> impl Strategy<Value = Vec<GenFn>> {
    proptest::collection::vec(
        (
            0usize..SITE_STMTS.len(),
            proptest::collection::vec(0usize..12, 0..4),
        ),
        1..12,
    )
}

/// `witness` (qualified names) is a root → … → `func` path in the graph.
fn assert_real_path(
    ws: &Workspace,
    fx: &EffectAnalysis,
    roots: &[FnId],
    witness: &[&str],
    func: &str,
) {
    assert_eq!(
        witness.last(),
        Some(&func),
        "witness ends at the site's function"
    );
    // Qualified names are unique in the generated programs.
    let id = |q: &str| {
        let found = ws.fns().find(|(_, f)| f.qual() == q);
        found
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no fn `{q}`"))
    };
    let path: Vec<FnId> = witness.iter().map(|q| id(q)).collect();
    assert!(
        roots.contains(&path[0]),
        "first hop {witness:?} is not a root"
    );
    for hop in path.windows(2) {
        assert!(
            fx.graph.edges[&hop[0]].contains(&hop[1]),
            "{witness:?}: no such edge"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_witness_is_a_real_root_to_site_path(prog in prog()) {
        let ws = build_ws(&prog, false);
        let opts = GraphOpts::default();
        let fx = EffectAnalysis::run(&ws, opts);
        let rank = collect_entries(&ws, RANK_ENTRY_FNS, opts);
        let recovery = collect_entries(&ws, RECOVERY_ENTRY_FNS, opts);
        for d in fx.check(&ws) {
            let roots = match d.rule {
                "rank-path-effects" => &rank,
                "panic-reach" => &recovery,
                other => panic!("no root for `{other}` in a fenix-only program"),
            };
            let chain = d.msg.split("witness: ").nth(1).and_then(|m| m.split(';').next());
            let witness: Vec<&str> = chain.expect("diagnostic carries a witness").split(" -> ").collect();
            assert_real_path(&ws, &fx, roots, &witness, &d.func);
        }
        for e in fx.inventory(&ws) {
            let witness: Vec<&str> = e.witness.iter().map(String::as_str).collect();
            assert_real_path(&ws, &fx, &rank, &witness, &e.func);
        }
    }

    #[test]
    fn verdicts_do_not_depend_on_file_order(prog in prog()) {
        let verdicts = |reverse: bool| {
            let ws = build_ws(&prog, reverse);
            let (diags, fx) = lint::analyze(&ws, GraphOpts::default());
            let diags: Vec<String> = diags.iter().map(|d| d.render_human()).collect();
            let keys: Vec<String> = fx.inventory(&ws).into_iter().map(|e| e.key).collect();
            (diags, keys)
        };
        prop_assert_eq!(verdicts(false), verdicts(true));
    }

    #[test]
    fn engine_never_panics_on_splice_noise(
        picks in proptest::collection::vec((0usize..FRAGMENTS.len(), any::<bool>()), 0..40)
    ) {
        let mut src = String::new();
        for (i, spaced) in picks {
            src.push_str(FRAGMENTS[i]);
            if spaced {
                src.push(' ');
            }
        }
        let ws = Workspace {
            files: vec![ParsedFile::parse("crates/fenix/src/z.rs", "fenix", &src, false)],
        };
        let (_, fx) = lint::analyze(&ws, GraphOpts::default());
        let _ = fx.inventory(&ws);
    }
}
