//! Protocol-aware static analysis for the layered-resilience workspace.
//!
//! A rule lives here only where no runtime suite, compiler lint or
//! run-time witness catches its violation (DESIGN.md §10 has the
//! experiment behind each). The engine:
//!
//! - [`lexer`] — a lossless in-tree Rust lexer (raw strings with arbitrary
//!   hash counts, nested block comments, lifetime vs. char-literal
//!   disambiguation, shebang lines);
//! - [`parser`] — a lightweight item/expression parser producing function
//!   items with their calls;
//! - [`callgraph`] — heuristic workspace-wide name resolution of calls;
//! - [`cfg`] and [`inline`] — per-function control-flow trees, and the
//!   one depth-bounded, cycle-safe walk that inlines single-candidate
//!   callees through them;
//! - [`rules`] — the rules;
//! - [`diag`] — diagnostics and the JSON report.
//!
//! The binary (`cargo run -p lint`) scans the workspace and exits
//! non-zero on any finding; [`self_check`] (a unit test) proves every rule
//! still fires on its fixture and stays quiet on the clean twin.
//!
//! The analyzer never scans `crates/lint` itself (its sources and
//! fixtures deliberately contain every pattern the rules hunt for).

pub mod callgraph;
pub mod cfg;
pub mod diag;
pub mod inline;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::path::{Path, PathBuf};

pub use callgraph::{GraphOpts, Resolver, Workspace};
pub use diag::Diagnostic;
use parser::ParsedFile;

/// Classify a workspace-relative path: `Some((crate_name, is_test_file))`
/// for files the analyzer should read, `None` for files outside its
/// scope.
pub fn classify(rel: &str) -> Option<(String, bool)> {
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel
        .split('/')
        .any(|part| matches!(part, "target" | ".git" | "fixtures" | "node_modules"))
    {
        return None;
    }
    if rel.starts_with("crates/lint/") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", krate, kind, ..] => {
            let is_test = matches!(*kind, "tests" | "benches");
            Some(((*krate).to_owned(), is_test))
        }
        ["shims", shim, ..] => Some(((*shim).to_owned(), false)),
        ["examples", ..] => Some(("examples".to_owned(), false)),
        ["tests", ..] | ["benches", ..] => Some(("layered-resilience".to_owned(), true)),
        ["src", ..] => Some(("layered-resilience".to_owned(), false)),
        _ => None,
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | "fixtures" | "node_modules"
            ) {
                continue;
            }
            collect_rs(&path, root, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
}

/// Read and parse every in-scope `.rs` file under `root`.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut paths = Vec::new();
    collect_rs(root, root, &mut paths);
    paths.sort();
    let mut files = Vec::new();
    for (rel, path) in paths {
        let Some((krate, is_test)) = classify(&rel) else {
            continue;
        };
        let src = std::fs::read_to_string(&path)?;
        files.push(ParsedFile::parse(&rel, &krate, &src, is_test));
    }
    Ok(Workspace { files })
}

/// Run every rule over an already-loaded workspace.
pub fn analyze(ws: &Workspace, opts: GraphOpts) -> Vec<Diagnostic> {
    rules::run_all(ws, opts)
}

/// Analyze one fixture file as a single-file workspace in a crate where
/// every rule's scope applies.
pub fn analyze_fixture(src: &str) -> Vec<Diagnostic> {
    let rel = "crates/fenix/src/__fixture__.rs";
    let ws = Workspace {
        files: vec![ParsedFile::parse(rel, "fenix", src, false)],
    };
    analyze(&ws, GraphOpts::default())
}

/// Verify every rule against its checked-in fixtures: `fire.rs` must
/// trigger the rule, `clean.rs` must produce no findings at all. Returns
/// per-rule fire counts.
///
/// The fixture tree is also *discovered*: a fixture directory with no
/// registered rule is an error (a rule was removed or renamed without its
/// fixtures), just as a registered rule without its fire/clean pair is —
/// so a new rule can never silently ship uncovered in either direction.
pub fn self_check(fixture_root: &Path) -> Result<Vec<(&'static str, usize)>, String> {
    if !fixture_root.is_dir() {
        return Err(format!(
            "fixture directory {} does not exist",
            fixture_root.display()
        ));
    }
    let entries = std::fs::read_dir(fixture_root)
        .map_err(|e| format!("cannot list {}: {e}", fixture_root.display()))?;
    for entry in entries.flatten() {
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !rules::ALL_RULES.contains(&name.as_ref()) {
            return Err(format!(
                "{name}: orphan fixture directory — no registered rule with this id"
            ));
        }
    }
    let mut counts = Vec::new();
    for &rule in rules::ALL_RULES {
        let dir = fixture_root.join(rule);
        let fire = std::fs::read_to_string(dir.join("fire.rs"))
            .map_err(|e| format!("{rule}: missing fire fixture: {e}"))?;
        let clean = std::fs::read_to_string(dir.join("clean.rs"))
            .map_err(|e| format!("{rule}: missing clean fixture: {e}"))?;
        let fire_diags = analyze_fixture(&fire);
        let hits = fire_diags.iter().filter(|d| d.rule == rule).count();
        if hits == 0 {
            return Err(format!(
                "{rule}: fire fixture produced no `{rule}` finding (got: {:?})",
                fire_diags.iter().map(|d| d.rule).collect::<Vec<_>>()
            ));
        }
        let clean_diags = analyze_fixture(&clean);
        if !clean_diags.is_empty() {
            return Err(format!(
                "{rule}: clean fixture is not clean: {}",
                clean_diags
                    .iter()
                    .map(|d| d.render_human())
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }
        counts.push((rule, hits));
    }
    Ok(counts)
}

#[derive(Default)]
struct CliOpts {
    root: PathBuf,
    report: Option<PathBuf>,
}

fn parse_args() -> Result<CliOpts, String> {
    let mut opts = CliOpts {
        root: PathBuf::from("."),
        ..CliOpts::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--root" => opts.root = PathBuf::from(value("--root")?),
            "--report" => opts.report = Some(PathBuf::from(value("--report")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// A usage or IO error: exit code 2.
fn fail(msg: String) -> ! {
    eprintln!("lint: {msg}");
    std::process::exit(2);
}

/// Entry point for the `lint` binary. Exit codes: 0 clean, 1 findings,
/// 2 usage/IO error.
pub fn cli_main() {
    let opts = parse_args()
        .unwrap_or_else(|e| fail(format!("{e}\nusage: lint [--root DIR] [--report PATH]")));

    let ws = load_workspace(&opts.root)
        .unwrap_or_else(|e| fail(format!("failed to read workspace: {e}")));
    let diags = analyze(&ws, GraphOpts::default());

    if let Some(path) = &opts.report {
        if let Some(parent) = path.parent() {
            let _unused = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(path, diag::render_json(&diags)) {
            fail(format!("cannot write report {}: {e}", path.display()));
        }
        println!("lint: report written to {}", path.display());
    }

    for d in &diags {
        println!("{}", d.render_human());
    }
    println!(
        "lint: {} rule(s), {} finding(s), {} files scanned",
        rules::ALL_RULES.len(),
        diags.len(),
        ws.files.len(),
    );
    if !diags.is_empty() {
        std::process::exit(1);
    }
}

/// Synthetic workspaces for the unit tests of every analysis module.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use callgraph::FnId;

    /// Parse `(path, source)` pairs; each crate is the one its path
    /// classifies into.
    pub fn ws(files: &[(&str, &str)]) -> Workspace {
        let parse = |(rel, src): &(&str, &str)| {
            let krate = classify(rel).map(|(c, _)| c).unwrap_or_default();
            ParsedFile::parse(rel, &krate, src, false)
        };
        Workspace {
            files: files.iter().map(parse).collect(),
        }
    }

    pub fn id_of(ws: &Workspace, name: &str) -> FnId {
        let found = ws.fns().find(|(_, f)| f.name == name);
        found.map_or_else(|| panic!("no fn named {name}"), |(id, _)| id)
    }

    /// Run one resolver-based rule over `files` with default options.
    pub fn run(
        check: fn(&Workspace, &Resolver, GraphOpts) -> Vec<Diagnostic>,
        files: &[(&str, &str)],
    ) -> Vec<Diagnostic> {
        let ws = ws(files);
        let opts = GraphOpts::default();
        check(&ws, &Resolver::new(&ws, opts), opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes_paths() {
        assert_eq!(
            classify("crates/fenix/src/runtime.rs"),
            Some(("fenix".into(), false))
        );
        assert_eq!(
            classify("crates/fenix/tests/run_loop.rs"),
            Some(("fenix".into(), true))
        );
        assert_eq!(
            classify("crates/bench/benches/ablations.rs"),
            Some(("bench".into(), true))
        );
        assert_eq!(
            classify("shims/loom/src/thread.rs"),
            Some(("loom".into(), false))
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            Some(("examples".into(), false))
        );
        assert_eq!(
            classify("tests/integration.rs"),
            Some(("layered-resilience".into(), true))
        );
        assert_eq!(
            classify("src/lib.rs"),
            Some(("layered-resilience".into(), false))
        );
        // Out of scope: the lint crate itself, fixtures, non-Rust files.
        assert_eq!(classify("crates/lint/src/lib.rs"), None);
        assert_eq!(
            classify("crates/lint/fixtures/collective-match/fire.rs"),
            None
        );
        assert_eq!(classify("scripts/ci.sh"), None);
    }

    #[test]
    fn self_check_passes_on_checked_in_fixtures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let counts = self_check(&root).expect("self-check must pass");
        assert_eq!(counts.len(), rules::ALL_RULES.len());
    }
}
