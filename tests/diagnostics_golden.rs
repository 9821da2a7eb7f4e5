//! Golden tests for the `gbc check` diagnostics pipeline over the
//! negative corpus in `programs/bad/`.
//!
//! Every fixture `<name>.dl` has two checked-in snapshots:
//!
//! * `<name>.expect` — the rustc-style rendering (exactly what `gbc
//!   check` prints above the summary);
//! * `<name>.diag.json` — the `--diag-json` serialisation.
//!
//! Fixtures named `gbcNNN_*.dl` must emit diagnostic code `GBCNNN`;
//! `kruskal_example8.dl` (the paper's Example 8) must emit `GBC018`.
//!
//! Regenerate the snapshots with:
//!
//! ```text
//! GBC_BLESS=1 cargo test --test diagnostics_golden
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use gbc_ast::diag::{error_count, render_all};
use gbc_ast::{Diagnostic, SourceMap};
use gbc_core::{check_program, compile, diagnostics_to_json};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; fixtures live at the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

/// Run the same pipeline `gbc check` runs: parse (a failure becomes the
/// GBC001 diagnostic), then the full static-check engine.
fn check_fixture(root: &Path, rel: &str) -> (Vec<Diagnostic>, SourceMap) {
    let text = fs::read_to_string(root.join(rel)).expect("fixture readable");
    let mut sm = SourceMap::new();
    // The display name is the repo-relative path, so snapshots match a
    // `gbc check programs/bad/<name>.dl` run from the repo root.
    sm.add_file(rel, &text);
    let diags = match gbc_parser::parse_program(&sm.source()) {
        Err(e) => vec![e.to_diagnostic()],
        Ok(program) => check_program(&program).diagnostics,
    };
    (diags, sm)
}

/// The `.dl` fixtures of `programs/bad`, sorted by name.
fn fixture_names(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root.join("programs/bad"))
        .expect("programs/bad exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.ends_with(".dl").then_some(name)
        })
        .collect();
    names.sort();
    names
}

fn compare_or_bless(path: &Path, actual: &str) {
    if std::env::var_os("GBC_BLESS").is_some() {
        fs::write(path, actual).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("missing snapshot {} — run with GBC_BLESS=1", path.display()));
    assert_eq!(
        actual,
        expected,
        "snapshot mismatch for {} — run with GBC_BLESS=1 to regenerate",
        path.display()
    );
}

#[test]
fn negative_corpus_matches_snapshots() {
    let root = repo_root();
    let dir = root.join("programs/bad");
    let fixtures = fixture_names(&root);
    assert!(!fixtures.is_empty(), "no fixtures in programs/bad");

    for name in &fixtures {
        let rel = format!("programs/bad/{name}");
        let (diags, sm) = check_fixture(&root, &rel);
        assert!(!diags.is_empty(), "{rel}: negative fixture produced no diagnostics");

        // The fixture's primary code must be among the emitted codes.
        let stem = name.trim_end_matches(".dl");
        let want =
            if stem == "kruskal_example8" { "GBC018".to_owned() } else { stem[..6].to_uppercase() };
        assert!(
            diags.iter().any(|d| d.code == want),
            "{rel}: expected {want}, got {:?}",
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        );

        let rendered = render_all(&diags, &sm);
        compare_or_bless(&dir.join(format!("{stem}.expect")), &rendered);

        let mut json = diagnostics_to_json(&diags, &sm).pretty();
        json.push('\n');
        compare_or_bless(&dir.join(format!("{stem}.diag.json")), &json);
    }
}

/// Every code in the registry has at least one fixture: the corpus is
/// the registry's executable documentation.
#[test]
fn every_registry_code_has_a_fixture() {
    let root = repo_root();
    let mut covered: Vec<String> = Vec::new();
    for name in fixture_names(&root) {
        let rel = format!("programs/bad/{name}");
        let (diags, _) = check_fixture(&root, &rel);
        for d in &diags {
            if !covered.contains(&d.code.to_owned()) {
                covered.push(d.code.to_owned());
            }
        }
    }
    for code in [
        "GBC001", "GBC002", "GBC003", "GBC004", "GBC005", "GBC006", "GBC010", "GBC011", "GBC012",
        "GBC013", "GBC014", "GBC015", "GBC016", "GBC017", "GBC018", "GBC020", "GBC021", "GBC022",
        "GBC023", "GBC024", "GBC025", "GBC026", "GBC027", "GBC028", "GBC029", "GBC030", "GBC031",
        "GBC032",
    ] {
        assert!(covered.contains(&code.to_owned()), "no fixture emits {code}");
    }
}

/// The nine shipped program groups, with their EDB files, as the README
/// runs them.
const GROUPS: [&[&str]; 9] = [
    &["programs/prim.dl", "programs/graph_small.dl"],
    &["programs/spanning.dl", "programs/graph_small.dl"],
    &["programs/kruskal.dl", "programs/graph_small.dl"],
    &["programs/sort.dl"],
    &["programs/matching.dl"],
    &["programs/huffman.dl"],
    &["programs/scheduling.dl"],
    &["programs/tsp.dl"],
    &["programs/assignment.dl"],
];

/// `gbc check` notes GBC032 on exactly the rules whose plans `gbc
/// analyze` reports as `fast_feed`, on every fixture and shipped group.
#[test]
fn gbc032_notes_name_exactly_the_fast_feed_plans() {
    let root = repo_root();
    let mut inputs: Vec<Vec<String>> =
        fixture_names(&root).into_iter().map(|name| vec![format!("programs/bad/{name}")]).collect();
    inputs.extend(GROUPS.iter().map(|g| g.iter().map(|f| f.to_string()).collect()));
    let mut total = 0;
    for files in &inputs {
        let mut sm = SourceMap::new();
        for rel in files {
            sm.add_file(rel, &fs::read_to_string(root.join(rel)).expect("input readable"));
        }
        let Ok(program) = gbc_parser::parse_program(&sm.source()) else { continue };
        let noted: Vec<usize> = check_program(&program)
            .diagnostics
            .iter()
            .filter(|d| d.code == "GBC032")
            .map(|d| {
                let at = d.labels[0].span;
                program
                    .rules
                    .iter()
                    .position(|r| r.span().start <= at.start && at.end <= r.span().end)
                    .expect("the note labels a rule")
            })
            .collect();
        // `gbc analyze` refuses a program with errors before compiling.
        let planned: Vec<usize> = if error_count(&program.diagnostics()) > 0 {
            Vec::new()
        } else {
            compile(program).map_or(Vec::new(), |c| {
                c.analyze_report().plans.iter().filter(|p| p.fast_feed).map(|p| p.rule).collect()
            })
        };
        assert_eq!(noted, planned, "{files:?}: GBC032 rules vs fast_feed plans");
        total += noted.len();
    }
    assert!(total > 0, "no input exercises the fast feed");
}
