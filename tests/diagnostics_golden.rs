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

use gbc_ast::diag::render_all;
use gbc_ast::{Diagnostic, Severity, SourceMap};
use gbc_core::{check_program, compile, diagnostics_to_json, CoreError};
use gbc_storage::Database;

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

/// Groups whose greedy and generic runs are known to differ: the
/// generic engine reads huffman's `least(C)` literally (ROADMAP.md
/// item 1). Their runs must still agree on success.
const KNOWN_ENGINE_GAPS: [&str; 1] = ["programs/huffman.dl"];

/// On every fixture and shipped group, `gbc check` and the admission
/// gate agree:
///
/// * `compile` refuses the program exactly when `gbc check` reports an
///   error, with exactly those errors;
/// * an admitted program's greedy-plan verdict is the one `gbc check`
///   prints, and GBC032 notes exactly the rules whose plans `gbc
///   analyze` reports as `fast_feed`;
/// * an admitted program's `run` (greedy when planned) and
///   `run_generic` both fail, or both succeed with the same model.
#[test]
fn check_compile_and_run_agree_on_every_input() {
    let root = repo_root();
    let mut inputs: Vec<Vec<String>> =
        fixture_names(&root).into_iter().map(|name| vec![format!("programs/bad/{name}")]).collect();
    inputs.extend(GROUPS.iter().map(|g| g.iter().map(|f| f.to_string()).collect()));
    let (mut total, mut admitted) = (0, 0);
    for files in &inputs {
        let mut sm = SourceMap::new();
        for rel in files {
            sm.add_file(rel, &fs::read_to_string(root.join(rel)).expect("input readable"));
        }
        let Ok(program) = gbc_parser::parse_program(&sm.source()) else { continue };
        let report = check_program(&program);
        let noted: Vec<usize> = report
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
        total += noted.len();
        let compiled = match compile(program) {
            Ok(c) => c,
            Err(CoreError::Rejected { diagnostics }) => {
                let errors: Vec<&Diagnostic> =
                    report.diagnostics.iter().filter(|d| d.severity == Severity::Error).collect();
                assert_eq!(diagnostics.iter().collect::<Vec<_>>(), errors, "{files:?}");
                assert!(!errors.is_empty(), "{files:?}: compile refuses a program check accepts");
                assert_eq!(noted, Vec::<usize>::new(), "{files:?}: GBC032 on a refused program");
                continue;
            }
            Err(e) => panic!("{files:?}: compile failed outside the gate: {e}"),
        };
        admitted += 1;
        assert_eq!(report.errors(), 0, "{files:?}: compile admits a program check rejects");
        assert_eq!(
            report.plan,
            Some(compiled.plan_error().map_or(Ok(()), |e| Err(e.to_owned()))),
            "{files:?}: greedy plan verdicts"
        );
        let planned: Vec<usize> = compiled
            .analyze_report()
            .plans
            .iter()
            .filter(|p| p.fast_feed)
            .map(|p| p.rule)
            .collect();
        assert_eq!(noted, planned, "{files:?}: GBC032 rules vs fast_feed plans");

        let edb = Database::new();
        match (compiled.run(&edb), compiled.run_generic(&edb)) {
            (Ok(greedy), Ok(generic)) => {
                if !KNOWN_ENGINE_GAPS.contains(&files[0].as_str()) {
                    assert_eq!(
                        greedy.db.canonical_form(),
                        generic.db.canonical_form(),
                        "{files:?}: greedy and generic models"
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (greedy, generic) => panic!(
                "{files:?}: runs disagree: greedy {:?}, generic {:?}",
                greedy.err(),
                generic.err()
            ),
        }
    }
    assert!(total > 0, "no input exercises the fast feed");
    assert!(admitted > GROUPS.len(), "too few admitted inputs: {admitted}");
}
