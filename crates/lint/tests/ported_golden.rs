//! Pins the engine's five ported rules to frozen expected findings, so
//! the rules cannot silently change what a baseline key means.
//!
//! Every fixture under `tests/fixtures/` is linted under five scoping
//! paths (plain lib source, kernel datapath, simulator crate, serve
//! crate, and a binary) and its ported-rule findings — rule, file,
//! line, column and message — must equal `tests/expected/<fixture>.txt`
//! line for line. Over the workspace, the ported-rule findings must be
//! exactly the keys in `baseline.txt`.

use std::collections::HashSet;
use std::path::Path;

use omega_lint::{baseline, lint_repo, lint_source, Registry, PORTED_RULES};

const SCOPES: [&str; 5] = [
    "crates/core/src/scan.rs",
    "crates/core/src/kernel.rs",
    "crates/gpu-sim/src/cost.rs",
    "crates/serve/src/http.rs",
    "crates/bench/src/bin/run.rs",
];

#[test]
fn fixtures_match_expected_findings() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let reg = Registry::from_names(["omega_max", "scan.steals"]);
    let mut seen = 0;
    for entry in std::fs::read_dir(manifest.join("tests/fixtures")).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read fixture");
        let mut got = String::new();
        for rel in SCOPES {
            for f in lint_source(rel, &src, &reg).expect("engine lexes") {
                if PORTED_RULES.contains(&f.rule) {
                    got.push_str(&format!("{f}\n"));
                }
            }
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8 fixture name");
        let expected_path = manifest.join("tests/expected").join(format!("{stem}.txt"));
        let expected = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", expected_path.display()));
        assert_eq!(got, expected, "ported-rule findings diverge on fixture {stem}");
        seen += 1;
    }
    assert!(seen >= 20, "expected the full fixture set, saw {seen}");
}

#[test]
fn workspace_findings_are_the_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let names =
        std::fs::read_to_string(root.join("crates/obs/src/names.rs")).expect("read names.rs");
    let reg = omega_lint::registry_from_names_rs(&names).expect("registry lexes");
    let (findings, errors) = lint_repo(&root, &reg);
    assert!(errors.is_empty(), "{errors:?}");
    let got: HashSet<String> =
        findings.iter().filter(|f| PORTED_RULES.contains(&f.rule)).map(|f| f.key()).collect();
    let text = std::fs::read_to_string(root.join("crates/lint/baseline.txt")).expect("baseline");
    assert_eq!(got, baseline::parse(&text));
}
