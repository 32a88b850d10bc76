//! The fixture corpus: every rule has a `fires` / `clean` / `suppressed`
//! triple under `tests/fixtures/<rule>/`, each a miniature workspace root
//! run through the same engine as the live tree. The live tree itself is
//! the final fixture: it must scan clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use habf_analysis::{analyze, report, Report, Workspace};

const RULES: [&str; 10] = [
    "decode-no-panic",
    "alloc-cap-before-len",
    "safety-comment",
    "no-probe-under-lock",
    "registry-fixture-parity",
    "wire-frame-parity",
    "no-unwrap-in-serve",
    "bench-artifact-parity",
    "no-block-in-reactor",
    "one-probe-pipeline",
];

fn fixture_root(rule: &str, variant: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(variant)
}

fn run(rule: &str, variant: &str) -> Report {
    let root = fixture_root(rule, variant);
    let ws = Workspace::load(&root).expect("load fixture root");
    analyze(&ws)
}

#[test]
fn every_rule_fires_on_its_fires_fixture() {
    for rule in RULES {
        let rep = run(rule, "fires");
        assert!(
            rep.findings.iter().any(|f| f.rule == rule),
            "{rule}: fires fixture drew no {rule} finding: {:?}",
            rep.findings
        );
        // Fixture purity: a fixture demonstrates exactly one rule.
        assert!(
            rep.findings.iter().all(|f| f.rule == rule),
            "{rule}: fires fixture leaked other rules: {:?}",
            rep.findings
        );
        // Findings carry a real anchor for suppressions and CI logs.
        for f in rep.findings.iter() {
            assert!(
                !f.file.is_empty() && f.line >= 1,
                "{rule}: unanchored finding {f:?}"
            );
        }
    }
}

#[test]
fn every_rule_is_quiet_on_its_clean_fixture() {
    for rule in RULES {
        let rep = run(rule, "clean");
        assert!(
            rep.findings.is_empty(),
            "{rule}: clean fixture still fires: {:?}",
            rep.findings
        );
        assert_eq!(
            rep.suppressed, 0,
            "{rule}: clean fixture needed suppressions"
        );
    }
}

#[test]
fn every_rule_is_silenced_by_a_justified_allow() {
    for rule in RULES {
        let rep = run(rule, "suppressed");
        assert!(
            rep.findings.is_empty(),
            "{rule}: justified allow did not suppress: {:?}",
            rep.findings
        );
        assert!(rep.suppressed >= 1, "{rule}: nothing was suppressed");
    }
}

#[test]
fn an_allow_without_a_reason_does_not_suppress() {
    let rep = run("decode-no-panic", "unjustified");
    assert_eq!(rep.suppressed, 0);
    let f = rep
        .findings
        .iter()
        .find(|f| f.rule == "decode-no-panic")
        .expect("finding survives");
    assert!(
        f.message.contains("missing ` -- <reason>`"),
        "omission must be annotated: {}",
        f.message
    );
}

#[test]
fn live_workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("load workspace");
    let rep = analyze(&ws);
    assert!(
        rep.findings.is_empty(),
        "the workspace has unsuppressed violations:\n{}",
        report::render_human(&rep)
    );
    assert!(rep.files_scanned > 20, "workspace walk looks truncated");
}

#[test]
fn cli_reports_rule_id_and_location_and_gates_on_exit_code() {
    let bin = env!("CARGO_BIN_EXE_habf-analysis");

    let out = Command::new(bin)
        .arg("--root")
        .arg(fixture_root("decode-no-panic", "fires"))
        .args(["--format", "json"])
        .output()
        .expect("run analyzer");
    assert!(!out.status.success(), "violations must exit nonzero");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\": \"decode-no-panic\""), "{json}");
    assert!(json.contains("crates/core/src/persist.rs"), "{json}");
    assert!(json.contains("\"line\": 6"), "{json}");

    let out = Command::new(bin)
        .arg("--root")
        .arg(fixture_root("decode-no-panic", "fires"))
        .output()
        .expect("run analyzer");
    let human = String::from_utf8_lossy(&out.stdout);
    assert!(
        human.contains("crates/core/src/persist.rs:6: [decode-no-panic]"),
        "{human}"
    );

    let out = Command::new(bin)
        .arg("--root")
        .arg(fixture_root("decode-no-panic", "clean"))
        .args(["--format", "json"])
        .output()
        .expect("run analyzer");
    assert!(out.status.success(), "a clean tree must exit 0");
}
