//! The unsafe audit, run against this workspace itself: every `unsafe`
//! site must carry a SAFETY justification, `static mut` is banned,
//! zero-unsafe crates must `#![forbid(unsafe_code)]`, and unsafe-using
//! crates must `#![deny(unsafe_op_in_unsafe_fn)]`.

use std::path::Path;

#[test]
fn workspace_is_clean_under_the_unsafe_audit() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = pp_check::audit::find_workspace_root(manifest_dir)
        .expect("pp-check lives inside the workspace");
    let violations = pp_check::audit::audit_workspace(&root);
    assert!(
        violations.is_empty(),
        "unsafe audit found {} violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn audit_covers_every_member_crate() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = pp_check::audit::find_workspace_root(manifest_dir).unwrap();
    let crates = pp_check::audit::workspace_crates(&root);
    let names: Vec<&str> = crates.iter().map(|c| c.name.as_str()).collect();
    for expected in [
        "phase-parallel",
        "pp-algos",
        "pp-pam",
        "pp-parlay",
        "pp-ranges",
        "pp-graph",
        "pp-model",
        "pp-workloads",
        "pp-serve",
        "pp-bench",
        "pp-check",
        "rayon",
        "proptest",
    ] {
        assert!(names.contains(&expected), "audit missed crate {expected}");
    }
    for krate in &crates {
        assert!(
            !krate.files.is_empty(),
            "no sources found for {}",
            krate.name
        );
        assert!(!krate.roots.is_empty(), "no roots found for {}", krate.name);
    }
}
