//! End-to-end smoke tests for the `gridmtd` CLI binary: the scenario
//! path a user actually types, from `gridmtd run <spec.toml>` to the
//! files on disk. Deeper engine behavior (goldens, error wording) is
//! pinned in `crates/scenario/tests/golden.rs`; this file checks the
//! binary's wiring — argument handling, exit codes, and that the CLI
//! writes exactly what the library produces.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("facade manifest sits one level below the repo root")
        .to_path_buf()
}

fn gridmtd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gridmtd"));
    cmd.current_dir(repo_root());
    cmd
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridmtd-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn run_smoke_scenario_writes_the_run_directory() {
    let out = temp_out("run");
    let output = gridmtd()
        .args(["run", "scenarios/smoke_case4.toml", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("ran scenario `smoke_case4`"), "{stdout}");

    // The CLI writes exactly what the library computes for this spec —
    // the same bytes the golden test pins.
    let spec = gridmtd::scenario::parse_spec(
        &fs::read_to_string(repo_root().join("scenarios/smoke_case4.toml")).unwrap(),
    )
    .unwrap();
    let expected = gridmtd::scenario::run_spec(&spec).unwrap();
    let run_dir = out.join("smoke_case4");
    assert_eq!(
        fs::read_to_string(run_dir.join("result.json")).unwrap(),
        expected.json
    );
    assert_eq!(
        fs::read_to_string(run_dir.join("result.csv")).unwrap(),
        expected.csv
    );
    // The canonical spec echo round-trips to the same spec.
    let echoed =
        gridmtd::scenario::parse_spec(&fs::read_to_string(run_dir.join("spec.toml")).unwrap())
            .unwrap();
    assert_eq!(echoed, spec);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn list_and_validate_cover_the_scenario_library() {
    let output = gridmtd().arg("list").output().expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in [
        "smoke_case4.toml",
        "tradeoff_case14.toml",
        "timeline_case14.toml",
        "learning_case14.toml",
    ] {
        assert!(
            stdout.contains(name),
            "list output missing {name}: {stdout}"
        );
    }

    let specs: Vec<String> = fs::read_dir(repo_root().join("scenarios"))
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| format!("scenarios/{}", e.file_name().to_string_lossy()))
        .filter(|n| n.ends_with(".toml"))
        .collect();
    assert!(specs.len() >= 6);
    let output = gridmtd()
        .arg("validate")
        .args(&specs)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn malformed_spec_fails_with_a_useful_message_and_nonzero_exit() {
    let out = temp_out("bad");
    fs::create_dir_all(&out).unwrap();
    let bad = out.join("bad.toml");
    fs::write(
        &bad,
        "[scenario]\nname = \"bad\"\nkind = \"tradeoff\"\n\n[grid]\ncase = \"case4\"\n\
         \n[sweep]\ngamma_thresholds = [0.1]\ndeltas = [0.5]\nsseeds = [1]\n",
    )
    .unwrap();
    let output = gridmtd()
        .arg("validate")
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    // The typo (`sseeds` for `seeds`) is named with its location.
    assert!(stderr.contains("sweep.sseeds"), "{stderr}");
    assert!(stderr.contains("line 11"), "{stderr}");
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn removed_selection_method_key_fails_validation() {
    let out = temp_out("selection_method");
    fs::create_dir_all(&out).unwrap();
    let spec = out.join("spec.toml");
    fs::write(
        &spec,
        "[scenario]\nname = \"old\"\nkind = \"tradeoff\"\n\n[grid]\ncase = \"case4\"\n\
         \n[config]\nselection_method = \"gradient\"\n\
         \n[sweep]\ngamma_thresholds = [0.1]\ndeltas = [0.5]\n",
    )
    .unwrap();
    let output = gridmtd()
        .arg("validate")
        .arg(&spec)
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("config.selection_method"), "{stderr}");
    assert!(stderr.contains("unknown key"), "{stderr}");
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn usage_errors_exit_with_code_two() {
    let output = gridmtd().output().expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let output = gridmtd().arg("frobnicate").output().expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
}
