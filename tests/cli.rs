//! End-to-end tests of the `youtiao` command-line tool.

use std::process::Command;

fn youtiao(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_youtiao"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn topologies_lists_generators() {
    let (ok, stdout, _) = youtiao(&["topologies"]);
    assert!(ok);
    for name in ["square", "heavy-hexagon", "surface", "sycamore"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn cost_reports_reduction() {
    let (ok, stdout, _) = youtiao(&[
        "cost",
        "--topology",
        "heavy-square",
        "--rows",
        "3",
        "--cols",
        "3",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("XY lines"));
    assert!(stdout.contains("wiring cost"));
    // The paper's heavy-square row: 21 -> 5 XY lines.
    assert!(stdout.contains("21"), "{stdout}");
    assert!(stdout.contains("4.20x"), "{stdout}");
}

#[test]
fn plan_json_is_valid() {
    let (ok, stdout, _) = youtiao(&[
        "plan",
        "--topology",
        "square",
        "--rows",
        "3",
        "--cols",
        "3",
        "--json",
    ]);
    assert!(ok);
    let parsed: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(parsed["total_qubits"], 9);
    assert_eq!(parsed["xy_lines"].as_array().unwrap().len(), 2);
}

#[test]
fn plan_viz_renders_grid() {
    let (ok, stdout, _) = youtiao(&[
        "plan",
        "--topology",
        "square",
        "--rows",
        "3",
        "--cols",
        "3",
        "--viz",
    ]);
    assert!(ok);
    assert!(stdout.contains("FDM lines"));
    assert!(stdout.contains('A'));
}

#[test]
fn export_then_replan_roundtrip() {
    let dir = std::env::temp_dir().join("youtiao-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chip.json");
    let path_str = path.to_str().unwrap();
    let (ok, stdout, _) = youtiao(&[
        "export-chip",
        "--topology",
        "hexagon",
        "--rows",
        "2",
        "--cols",
        "2",
        "--out",
        path_str,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("16 qubits"));
    let (ok2, stdout2, _) = youtiao(&["cost", "--chip", path_str]);
    assert!(ok2, "{stdout2}");
    assert!(stdout2.contains("16 qubits"));
    std::fs::remove_file(path).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = youtiao(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn bad_distance_rejected() {
    let (ok, _, stderr) = youtiao(&["plan", "--topology", "surface", "--distance", "4"]);
    assert!(!ok);
    assert!(stderr.contains("odd"));
}

#[test]
fn sweep_over_a_chip_too_small_to_characterize_fails_cleanly() {
    let path = std::env::temp_dir().join(format!("youtiao_tiny_sweep_{}.json", std::process::id()));
    std::fs::write(&path, r#"{"chips":[{"topology":"linear","size":2}]}"#).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_youtiao"))
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    // An error exit with the reason, not a panic (exit code 101).
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("chips[0]"), "{stderr}");
    assert!(stderr.contains("characterization failed"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn zero_size_chips_fail_cleanly() {
    for args in [
        &["plan", "--topology", "square", "--rows", "0"][..],
        &["cost", "--topology", "square", "--cols", "0"],
        &[
            "export-chip",
            "--topology",
            "linear",
            "--size",
            "0",
            "--out",
            "unused.json",
        ],
        &[
            "repair",
            "--topology",
            "heavy-square",
            "--rows",
            "0",
            "--cols",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_youtiao"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // The request engine's message, not a panic (exit code 101).
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("bad parameter: dimensions must be positive"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
