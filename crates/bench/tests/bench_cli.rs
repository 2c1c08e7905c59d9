//! Integration test for the `coyote-bench` command-line interface.

use std::process::Command;

#[test]
fn baseline_of_another_scale_is_refused() {
    let dir = std::env::temp_dir().join("coyote-bench-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("paper-baseline.json");
    std::fs::write(&path, r#"{"schema": 3, "scale": "paper", "rows": []}"#)
        .expect("write baseline");
    let output = Command::new(env!("CARGO_BIN_EXE_coyote-bench"))
        .args(["fig3", "--quick", "--baseline"])
        .arg(&path)
        .output()
        .expect("spawn coyote-bench");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("baseline scale `paper` does not match this run's scale `quick`"),
        "stderr: {stderr}"
    );
    // Refused before the sweep: no row was measured.
    assert!(!stderr.contains("fig3: cores="), "stderr: {stderr}");
}
