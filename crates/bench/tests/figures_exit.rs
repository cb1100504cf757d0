//! Exit status of the `figures` binary: a run that cannot write its
//! results must fail, even when every shape check passes.

use std::process::Command;

#[test]
fn figures_exits_nonzero_when_results_cannot_be_written() {
    // A regular file named `results` makes every artifact write fail.
    let dir = std::env::temp_dir().join(format!("gnr-figures-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(dir.join("results"), "not a directory").expect("write blocker file");

    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .current_dir(&dir)
        .output()
        .expect("run figures");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");

    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !output.status.success(),
        "figures exited {:?} with no results written",
        output.status.code()
    );
    assert!(stdout.contains("write FAILED"), "{stdout}");
    assert!(!stdout.contains("All figure checks passed"), "{stdout}");
}
