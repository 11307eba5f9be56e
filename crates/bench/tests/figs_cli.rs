//! The `figs` front end: a known figure prints exactly the committed
//! `results/<name>.txt`, and any other argument list is refused with the
//! usage line and the figure names before anything runs or is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn figs(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("figs runs")
}

/// A fresh, empty working directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("figs-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn fig4_prints_the_committed_topology() {
    let dir = scratch_dir("fig4");
    let out = figs(&["fig4"], &dir);
    assert!(out.status.success(), "{out:?}");
    let committed = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig4.txt"
    ))
    .expect("committed results/fig4.txt");
    assert!(
        out.stdout == committed,
        "figs fig4 differs from results/fig4.txt:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_exit_2_with_the_names_and_write_nothing() {
    for (tag, args) in [
        ("none", &[][..]),
        ("unknown", &["fig2"][..]),
        ("typo", &["fig1", "--fsat"][..]),
    ] {
        let dir = scratch_dir(tag);
        let out = figs(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a figure");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: figs <name> [--fast]"), "{err}");
        for name in [
            "fig1",
            "fig4",
            "table1",
            "sec3",
            "ablations",
            "chaos_ranks",
            "qdisc_ablation",
        ] {
            assert!(err.contains(name), "{args:?}: usage lacks {name}: {err}");
        }
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
