//! `repro` treats a malformed or unlisted subcommand argument as a
//! usage error — the subcommand's usage line on stderr and exit code 2,
//! like an unknown experiment name — never as a panic, and never by
//! silently running something else; and a `results/` it cannot write as
//! exit code 1 with the path, not a panic either.

use std::process::Command;

/// Run the real binary; it must exit 2 without panicking. Its stderr.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn malformed_arguments_print_usage_and_exit_2() {
    // A count below 1 is refused too: it would run an empty experiment
    // into its own gate.
    let cases: [&[&str]; 7] = [
        &["telemetry", "notanumber"],
        &["sched", "--bogus"],
        &["fib", "bogus"],
        &["fig3-2", "junk"],
        &["fabric", "0"],
        &["chaos", "0"],
        &["fabric", "--smoke", "x"],
    ];
    for args in cases {
        let stderr = rejected(args);
        assert!(
            stderr.contains(&format!("usage: repro -- {}", args[0])),
            "{args:?}: {stderr}"
        );
    }

    // A fabric run shorter than its throughput gate needs is refused
    // by name, with the minimum.
    for n in ["1", "119"] {
        let stderr = rejected(&["fabric", n]);
        assert!(
            stderr.contains("a packet count must be at least 120"),
            "fabric {n}: {stderr}"
        );
    }

    // An unknown experiment lists the experiment table; every name it
    // lists is a real entry that rejects arguments it does not take.
    let stderr = rejected(&["simspeed"]);
    let (_, list) = stderr.split_once("Available: all ").expect("a list");
    let names: Vec<&str> = list.split_whitespace().collect();
    assert!(names.len() >= 20, "{list}");
    for name in names {
        let stderr = rejected(&[name, "1", "junk"]);
        assert!(
            stderr.contains(&format!("usage: repro -- {name}")),
            "{name}: {stderr}"
        );
    }
}

/// Where `results` cannot be a directory (it is a regular file here),
/// `repro` reports the path it could not write and exits 1 — for the JSON
/// results and the raw CSV traces alike — instead of panicking.
#[test]
fn an_unwritable_results_directory_exits_1_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("repro-cli-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("results"), "not a directory").unwrap();
    for (exp, file) in [("fig3-2", "fig3_2.json"), ("fig7-3", "fig7_3_64.csv")] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(exp)
            .current_dir(&dir)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exp}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{exp}: {stderr}");
        assert!(
            stderr.contains(&format!("cannot write results/{file}: ")),
            "{exp}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The smallest count `chaos` takes is a whole run: every scenario
/// drains inside a deadline sized from the packets it offered, so its
/// accounting closes and `repro` exits 0.
#[test]
fn the_smallest_chaos_count_closes_its_accounting() {
    let dir = std::env::temp_dir().join(format!("repro-cli-chaos-1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["chaos", "1"])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(dir.join("results/chaos.json").is_file());
    std::fs::remove_dir_all(&dir).unwrap();
}
