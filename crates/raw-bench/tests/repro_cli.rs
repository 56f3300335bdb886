//! `repro` treats a malformed or unlisted subcommand argument as a
//! usage error — the subcommand's usage line on stderr and exit code 2,
//! like an unknown experiment name — never as a panic, and never by
//! silently running something else.

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
    let cases: [&[&str]; 4] = [
        &["telemetry", "notanumber"],
        &["sched", "--bogus"],
        &["fib", "bogus"],
        &["fig3-2", "junk"],
    ];
    for args in cases {
        let stderr = rejected(args);
        assert!(
            stderr.contains(&format!("usage: repro -- {}", args[0])),
            "{args:?}: {stderr}"
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
