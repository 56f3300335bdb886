//! `repro` treats a malformed subcommand argument as a usage error —
//! the subcommand's usage line on stderr and exit code 2, like an
//! unknown experiment name — never as a panic.

use std::process::Command;

#[test]
fn malformed_arguments_print_usage_and_exit_2() {
    for args in [["simspeed", "notanumber"], ["sched", "--bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: repro -- {}", args[0])),
            "{args:?}: {stderr}"
        );
    }
}
