//! Records the compiler version and, when built from a git checkout, the
//! commit, for the run record every output carries.

use std::process::Command;

fn output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let commit = output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=LEDGER_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=LEDGER_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
