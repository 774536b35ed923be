//! `jc-lint` — run the workspace invariant checks from the command line.
//!
//! ```text
//! cargo run -p jc-lint                    # check, exit 1 on findings
//! cargo run -p jc-lint -- --write-ledger  # regenerate docs/UNSAFE_LEDGER.md
//! cargo run -p jc-lint -- --root <dir>    # check a different tree
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut write_ledger = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("jc-lint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--write-ledger" => write_ledger = true,
            "--help" | "-h" => {
                println!(
                    "jc-lint: workspace invariant checker\n\n\
                     USAGE: jc-lint [--root DIR] [--write-ledger]\n\n\
                     Lints: unsafe-audit, wire-exhaustiveness, no-alloc, determinism, env-registry, \
                     doc-paths.\n\
                     Waive a line with `// jc-lint: allow(<lint>): <reason>`;\n\
                     the reason is mandatory."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("jc-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    // Resolve the workspace root: accept being invoked from a crate dir
    // (cargo run sets cwd to the invocation dir, not the workspace).
    if !root.join("crates").is_dir() {
        for up in ["..", "../.."] {
            let candidate = root.join(up);
            if candidate.join("crates").is_dir() && candidate.join("Cargo.toml").is_file() {
                root = candidate;
                break;
            }
        }
    }

    if write_ledger {
        // Regenerate the committed inventory, then fall through to the
        // full check so the run still reports any remaining findings.
        let mut sites = Vec::new();
        for rel in jc_lint::workspace_rs_files(&root) {
            if let Ok(f) = jc_lint::SourceFile::load(&root, &rel) {
                let _ = jc_lint::lints::unsafe_audit::check(&f, &mut sites);
            }
        }
        if let Err(e) = jc_lint::ledger::write(&root, &sites) {
            eprintln!("jc-lint: failed to write {}: {e}", jc_lint::ledger::LEDGER_PATH);
            return ExitCode::from(2);
        }
        println!("wrote {} ({} unsafe sites)", jc_lint::ledger::LEDGER_PATH, sites.len());
    }

    let diags = jc_lint::run_all(&root);
    if diags.is_empty() {
        println!("jc-lint: workspace clean (6 lints, 0 findings)");
        return ExitCode::SUCCESS;
    }
    for d in &diags {
        println!("{d}");
    }
    let mut by_lint: Vec<(&str, usize)> = Vec::new();
    for d in &diags {
        match by_lint.iter_mut().find(|(name, _)| *name == d.lint) {
            Some((_, n)) => *n += 1,
            None => by_lint.push((d.lint, 1)),
        }
    }
    let summary: Vec<String> = by_lint.iter().map(|(name, n)| format!("{name}: {n}")).collect();
    eprintln!("\njc-lint: {} finding(s) ({})", diags.len(), summary.join(", "));
    ExitCode::FAILURE
}
