//! The `omega-lint` CLI: lints every workspace source file and reports
//! `file:line:column: rule: message` diagnostics.
//!
//! Exit status: 0 when every finding is waived or baselined, 1 when any
//! *new* finding (or a lex/read error) exists. CI runs
//! `cargo run -p omega-lint -- --deny-new`.
//!
//! Flags:
//!
//! * `--deny-new` — explicit alias of the default behaviour, kept so the
//!   CI invocation documents its intent;
//! * `--no-baseline` — report and fail on baselined findings too;
//! * `--write-baseline` — rewrite `crates/lint/baseline.txt` from the
//!   current findings (`file:line:column rule` keys) and exit 0;
//! * `--format text|json|github` — output format: human text (default),
//!   a JSON findings array, or GitHub Actions annotations;
//! * `--root <path>` — repo root (default: two levels above this
//!   crate's manifest).

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut deny_new = false;
    let mut use_baseline = true;
    let mut write_baseline = false;
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-new" => deny_new = true,
            "--no-baseline" => use_baseline = false,
            "--write-baseline" => write_baseline = true,
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!("omega-lint: --format needs text, json, or github (got {other:?})");
                    return ExitCode::FAILURE;
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("omega-lint: --root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("omega-lint: unknown flag {other:?}");
                eprintln!(
                    "usage: omega-lint [--deny-new] [--no-baseline] [--write-baseline] \
                     [--format text|json|github] [--root <path>]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = deny_new; // deny-new is the default; the flag documents it.

    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));

    // The instrument registry is ground truth for counter-registry; a
    // missing or unlexable names.rs is itself a hard error, otherwise
    // every instrument name would silently count as unregistered.
    let names_path = root.join("crates/obs/src/names.rs");
    let registry = match std::fs::read_to_string(&names_path)
        .map_err(|e| e.to_string())
        .and_then(|src| omega_lint::registry_from_names_rs(&src).map_err(|e| e.to_string()))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("omega-lint: cannot load {}: {e}", names_path.display());
            return ExitCode::FAILURE;
        }
    };

    let (findings, errors) = omega_lint::lint_repo(&root, &registry);
    for e in &errors {
        eprintln!("omega-lint: {e}");
    }

    if write_baseline {
        let keys: Vec<String> = findings.iter().map(omega_lint::Finding::key).collect();
        let text = omega_lint::baseline::render(&keys);
        let path = root.join("crates/lint/baseline.txt");
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("omega-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("omega-lint: wrote {} finding(s) to {}", findings.len(), path.display());
        return ExitCode::SUCCESS;
    }

    let baseline = if use_baseline {
        let path = root.join("crates/lint/baseline.txt");
        match std::fs::read_to_string(&path) {
            Ok(text) => omega_lint::baseline::parse(&text),
            Err(_) => Default::default(),
        }
    } else {
        Default::default()
    };

    let tagged: Vec<(omega_lint::Finding, bool)> = findings
        .into_iter()
        .map(|f| {
            let baselined = omega_lint::baseline::covers(&baseline, &f);
            (f, baselined)
        })
        .collect();
    let new = tagged.iter().filter(|(_, b)| !b).count();
    let old = tagged.len() - new;

    match format {
        Format::Text => {
            for (f, baselined) in &tagged {
                if *baselined {
                    println!("{f} (baselined)");
                } else {
                    println!("{f}");
                }
            }
            println!(
                "omega-lint: {} finding(s): {new} new, {old} baselined, {} file error(s)",
                tagged.len(),
                errors.len()
            );
        }
        Format::Json => print!("{}", omega_lint::report::render_json(&tagged)),
        Format::Github => {
            print!("{}", omega_lint::report::render_github(&tagged));
            println!(
                "omega-lint: {} finding(s): {new} new, {old} baselined, {} file error(s)",
                tagged.len(),
                errors.len()
            );
        }
    }

    if new > 0 || !errors.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
