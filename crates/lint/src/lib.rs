//! `omega-lint`: the workspace's invariant lint pass.
//!
//! The ω engine carries invariants the compiler cannot see — the kernel
//! datapath is f32 end-to-end and bitwise-identical across backends,
//! score comparisons must use total orders so NaN can never reorder a
//! scan, library crates must surface errors instead of panicking,
//! instrument names must come from one registry, simulator accounting
//! must go through the `core::units` newtypes, and the serving stack's
//! locks, WAL records, and wire-derived lengths must follow their
//! protocols. This crate lexes every crate's sources as [`syn`] token
//! trees, structures them with [`scopes`] (item tree) and [`dataflow`]
//! (per-function event streams), and runs the [`rules`] pack over both
//! views via [`engine`], reporting `file:line:column` diagnostics.
//!
//! Rules (ids are what waivers and the baseline refer to):
//!
//! * **`float-total-order`** — no `==`/`!=` against float operands or
//!   ω/score-named identifiers, and no `partial_cmp`, anywhere; use
//!   `f64::total_cmp` or `core::kernel::total_order_key{,_f64}`.
//! * **`no-f64-kernel`** — no `f64` in the kernel datapath files. The
//!   ω datapath is deliberately f32 end-to-end (the cross-backend
//!   bit-identity contract); `f64` creeping in would silently change
//!   scores. See DESIGN.md "Invariants & static analysis".
//! * **`no-panic-lib`** — no `.unwrap()` / `.expect(…)` / `panic!` in
//!   library sources (binaries and `#[cfg(test)]` code are exempt).
//! * **`counter-registry`** — every name literal passed to `span!` /
//!   `counter!` / `gauge!` / `histogram!` must be listed in
//!   `crates/obs/src/names.rs` (`test.`-prefixed names are exempt).
//! * **`unit-hygiene`** — in the `gpu-sim`/`fpga-sim` simulators, no
//!   `_us`/`_ns`-suffixed raw quantities, no bare `1e-6`/`1e-9`
//!   time-conversion constants, and no raw `*`/`/` arithmetic between a
//!   `_cycles`/`_bytes`-named identifier and a numeric literal; unit
//!   crossings belong to the named conversions in `core::units`.
//! * **`lock-order`** — the declared partial order over the
//!   workspace's mutex sites (serve lanes/jobs/cache/wal before the
//!   obs trace/sink/metrics locks); acquiring against the order while
//!   a guard is live, or re-acquiring a held site, is a finding.
//! * **`wal-protocol`** — a terminal `Done` WAL record must be
//!   sequenced after the store write on its path, and every `rename`
//!   must complete the tmp+fsync+rename durable-replace triple.
//! * **`untrusted-length`** — a length parsed or byte-decoded from
//!   network/WAL input must pass a bound check (`<`-family compare,
//!   `min`, `clamp`) before sizing a buffer (`with_capacity`,
//!   `resize`, `vec![…; n]`, …).
//! * **`atomic-ordering`** — `Ordering::Relaxed` on atomics used for
//!   cross-thread publication, outside the named allowlist of pure
//!   counters.
//!
//! Escapes, in order of preference:
//!
//! 1. fix the code;
//! 2. an inline waiver `// lint:allow(rule): reason` (covers its own
//!    line and the next; the reason is mandatory);
//! 3. the checked-in baseline (`crates/lint/baseline.txt`) of legacy
//!    findings, which the CLI exempts so CI only fails on *new* debt.
//!
//! `#[cfg(test)]`-gated items are skipped by every rule: tests assert
//! bit-identity with raw `==` and panic by design.

use std::collections::HashSet;
use std::fmt;
use std::path::Path;

use syn::{Delimiter, Group, TokenTree};

pub mod dataflow;
pub mod engine;
pub mod rules;
pub mod scopes;

/// All rule ids, sorted.
pub const RULES: &[&str] = &[
    "atomic-ordering",
    "counter-registry",
    "float-total-order",
    "lock-order",
    "no-f64-kernel",
    "no-panic-lib",
    "unit-hygiene",
    "untrusted-length",
    "wal-protocol",
];

/// The five rules the engine ported from the v1 lexical walker (pinned
/// to frozen expected findings by `tests/ported_golden.rs`).
pub const PORTED_RULES: &[&str] =
    &["counter-registry", "float-total-order", "no-f64-kernel", "no-panic-lib", "unit-hygiene"];

/// Kernel-datapath files for `no-f64-kernel` (repo-relative).
const KERNEL_DATAPATH: &[&str] = &[
    "crates/core/src/kernel.rs",
    "crates/core/src/simd.rs",
    "crates/fpga-sim/src/pipeline.rs",
    "crates/fpga-sim/src/stages.rs",
    "crates/gpu-sim/src/kernels.rs",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    pub line: usize,
    pub column: usize,
    pub message: String,
}

impl Finding {
    /// The baseline key. Includes the column so two same-rule findings
    /// on one line cannot share a key (fixing one used to silently
    /// waive the other).
    pub fn key(&self) -> String {
        format!("{}:{}:{} {}", self.file, self.line, self.column, self.rule)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}: {}", self.file, self.line, self.column, self.rule, self.message)
    }
}

/// Which rule families apply to a file, derived from its path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Library source: `no-panic-lib` applies (not a binary target).
    pub lib_source: bool,
    /// Kernel datapath file: `no-f64-kernel` applies.
    pub kernel_datapath: bool,
    /// Simulator crate source: `unit-hygiene` applies.
    pub sim_crate: bool,
}

/// Classifies a repo-relative, `/`-separated path.
pub fn classify(rel: &str) -> FileClass {
    let in_src = rel.contains("/src/") || rel.starts_with("src/");
    let is_bin = rel.contains("/bin/") || rel.ends_with("/main.rs") || rel == "src/main.rs";
    FileClass {
        lib_source: in_src && !is_bin,
        kernel_datapath: KERNEL_DATAPATH.contains(&rel),
        sim_crate: (rel.starts_with("crates/gpu-sim/src/")
            || rel.starts_with("crates/fpga-sim/src/"))
            && !is_bin,
    }
}

/// The instrument-name registry (`counter-registry`'s ground truth).
#[derive(Debug, Default, Clone)]
pub struct Registry {
    names: HashSet<String>,
}

impl Registry {
    /// A registry over the given names (fixture tests build these).
    pub fn from_names<I: IntoIterator<Item = S>, S: Into<String>>(names: I) -> Self {
        Registry { names: names.into_iter().map(Into::into).collect() }
    }

    /// Whether `name` may be used as an instrument name.
    pub fn is_registered(&self, name: &str) -> bool {
        name.starts_with("test.") || self.names.contains(name)
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the registry holds no names.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Extracts the registry from `crates/obs/src/names.rs` source text: the
/// string literals of the bracket array assigned to `INSTRUMENTS`.
pub fn registry_from_names_rs(src: &str) -> Result<Registry, syn::Error> {
    let file = syn::parse_file(src)?;
    let mut names = HashSet::new();
    collect_instruments(&file.tokens, &mut names);
    Ok(Registry { names })
}

fn collect_instruments(tokens: &[TokenTree], out: &mut HashSet<String>) {
    let mut after_instruments = false;
    let mut after_eq = false;
    for t in tokens {
        match t {
            TokenTree::Ident(id) if id.as_str() == "INSTRUMENTS" => {
                after_instruments = true;
                after_eq = false;
            }
            TokenTree::Punct(p) if after_instruments && p.as_str() == "=" => after_eq = true,
            TokenTree::Group(g) => {
                if after_instruments && after_eq && g.delimiter() == Delimiter::Bracket {
                    for inner in g.tokens() {
                        if let TokenTree::Literal(l) = inner {
                            if let Some(v) = l.str_value() {
                                out.insert(v.to_string());
                            }
                        }
                    }
                    return;
                }
                collect_instruments(g.tokens(), out);
            }
            TokenTree::Punct(p) if p.as_str() == ";" => {
                after_instruments = false;
                after_eq = false;
            }
            _ => {}
        }
    }
}

/// An inline waiver: `// lint:allow(rule): reason`, covering its own
/// line and the next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub rule: String,
    pub line: usize,
}

/// Parses waiver comments out of raw source. A waiver without a
/// non-empty reason after the `):` is ignored — the finding it meant to
/// suppress then fires, which is the enforcement.
pub fn parse_waivers(src: &str) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(comment_at) = line.find("//") else { continue };
        let comment = &line[comment_at..];
        let Some(at) = comment.find("lint:allow(") else { continue };
        let rest = &comment[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let rule = &rest[..close];
        let after = &rest[close + 1..];
        let Some(reason) = after.strip_prefix(':') else { continue };
        if rule.is_empty() || reason.trim().is_empty() {
            continue;
        }
        out.push(Waiver { rule: rule.trim().to_string(), line: idx + 1 });
    }
    out
}

/// Lints one file's source through the engine. `rel` is the
/// repo-relative path that scopes the rules (see [`classify`]); waivers
/// are applied before returning.
pub fn lint_source(rel: &str, src: &str, registry: &Registry) -> Result<Vec<Finding>, syn::Error> {
    let file = syn::parse_file(src)?;
    let ctx = engine::FileCtx { rel, class: classify(rel), registry };
    let mut findings = engine::run(&file, &ctx);
    let waivers = parse_waivers(src);
    findings.retain(|f| {
        !waivers.iter().any(|w| w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line))
    });
    findings.sort_by(|a, b| (a.line, a.column, a.rule).cmp(&(b.line, b.column, b.rule)));
    Ok(findings)
}

pub(crate) fn is_punct(t: Option<&TokenTree>, op: &str) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_str() == op)
}

/// Whether an attribute group is exactly `cfg(test)` (not `cfg(not(test))`).
pub(crate) fn attr_is_cfg_test(g: &Group) -> bool {
    let toks = g.tokens();
    matches!(
        (toks.first(), toks.get(1)),
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args)))
            if id.as_str() == "cfg"
                && args.delimiter() == Delimiter::Parenthesis
                && args.tokens().len() == 1
                && matches!(args.tokens().first(), Some(TokenTree::Ident(a)) if a.as_str() == "test")
    )
}

/// Whether an identifier names an ω/score quantity (the values whose
/// comparisons must be total-order).
pub(crate) fn is_score_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("omega") || lower.contains("score")
}

pub(crate) fn is_float_literal(t: Option<&TokenTree>) -> bool {
    matches!(t, Some(TokenTree::Literal(l)) if l.is_float())
}

pub(crate) fn ident_text(t: Option<&TokenTree>) -> Option<&str> {
    match t {
        Some(TokenTree::Ident(id)) => Some(id.as_str()),
        _ => None,
    }
}

/// Whether an identifier carries a raw-unit suffix `unit-hygiene`
/// polices with arithmetic adjacency.
pub(crate) fn is_unit_named(name: &str) -> bool {
    name.ends_with("_cycles") || name.ends_with("_bytes")
}

pub(crate) fn is_number(t: Option<&TokenTree>) -> bool {
    matches!(t, Some(TokenTree::Literal(l))
        if l.as_str().chars().next().is_some_and(|c| c.is_ascii_digit()))
}

/// The baseline: keys of known legacy findings CI tolerates.
pub mod baseline {
    use std::collections::HashSet;

    use super::Finding;

    /// Parses baseline text (one `file:line:column rule` finding key per
    /// line; blank lines and `#` comments ignored).
    pub fn parse(text: &str) -> HashSet<String> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    /// Whether the baseline exempts `f`.
    pub fn covers(set: &HashSet<String>, f: &Finding) -> bool {
        set.contains(&f.key())
    }

    /// Renders findings as baseline text, sorted.
    pub fn render(keys: &[String]) -> String {
        let mut sorted: Vec<&str> = keys.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        let mut out = String::from(
            "# omega-lint baseline: legacy findings tolerated by CI.\n\
             # Regenerate with `cargo run -p omega-lint -- --write-baseline`.\n",
        );
        for k in sorted {
            out.push_str(k);
            out.push('\n');
        }
        out
    }
}

/// Machine-readable reports (`--format json` / `--format github`).
pub mod report {
    use super::Finding;

    fn escape_json(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
    }

    /// Renders findings as a JSON array of objects with `rule`, `file`,
    /// `line`, `column`, `message`, and `baselined` fields. Stable
    /// field order; one finding per element in input order.
    pub fn render_json(findings: &[(Finding, bool)]) -> String {
        let mut out = String::from("[");
        for (i, (f, baselined)) in findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"rule\":\"");
            escape_json(f.rule, &mut out);
            out.push_str("\",\"file\":\"");
            escape_json(&f.file, &mut out);
            out.push_str(&format!("\",\"line\":{},\"column\":{},\"message\":\"", f.line, f.column));
            escape_json(&f.message, &mut out);
            out.push_str(&format!("\",\"baselined\":{baselined}}}"));
        }
        out.push_str("\n]\n");
        out
    }

    /// Renders findings as GitHub Actions workflow annotations, so CI
    /// failures link to file:line in the PR diff. New findings are
    /// `::error`, baselined ones `::notice`.
    pub fn render_github(findings: &[(Finding, bool)]) -> String {
        let mut out = String::new();
        for (f, baselined) in findings {
            let level = if *baselined { "notice" } else { "error" };
            // Annotation messages must be single-line; properties use
            // %0A-style escapes but our messages never contain them.
            out.push_str(&format!(
                "::{level} file={},line={},col={},title=omega-lint {}::{}\n",
                f.file, f.line, f.column, f.rule, f.message
            ));
        }
        out
    }
}

/// Walks `root` and lints every workspace source file: `crates/*/src`
/// recursively plus the top-level `src/`. Returns findings plus
/// non-fatal errors (unreadable or unlexable files).
pub fn lint_repo(root: &Path, registry: &Registry) -> (Vec<Finding>, Vec<String>) {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            collect_rs(&entry.path().join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    files.sort();

    let mut findings = Vec::new();
    let mut errors = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        match std::fs::read_to_string(&path) {
            Ok(src) => match lint_source(&rel, &src, registry) {
                Ok(mut f) => findings.append(&mut f),
                Err(e) => errors.push(format!("{rel}: lex error: {e}")),
            },
            Err(e) => errors.push(format!("{rel}: {e}")),
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.rule).cmp(&(&b.file, b.line, b.column, b.rule))
    });
    (findings, errors)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        Registry::from_names(["scan.steals", "omega_max"])
    }

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(rel, src, &reg()).expect("fixture lexes")
    }

    #[test]
    fn partial_cmp_fires_and_waives() {
        let src = "fn f(a: f32, b: f32) { a.partial_cmp(&b); }\n";
        let f = run("crates/core/src/omega.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float-total-order");
        assert_eq!(f[0].line, 1);

        let waived = "// lint:allow(float-total-order): fixture reason\nfn f(a: f32, b: f32) { a.partial_cmp(&b); }\n";
        assert!(run("crates/core/src/omega.rs", waived).is_empty());
    }

    #[test]
    fn float_eq_requires_float_or_score_operand() {
        let hits = run("crates/core/src/scan.rs", "fn f(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(hits.len(), 1);
        let hits = run(
            "crates/core/src/scan.rs",
            "fn f(s: u64, omega_best: f32) -> bool { s == 4 && omega_best != omega_best }\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(run("crates/core/src/scan.rs", "fn f(n: usize) -> bool { n == 4 }\n").is_empty());
    }

    #[test]
    fn waiver_without_reason_is_inert() {
        let src = "// lint:allow(float-total-order):\nfn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(run("crates/core/src/scan.rs", src).len(), 1);
        let src = "// lint:allow(float-total-order)\nfn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(run("crates/core/src/scan.rs", src).len(), 1);
    }

    #[test]
    fn no_panic_lib_scopes_to_lib_sources() {
        let src = "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        assert_eq!(run("crates/genome/src/ms.rs", src).len(), 1);
        assert!(run("crates/bench/src/bin/bench_omega.rs", src).is_empty());
        assert!(run("src/main.rs", src).is_empty());

        let expect = "pub fn f(v: Option<u8>) -> u8 { v.expect(\"set\") }\n";
        assert_eq!(run("crates/genome/src/ms.rs", expect).len(), 1);
        let bang = "pub fn f() { panic!(\"boom\"); }\n";
        assert_eq!(run("crates/genome/src/ms.rs", bang).len(), 1);
        // `unwrap_or` is a different identifier and must not fire.
        assert!(run(
            "crates/genome/src/ms.rs",
            "pub fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n"
        )
        .is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(v: Option<u8>) -> u8 { v.unwrap() }\n}\n";
        assert!(run("crates/genome/src/ms.rs", src).is_empty());
        // cfg(not(test)) is NOT exempt.
        let src =
            "#[cfg(not(test))]\nmod m {\n    pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n}\n";
        assert_eq!(run("crates/genome/src/ms.rs", src).len(), 1);
    }

    #[test]
    fn no_f64_kernel_scopes_to_datapath_files() {
        let src = "pub fn f(x: f32) -> f64 { x as f64 }\n";
        assert_eq!(run("crates/core/src/kernel.rs", src).len(), 2);
        assert!(run("crates/core/src/scan.rs", src).is_empty());
    }

    #[test]
    fn counter_registry_checks_instrument_names() {
        let ok = "fn f() { omega_obs::counter!(\"scan.steals\").add(1); }\n";
        assert!(run("crates/core/src/parallel.rs", ok).is_empty());
        let test_ns = "fn f() { omega_obs::counter!(\"test.whatever\").add(1); }\n";
        assert!(run("crates/core/src/parallel.rs", test_ns).is_empty());
        let bad = "fn f() { omega_obs::counter!(\"scan.stales\").add(1); }\n";
        let f = run("crates/core/src/parallel.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "counter-registry");
        let bad_span = "fn f() { let _s = omega_obs::span!(\"nope\"); }\n";
        assert_eq!(run("crates/core/src/parallel.rs", bad_span).len(), 1);
    }

    #[test]
    fn unit_hygiene_scopes_to_simulators() {
        let suffixed = "pub fn f(pcie_latency_us: u64) -> u64 { pcie_latency_us }\n";
        assert_eq!(run("crates/gpu-sim/src/cost.rs", suffixed).len(), 2);
        assert!(run("crates/core/src/scan.rs", suffixed).is_empty());

        let bare = "pub fn f(ns: u64) -> f64 { ns as f64 * 1e-9 }\n";
        assert_eq!(run("crates/fpga-sim/src/schedule.rs", bare).len(), 1);

        let arith = "pub fn f(transfer_bytes: u64) -> u64 { transfer_bytes * 8 }\n";
        assert_eq!(run("crates/gpu-sim/src/overlap.rs", arith).len(), 1);
        // Newtype-to-newtype arithmetic has no literal operand: clean.
        let clean = "pub fn f(a: Bytes, b: Bytes) -> Bytes { a + b }\n";
        assert!(run("crates/gpu-sim/src/overlap.rs", clean).is_empty());
    }

    #[test]
    fn registry_parses_names_rs_shape() {
        let src = "pub const INSTRUMENTS: &[&str] = &[\n    \"a.b\",\n    \"c.d\",\n];\n\
                   #[cfg(test)]\nmod tests { const OTHER: &str = \"not.me\"; }\n";
        let reg = registry_from_names_rs(src).expect("lexes");
        assert!(reg.is_registered("a.b"));
        assert!(reg.is_registered("c.d"));
        assert!(!reg.is_registered("not.me"));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn baseline_round_trip() {
        let keys = vec![
            "crates/a/src/x.rs:10:5 no-panic-lib".to_string(),
            "crates/a/src/b.rs:3:1 float-total-order".to_string(),
        ];
        let text = baseline::render(&keys);
        let parsed = baseline::parse(&text);
        assert_eq!(parsed.len(), 2);
        assert!(parsed.contains("crates/a/src/x.rs:10:5 no-panic-lib"));

        let f = Finding {
            rule: "no-panic-lib",
            file: "crates/a/src/x.rs".into(),
            line: 10,
            column: 5,
            message: "m".into(),
        };
        assert!(baseline::covers(&parsed, &f));
        // A different column on the same line does not collide.
        let other_col = Finding { column: 30, ..f.clone() };
        assert!(!baseline::covers(&parsed, &other_col));
    }

    #[test]
    fn finding_key_and_display() {
        let f = Finding {
            rule: "no-panic-lib",
            file: "crates/genome/src/ms.rs".into(),
            line: 7,
            column: 9,
            message: "m".into(),
        };
        assert_eq!(f.key(), "crates/genome/src/ms.rs:7:9 no-panic-lib");
        assert_eq!(f.to_string(), "crates/genome/src/ms.rs:7:9: no-panic-lib: m");
    }

    #[test]
    fn rules_const_is_sorted_and_complete() {
        let mut sorted = RULES.to_vec();
        sorted.sort_unstable();
        assert_eq!(RULES, sorted.as_slice());
        assert_eq!(RULES.len(), 9);
        let ids: Vec<&str> = rules::all().iter().map(|r| r.id()).collect();
        for id in RULES {
            assert!(ids.contains(id), "{id} has no rule impl");
        }
        for p in PORTED_RULES {
            assert!(RULES.contains(p));
        }
    }
}
