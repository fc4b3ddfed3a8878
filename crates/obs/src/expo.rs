//! Prometheus-style text exposition rendered from the metrics registry,
//! plus a strict line parser used by tests and the `loadgen serve`
//! gate to prove the output is scrapeable.
//!
//! Naming rules (documented in DESIGN.md):
//!
//! - every instrument is prefixed `omega_` and dots become underscores
//!   (`serve.cache_hits` → `omega_serve_cache_hits`);
//! - counters get the conventional `_total` suffix;
//! - a trailing `.cpu` / `.gpu` / `.fpga` name segment is lifted into a
//!   `backend` label, so `serve.latency.cpu` and `serve.latency.gpu`
//!   become one `omega_serve_latency` family with `backend="cpu"` /
//!   `backend="gpu"` samples;
//! - histograms expose cumulative `_bucket{le="..."}` series over the
//!   registry's power-of-4 bounds, plus `_sum` and `_count`.
//!
//! All sample values derive from `u64`/`i64` atomics, so the renderer can
//! never emit `NaN`; the parser still rejects it defensively.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{bucket_upper_bound, MetricsSnapshot, HISTOGRAM_BUCKETS};

const BACKEND_SUFFIXES: &[(&str, &str)] = &[(".cpu", "cpu"), (".gpu", "gpu"), (".fpga", "fpga")];

/// Maps an instrument name to its Prometheus family name: `omega_` prefix,
/// non-`[a-z0-9_]` characters folded to `_`.
pub fn family_name(instrument: &str) -> String {
    let mut out = String::from("omega_");
    for c in instrument.chars() {
        if c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' {
            out.push(c);
        } else if c.is_ascii_uppercase() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    out
}

/// Splits a trailing backend segment off an instrument name.
fn split_backend(instrument: &str) -> (&str, Option<&'static str>) {
    for (suffix, backend) in BACKEND_SUFFIXES {
        if let Some(base) = instrument.strip_suffix(suffix) {
            if !base.is_empty() {
                return (base, Some(backend));
            }
        }
    }
    (instrument, None)
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

struct Family {
    kind: &'static str,
    lines: Vec<String>,
}

/// Renders the snapshot in the Prometheus text exposition format
/// (content type `text/plain; version=0.0.4`).
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    // family name -> samples; BTreeMap keeps output deterministic and
    // merges per-backend instruments into one family.
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut add = |family: String, kind: &'static str, line: String| {
        families
            .entry(family)
            .or_insert_with(|| Family { kind, lines: Vec::new() })
            .lines
            .push(line);
    };

    for (name, value) in &snap.counters {
        let (base, backend) = split_backend(name);
        let family = family_name(base) + "_total";
        let labels = backend.map(|b| vec![("backend", b.to_string())]).unwrap_or_default();
        let line = format!("{family}{} {value}", label_block(&labels));
        add(family, "counter", line);
    }
    for (name, value) in &snap.gauges {
        let (base, backend) = split_backend(name);
        let family = family_name(base);
        let labels = backend.map(|b| vec![("backend", b.to_string())]).unwrap_or_default();
        let line = format!("{family}{} {value}", label_block(&labels));
        add(family, "gauge", line);
    }
    for (name, hist) in &snap.histograms {
        let (base, backend) = split_backend(name);
        let family = family_name(base);
        let base_labels: Vec<(&str, String)> =
            backend.map(|b| vec![("backend", b.to_string())]).unwrap_or_default();
        let mut cumulative = 0u64;
        let mut lines = Vec::with_capacity(HISTOGRAM_BUCKETS + 2);
        for (i, count) in hist.counts.iter().enumerate() {
            cumulative += count;
            let mut labels = base_labels.clone();
            let le = if i + 1 == HISTOGRAM_BUCKETS {
                "+Inf".to_string()
            } else {
                bucket_upper_bound(i).to_string()
            };
            labels.push(("le", le));
            lines.push(format!("{family}_bucket{} {cumulative}", label_block(&labels)));
        }
        lines.push(format!("{family}_sum{} {}", label_block(&base_labels), hist.sum));
        lines.push(format!("{family}_count{} {cumulative}", label_block(&base_labels)));
        for line in lines {
            add(family.clone(), "histogram", line);
        }
    }

    let mut out = String::new();
    for (family, data) in families {
        let _ = writeln!(out, "# TYPE {family} {}", data.kind);
        for line in data.lines {
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses one quoted, escaped label value starting at `text` (which must
/// begin with `"`). Returns (decoded value, rest after the closing quote).
fn parse_label_value(text: &str) -> Result<(String, &str), String> {
    let mut rest = text.strip_prefix('"').ok_or("label value must start with '\"'")?;
    let mut out = String::new();
    loop {
        let mut chars = rest.char_indices();
        match chars.next() {
            None => return Err("unterminated label value".to_string()),
            Some((_, '"')) => return Ok((out, &rest[1..])),
            Some((_, '\\')) => match chars.next() {
                Some((i, '\\')) => {
                    out.push('\\');
                    rest = &rest[i + 1..];
                }
                Some((i, '"')) => {
                    out.push('"');
                    rest = &rest[i + 1..];
                }
                Some((i, 'n')) => {
                    out.push('\n');
                    rest = &rest[i + 1..];
                }
                _ => return Err("bad escape in label value".to_string()),
            },
            Some((i, c)) => {
                if c == '\n' {
                    return Err("raw newline in label value".to_string());
                }
                out.push(c);
                rest = &rest[i + c.len_utf8()..];
            }
        }
    }
}

fn parse_sample_line(line: &str) -> Result<(), String> {
    let name_end =
        line.find(['{', ' ']).ok_or_else(|| format!("no value separator in {line:?}"))?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut rest = &line[name_end..];
    if let Some(after_brace) = rest.strip_prefix('{') {
        rest = after_brace;
        loop {
            let eq = rest.find('=').ok_or_else(|| format!("label without '=' in {line:?}"))?;
            let label = &rest[..eq];
            if !valid_label_name(label) {
                return Err(format!("invalid label name {label:?}"));
            }
            let (_, after) = parse_label_value(&rest[eq + 1..])?;
            rest = after;
            if let Some(after_comma) = rest.strip_prefix(',') {
                rest = after_comma;
            } else if let Some(after_close) = rest.strip_prefix('}') {
                rest = after_close;
                break;
            } else {
                return Err(format!("expected ',' or '}}' in labels of {line:?}"));
            }
        }
    }
    let value = rest.trim_start_matches(' ');
    if value.is_empty() {
        return Err(format!("missing value in {line:?}"));
    }
    let parsed: f64 = value.parse().map_err(|_| format!("bad sample value {value:?}"))?;
    if parsed.is_nan() {
        return Err(format!("NaN sample value in {line:?}"));
    }
    Ok(())
}

/// Validates a text exposition document line by line; returns the number
/// of sample lines on success.
pub fn parse_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for line in text.lines() {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            // HELP and free comments pass through unvalidated.
            if let Some("TYPE") = words.next() {
                let name = words.next().ok_or("# TYPE missing name")?;
                if !valid_metric_name(name) {
                    return Err(format!("invalid family name {name:?}"));
                }
                match words.next() {
                    Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                    other => return Err(format!("bad TYPE kind {other:?}")),
                }
            }
            continue;
        }
        parse_sample_line(line)?;
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn hist(counts: &[(usize, u64)], sum: u64) -> HistogramSnapshot {
        let mut h = HistogramSnapshot { counts: [0; HISTOGRAM_BUCKETS], sum };
        for (i, c) in counts {
            h.counts[*i] = *c;
        }
        h
    }

    #[test]
    fn renders_and_parses_a_real_shape() {
        let snap = MetricsSnapshot {
            counters: vec![
                ("serve.cache_hits".to_string(), 12),
                ("serve.lane.cpu".to_string(), 3),
                ("serve.lane.gpu".to_string(), 4),
            ],
            gauges: vec![("serve.queue_depth".to_string(), -1)],
            histograms: vec![
                ("serve.kernel_ns.cpu".to_string(), hist(&[(0, 1), (5, 2)], 2050)),
                ("serve.kernel_ns.gpu".to_string(), hist(&[(3, 1)], 100)),
            ],
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE omega_serve_cache_hits_total counter"));
        assert!(text.contains("omega_serve_cache_hits_total 12"));
        // Backend suffixes become labels merged into one family.
        assert!(text.contains("omega_serve_lane_total{backend=\"cpu\"} 3"));
        assert!(text.contains("omega_serve_lane_total{backend=\"gpu\"} 4"));
        assert_eq!(text.matches("# TYPE omega_serve_lane_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE omega_serve_kernel_ns histogram").count(), 1);
        assert!(text.contains("omega_serve_kernel_ns_bucket{backend=\"cpu\",le=\"3\"} 1"));
        assert!(text.contains("omega_serve_kernel_ns_bucket{backend=\"cpu\",le=\"+Inf\"} 3"));
        assert!(text.contains("omega_serve_kernel_ns_sum{backend=\"cpu\"} 2050"));
        assert!(text.contains("omega_serve_kernel_ns_count{backend=\"gpu\"} 1"));
        assert!(text.contains("omega_serve_queue_depth -1"));
        let samples = parse_prometheus(&text).expect("parses");
        // 3 counters + 1 gauge + 2 * (16 buckets + sum + count).
        assert_eq!(samples, 3 + 1 + 2 * (HISTOGRAM_BUCKETS + 2));
    }

    #[test]
    fn bucket_bounds_are_cumulative_powers_of_four() {
        let snap = MetricsSnapshot {
            histograms: vec![("x".to_string(), hist(&[(0, 2), (1, 3)], 40))],
            ..Default::default()
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("omega_x_bucket{le=\"3\"} 2"), "{text}");
        assert!(text.contains("omega_x_bucket{le=\"15\"} 5"), "{text}");
        assert!(text.contains("omega_x_bucket{le=\"63\"} 5"), "{text}");
        assert!(text.contains("omega_x_count 5"), "{text}");
    }

    #[test]
    fn label_escaping_round_trips() {
        let nasty = "a\"b\\c\nd";
        let escaped = escape_label_value(nasty);
        assert!(!escaped.contains('\n'));
        let line = format!("m{{k=\"{escaped}\"}} 1");
        parse_sample_line(&line).expect("escaped label parses");
        let (value, _) = parse_label_value(&format!("\"{escaped}\"")).expect("decodes");
        assert_eq!(value, nasty);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "1leading_digit 1",
            "name{k=unquoted} 1",
            "name{k=\"unterminated} 1",
            "name{} ",
            "name NaN",
            "name{bad-label=\"x\"} 1",
        ] {
            assert!(parse_prometheus(bad).is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(parse_prometheus("# HELP anything goes\nname 1\n").unwrap(), 1);
    }
}
