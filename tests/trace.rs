//! Acceptance test for the observability flags: a GPU-backend scan with
//! `-trace` and `-metrics` must produce a parseable JSONL trace with spans
//! from every instrumented layer and a rich metrics snapshot.

use std::io::Write;
use std::process::Command;

use omegaplus_rs::genome::ms::write_ms;
use omegaplus_rs::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn write_dataset(path: &std::path::Path) {
    let neutral = NeutralParams { n_samples: 20, theta: 30.0, rho: 15.0, region_len_bp: 80_000 };
    let sweep = SweepParams { position: 0.5, alpha: 10.0, swept_fraction: 1.0 };
    let mut rng = StdRng::seed_from_u64(5);
    let a = simulate_sweep(&neutral, &sweep, &mut rng).unwrap();
    let mut f = std::fs::File::create(path).unwrap();
    let mut buf = Vec::new();
    write_ms(&mut buf, &[a]).unwrap();
    f.write_all(&buf).unwrap();
}

#[test]
fn gpu_scan_emits_full_trace_and_metrics() {
    let dir = std::env::temp_dir().join("omegaplus_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.ms");
    let trace = dir.join("out.jsonl");
    write_dataset(&input);

    let out = Command::new(env!("CARGO_BIN_EXE_omegaplus"))
        .args([
            "-name",
            "trace-run",
            "-input",
            input.to_str().unwrap(),
            "-length",
            "80000",
            "-grid",
            "10",
            "-minwin",
            "500",
            "-maxwin",
            "30000",
            "-backend",
            "gpu",
            "-trace",
            trace.to_str().unwrap(),
            "-metrics",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // -metrics prints the registry table to stderr after the scan.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("omega.evaluations"), "metrics table missing: {stderr}");

    let events = omega_obs::read_trace(&trace).unwrap();
    let span_names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            omega_obs::TraceEvent::Span(s) => Some(s.name.as_str()),
            _ => None,
        })
        .collect();
    // One span from each instrumented layer a GPU run crosses: accel
    // dispatch, core matrix/ω, and the GPU engine recording each priced
    // position.
    for name in ["accel.detect", "matrix.advance", "omega.kernel", "gpu.estimate"] {
        assert!(span_names.contains(&name), "missing span '{name}' in {span_names:?}");
    }

    let snap = events
        .iter()
        .rev()
        .find_map(|e| match e {
            omega_obs::TraceEvent::Metrics(m) => Some(&m.snapshot),
            _ => None,
        })
        .expect("trace must end with a metrics snapshot");
    let distinct = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
    assert!(distinct >= 8, "only {distinct} distinct metric names");
}
