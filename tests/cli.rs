//! Black-box tests of the `omegaplus` command-line binary.

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

fn write_replicates(path: &std::path::Path, seeds: &[u64]) {
    let neutral = NeutralParams { n_samples: 20, theta: 30.0, rho: 15.0, region_len_bp: 80_000 };
    let sweep = SweepParams { position: 0.5, alpha: 10.0, swept_fraction: 1.0 };
    let reps: Vec<_> = seeds
        .iter()
        .map(|&s| {
            let mut rng = StdRng::seed_from_u64(s);
            simulate_sweep(&neutral, &sweep, &mut rng).unwrap()
        })
        .collect();
    let mut buf = Vec::new();
    write_ms(&mut buf, &reps).unwrap();
    std::fs::write(path, buf).unwrap();
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_omegaplus"))
}

#[test]
fn scans_ms_input_and_prints_report() {
    let dir = std::env::temp_dir().join("omegaplus_cli_test1");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.ms");
    write_dataset(&input);

    let out = bin()
        .args([
            "-name",
            "t1",
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
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("# OmegaPlus-rs report: t1"));
    assert!(stdout.contains("# backend: CPU"));
    assert!(stdout.contains("peak omega"));
    let data_lines = stdout.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(data_lines, 10);
}

#[test]
fn gpu_and_fpga_backends_run_and_agree() {
    let dir = std::env::temp_dir().join("omegaplus_cli_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.ms");
    write_dataset(&input);

    let run = |backend: &str, device: &str| -> String {
        let out = bin()
            .args([
                "-input",
                input.to_str().unwrap(),
                "-length",
                "80000",
                "-grid",
                "8",
                "-minwin",
                "500",
                "-maxwin",
                "30000",
                "-backend",
                backend,
                "-device",
                device,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let cpu = run("cpu", "");
    let gpu = run("gpu", "k80");
    let fpga = run("fpga", "zcu102");
    let peak_line = |s: &str| s.lines().find(|l| l.contains("peak omega")).unwrap().to_string();
    assert_eq!(peak_line(&cpu), peak_line(&gpu));
    assert_eq!(peak_line(&cpu), peak_line(&fpga));
    assert!(gpu.contains("backend: GPU (NVIDIA Tesla K80)"));
    assert!(fpga.contains("backend: FPGA (ZCU102)"));
}

#[test]
fn report_file_written() {
    let dir = std::env::temp_dir().join("omegaplus_cli_test3");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.ms");
    let report = dir.join("report.tsv");
    write_dataset(&input);
    let out = bin()
        .args([
            "-input",
            input.to_str().unwrap(),
            "-length",
            "80000",
            "-grid",
            "6",
            "-report",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&report).unwrap();
    assert!(text.starts_with("# position"));
    assert_eq!(text.lines().count(), 7);
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for flag in ["-h", "--help"] {
        let out = bin().args([flag]).output().unwrap();
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"), "{flag} stdout: {stdout}");
        assert!(out.stderr.is_empty(), "{flag} must not write to stderr");
    }
}

#[test]
fn batch_replicates_match_independent_runs() {
    let dir = std::env::temp_dir().join("omegaplus_cli_batch1");
    std::fs::create_dir_all(&dir).unwrap();
    let seeds = [101u64, 102, 103];
    let multi = dir.join("multi.ms");
    write_replicates(&multi, &seeds);

    for backend in ["cpu", "gpu"] {
        let common = ["-length", "80000", "-grid", "8", "-minwin", "500", "-maxwin", "30000"];
        let batch_report = dir.join(format!("{backend}_batch.tsv"));
        let out = bin()
            .args(["-input", multi.to_str().unwrap(), "-backend", backend])
            .args(common)
            .args(["-report", batch_report.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("# replicates: 3"), "stdout: {stdout}");

        for (i, &seed) in seeds.iter().enumerate() {
            let single_input = dir.join(format!("{backend}_single{i}.ms"));
            write_replicates(&single_input, &[seed]);
            let single_report = dir.join(format!("{backend}_single{i}.tsv"));
            let out = bin()
                .args(["-input", single_input.to_str().unwrap(), "-backend", backend])
                .args(common)
                .args(["-report", single_report.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

            let rep_path = dir.join(format!("{backend}_batch.rep{}.tsv", i + 1));
            let batch_tsv = std::fs::read(&rep_path).unwrap();
            let single_tsv = std::fs::read(&single_report).unwrap();
            assert_eq!(
                batch_tsv,
                single_tsv,
                "{backend} replicate {} TSV differs from independent run",
                i + 1
            );
        }
    }
}

#[test]
fn reps_first_scans_one_replicate_in_legacy_format() {
    let dir = std::env::temp_dir().join("omegaplus_cli_batch2");
    std::fs::create_dir_all(&dir).unwrap();
    let multi = dir.join("multi.ms");
    write_replicates(&multi, &[201, 202, 203]);
    let out = bin()
        .args(["-input", multi.to_str().unwrap(), "-reps", "first", "-length", "80000"])
        .args(["-grid", "6", "-minwin", "500", "-maxwin", "30000"])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("# OmegaPlus-rs report:"), "stdout: {stdout}");
    assert!(!stdout.contains("# replicates:"), "stdout: {stdout}");
}

#[test]
fn minsnps_beyond_site_count_yields_clean_run() {
    let dir = std::env::temp_dir().join("omegaplus_cli_minsnps");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.ms");
    write_dataset(&input);
    let out = bin()
        .args(["-input", input.to_str().unwrap(), "-length", "80000", "-grid", "5"])
        .args(["-minsnps", "1000000"])
        .output()
        .unwrap();
    // Every grid position is unscorable; the scan must finish cleanly
    // instead of panicking on border-set underflow.
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let data_lines = stdout.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(data_lines, 5);
}

#[test]
fn vcf_length_flag_sets_region_and_rejects_overflow() {
    let dir = std::env::temp_dir().join("omegaplus_cli_vcflen");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.vcf");
    let vcf = "\
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2
chr1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0|1\t1|1
chr1\t200\t.\tC\tT\t.\tPASS\t.\tGT\t0|0\t0|1
chr1\t300\t.\tG\tA\t.\tPASS\t.\tGT\t1|0\t0|1
";
    std::fs::write(&input, vcf).unwrap();

    let out = bin()
        .args(["-input", input.to_str().unwrap(), "-format", "vcf", "-length", "50000"])
        .args(["-grid", "3", "-minsnps", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("over 50000 bp"), "stderr: {stderr}");

    let out = bin()
        .args(["-input", input.to_str().unwrap(), "-format", "vcf", "-length", "150"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exceeds"), "stderr: {stderr}");
}

#[test]
fn missing_input_fails_cleanly() {
    let out = bin().args(["-grid", "5"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("-input is required"));
}

#[test]
fn unknown_flag_reports_usage() {
    let out = bin().args(["-bogus", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn report_to_missing_directory_fails_clearly() {
    let dir = std::env::temp_dir().join("omegaplus_cli_test4");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.ms");
    write_dataset(&input);
    let bogus = dir.join("no_such_dir").join("report.tsv");
    let out = bin()
        .args([
            "-input",
            input.to_str().unwrap(),
            "-length",
            "80000",
            "-grid",
            "5",
            "-report",
            bogus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not exist"), "stderr: {stderr}");
    // The scan must not have started: the path check runs before loading.
    assert!(!stderr.contains("sites x"), "stderr: {stderr}");
}

#[test]
fn trace_to_missing_directory_fails_clearly() {
    let dir = std::env::temp_dir().join("omegaplus_cli_test5");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.ms");
    write_dataset(&input);
    let bogus = dir.join("no_such_dir").join("trace.jsonl");
    let out = bin()
        .args([
            "-input",
            input.to_str().unwrap(),
            "-length",
            "80000",
            "-grid",
            "5",
            "-trace",
            bogus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not exist"), "stderr: {stderr}");
}

#[test]
fn unknown_device_fails_naming_it() {
    let dir = std::env::temp_dir().join("omegaplus_cli_test_device");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.ms");
    write_dataset(&input);
    for backend in ["gpu", "fpga"] {
        let out = bin()
            .args([
                "-input",
                input.to_str().unwrap(),
                "-length",
                "80000",
                "-grid",
                "5",
                "-backend",
                backend,
                "-device",
                "nope",
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "-backend {backend} -device nope must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("device") && stderr.contains("nope"), "{backend}: {stderr}");
    }
}
