//! Reduced-scale smoke test of the benchmark binary.
//!
//! Runs every workload, untraced and traced, on `--smoke` inputs and
//! checks the result line: it is correct, and every metric name it emits
//! matches `[A-Za-z0-9_.-]+` and is declared in `BENCHMARK.json`.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

/// The repository root: the benchmark runs from there.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives one level below the root")
}

/// Every string value of a `"key": "value"` pair in `json`.
fn string_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    json.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &json[i + pat.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// The metric names of one result line: each key directly followed by
/// `{"value"`.
fn metric_names(line: &str) -> Vec<&str> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .match_indices(": {\"value\"")
        .map(|(i, _)| {
            let key = &metrics[..i - 1];
            &key[key.rfind('"').expect("opening quote") + 1..]
        })
        .collect()
}

fn grammar_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_only_declared_names() {
    let declared_json =
        std::fs::read_to_string(root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let declared = string_values(&declared_json, "name");
    for w in ["paper_warm", "scale_kernel"] {
        assert!(
            declared.contains(&w),
            "workload {w} is not in BENCHMARK.json"
        );
    }
    // paper_cold is not a declared workload, but it emits the same names.
    for w in ["paper_warm", "paper_cold", "scale_kernel"] {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(root())
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .arg("--smoke")
                .output()
                .expect("run the benchmark");
            assert!(out.status.success(), "{w} trace {trace}: {out:?}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{w} trace {trace}: {line}"
            );
            let names = metric_names(line);
            assert!(!names.is_empty(), "{w} trace {trace}: no metrics");
            for name in names {
                assert!(grammar_ok(name), "{w}: bad metric name {name:?}");
                assert!(
                    declared.contains(&name),
                    "{w}: metric {name} is not declared in BENCHMARK.json"
                );
            }
        }
    }
}
