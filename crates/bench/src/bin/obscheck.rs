//! Gates an observability report against the committed name manifest.
//!
//! ```text
//! cargo run -p detour-bench --release --bin obscheck -- \
//!     BENCH_baseline.json scripts/obs_manifest.txt
//! ```
//!
//! The report (`detour-obs-v1` JSON, written by the `baseline` binary)
//! carries one entry per span, counter, and gauge. The manifest under
//! `scripts/obs_manifest.txt` is the committed vocabulary: every name the
//! instrumentation is allowed to emit, one per line, kind-prefixed
//! (`span net/build`, `counter cache/hits`, `gauge baseline/...`).
//!
//! The gate is subset semantics: every name in the report must appear in
//! the manifest, so a new span or counter cannot slip into the pipeline
//! without a matching manifest (and review) entry. Manifest names absent
//! from this particular run are fine — fault counters, for example, stay
//! at zero-emission in runs that inject no faults — and are listed as
//! informational output only.

use std::process::exit;

/// Why a report fails the manifest gate.
#[derive(Debug, PartialEq)]
enum Rejection {
    /// The text carries no `detour-obs-v1` schema marker.
    NotAReport,
    /// Report names the manifest does not list.
    Unknown(Vec<String>),
}

/// A report that passed: how many names it carried, and the manifest
/// entries it did not emit (informational only).
#[derive(Debug, PartialEq)]
struct Passed<'m> {
    names: usize,
    unused: Vec<&'m str>,
}

/// The subset gate: every name in `report` must be an entry of `manifest`
/// (one kind-prefixed name per line; blank lines and `#` comments
/// ignored).
fn check<'m>(report: &str, manifest: &'m str) -> Result<Passed<'m>, Rejection> {
    let names = detour_obs::json_names(report).ok_or(Rejection::NotAReport)?;
    let manifest: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let unknown: Vec<String> = names
        .iter()
        .filter(|n| !manifest.contains(&n.as_str()))
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(Rejection::Unknown(unknown));
    }
    let unused = manifest
        .into_iter()
        .filter(|m| !names.iter().any(|n| n == m))
        .collect();
    Ok(Passed {
        names: names.len(),
        unused,
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(report_path), Some(manifest_path)) = (args.next(), args.next()) else {
        eprintln!("usage: obscheck <report.json> <obs_manifest.txt>");
        exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("obscheck: cannot read {path}: {e}");
            exit(2);
        })
    };
    let (report, manifest) = (read(&report_path), read(&manifest_path));

    match check(&report, &manifest) {
        Ok(passed) => {
            for m in &passed.unused {
                eprintln!("obscheck: note — manifest name not in this run: {m}");
            }
            eprintln!(
                "obscheck: OK — {} report name(s) all in the manifest ({} unused this run)",
                passed.names,
                passed.unused.len()
            );
        }
        Err(Rejection::NotAReport) => {
            eprintln!("obscheck: FAIL — {report_path} is not a detour-obs-v1 report");
            exit(1);
        }
        Err(Rejection::Unknown(unknown)) => {
            for n in &unknown {
                eprintln!("obscheck: FAIL — report name missing from {manifest_path}: {n}");
            }
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report carrying one span and one counter.
    fn report() -> String {
        let rec = detour_obs::Recorder::new();
        rec.record_seconds("net/build", 0.5);
        rec.add("cache/hits", 3);
        rec.snapshot().to_json()
    }

    #[test]
    fn unknown_report_name_fails() {
        assert_eq!(
            check(&report(), "span net/build\n"),
            Err(Rejection::Unknown(vec!["counter cache/hits".to_string()]))
        );
    }

    #[test]
    fn manifest_names_absent_from_the_run_are_fine() {
        let manifest = "span net/build\ncounter cache/hits\ngauge baseline/cores\n";
        assert_eq!(
            check(&report(), manifest),
            Ok(Passed {
                names: 2,
                unused: vec!["gauge baseline/cores"],
            })
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let manifest = "# vocabulary\n\n  span net/build  \n\n# counters\ncounter cache/hits\n";
        assert_eq!(
            check(&report(), manifest),
            Ok(Passed {
                names: 2,
                unused: vec![],
            })
        );
    }

    #[test]
    fn text_without_the_schema_marker_is_rejected() {
        let manifest = "span net/build\ncounter cache/hits\n";
        let unmarked = report().replace("detour-obs-v1", "something-else");
        assert_eq!(check(&unmarked, manifest), Err(Rejection::NotAReport));
        assert_eq!(check("{}", manifest), Err(Rejection::NotAReport));
    }
}
