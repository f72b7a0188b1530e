//! # sciflow-bench
//!
//! The experiment harness: one function per experiment in DESIGN.md's index
//! (E1–E14), each returning a [`report::Report`] of paper-claim vs measured
//! rows. The `experiments` binary runs them; the criterion benches in
//! `benches/` cover the hot kernels.

pub mod exp_arecibo;
pub mod exp_cleo;
pub mod exp_extensions;
pub mod exp_summary;
pub mod exp_weblab;
pub mod report;

use report::Report;

/// An experiment id paired with its runner.
pub type ExperimentEntry = (&'static str, fn() -> Report);

/// All experiments in index order.
pub fn all_experiments() -> Vec<ExperimentEntry> {
    vec![
        ("e1", exp_arecibo::e1 as fn() -> Report),
        ("e2", exp_arecibo::e2),
        ("e3", exp_arecibo::e3),
        ("e4", exp_cleo::e4),
        ("e5", exp_cleo::e5),
        ("e6", exp_cleo::e6),
        ("e7", exp_cleo::e7),
        ("e8", exp_weblab::e8),
        ("e9", exp_weblab::e9),
        ("e10", exp_weblab::e10),
        ("e11", exp_weblab::e11),
        ("e12", exp_cleo::e12),
        ("e13", exp_arecibo::e13),
        ("e14", exp_summary::e14),
        // Extensions: functionality the paper defers or lists as next steps.
        ("ex1", exp_extensions::ex1),
        ("ex2", exp_extensions::ex2),
        ("ex3", exp_extensions::ex3),
        ("ex4", exp_extensions::ex4),
    ]
}

/// Look up one experiment by id.
pub fn experiment(id: &str) -> Option<fn() -> Report> {
    all_experiments().into_iter().find(|(name, _)| *name == id).map(|(_, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_complete_and_ordered() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 18);
        assert!(ids.contains(&"e1") && ids.contains(&"e14"));
        assert!(experiment("e5").is_some());
        assert!(experiment("e99").is_none());
    }

    // Each experiment must run and produce at least one matching row.
    // (This doubles as the regression suite for EXPERIMENTS.md.)
    macro_rules! experiment_runs {
        ($name:ident, $id:expr) => {
            #[test]
            fn $name() {
                let f = experiment($id).expect("experiment registered");
                let report = f();
                assert!(!report.rows.is_empty(), "{} produced no rows", $id);
                assert!(
                    report.rows.iter().any(|r| r.verdict == crate::report::Verdict::Match),
                    "{} produced no matching rows",
                    $id
                );
                // Renders cleanly both ways.
                assert!(report.render().contains(&$id.to_uppercase()));
                assert!(report.render_markdown().contains("| Quantity |"));
            }
        };
    }

    experiment_runs!(e1_runs, "e1");
    experiment_runs!(e3_runs, "e3");
    experiment_runs!(e4_runs, "e4");
    experiment_runs!(e5_runs, "e5");
    experiment_runs!(e6_runs, "e6");
    experiment_runs!(e7_runs, "e7");
    experiment_runs!(e9_runs, "e9");
    experiment_runs!(e10_runs, "e10");
    experiment_runs!(e11_runs, "e11");
    experiment_runs!(e12_runs, "e12");
    experiment_runs!(e14_runs, "e14");
    experiment_runs!(ex1_runs, "ex1");
    experiment_runs!(ex2_runs, "ex2");
    experiment_runs!(ex3_runs, "ex3");
    experiment_runs!(ex4_runs, "ex4");

    experiment_runs!(e2_runs, "e2");
    experiment_runs!(e8_runs, "e8");
    experiment_runs!(e13_runs, "e13");
}
