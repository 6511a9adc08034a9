//! The build-once study: one [`AnalysisContext`] per Table-1 dataset.
//!
//! A [`Study`] is the bench-side face of the artifact store. Where the
//! [`crate::Bundle`] owns raw datasets, the study owns the eight analysis
//! contexts built from them — pair tables eagerly, weight matrices lazily
//! on first use — so every experiment in a run
//! borrows the same artifacts instead of rebuilding its own. Experiments
//! address datasets by [`DataKey`], the datasets crate's Table-1
//! identifier.

use std::sync::Arc;

use detour_core::AnalysisContext;

use crate::bundle::Bundle;

/// Names one of the eight Table-1 datasets (the datasets crate's
/// identifier, under the name the experiments use).
pub use detour_datasets::DatasetId as DataKey;

/// Eight shared analysis contexts, one per Table-1 dataset, in Table-1
/// order (the order of [`DataKey`]'s variants).
#[derive(Debug)]
pub struct Study {
    contexts: [AnalysisContext; 8],
}

impl Study {
    /// Builds the study by taking ownership of a bundle — the datasets move
    /// into `Arc`s without cloning.
    pub fn from_bundle(bundle: Bundle) -> Study {
        let Bundle {
            d2,
            d2_na,
            n2,
            n2_na,
            uw1,
            uw3,
            uw4_a,
            uw4_b,
        } = bundle;
        Study {
            contexts: [d2_na, d2, n2_na, n2, uw1, uw3, uw4_a, uw4_b]
                .map(|ds| AnalysisContext::new(Arc::new(ds))),
        }
    }

    /// The context for one dataset.
    pub fn ctx(&self, key: DataKey) -> &AnalysisContext {
        &self.contexts[key as usize]
    }

    /// Table-1 ordering of the contexts.
    pub fn in_table_order(&self) -> [&AnalysisContext; 8] {
        self.contexts.each_ref()
    }

    /// A sibling study over the same datasets with *empty* artifact caches
    /// — the datasets stay `Arc`-shared, but tables and matrices
    /// rebuild from scratch. The reference engine uses one of these per
    /// experiment to reproduce the pre-refactor rebuild-per-experiment
    /// behaviour.
    pub fn rebuild_fresh(&self) -> Study {
        Study {
            contexts: self
                .contexts
                .each_ref()
                .map(|cx| AnalysisContext::new(cx.dataset_arc())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_datasets::Scale;

    #[test]
    fn table_order_matches_bundle_order() {
        let b = Bundle::generate(Scale::reduced(8, 24));
        let names: Vec<String> = b
            .in_table_order()
            .iter()
            .map(|ds| ds.name.clone())
            .collect();
        let s = Study::from_bundle(b);
        let ctx_names: Vec<String> = s
            .in_table_order()
            .iter()
            .map(|cx| cx.dataset().name.clone())
            .collect();
        assert_eq!(names, ctx_names);
        // `ctx` indexes by variant position, so each key must land on its
        // own dataset.
        for key in DataKey::all() {
            assert_eq!(s.ctx(key).dataset().name, key.name());
        }
    }

    #[test]
    fn fresh_rebuild_shares_datasets_but_not_artifacts() {
        let b = Bundle::generate(Scale::reduced(8, 24));
        let s = Study::from_bundle(b);
        s.ctx(DataKey::Uw3).weights(&detour_core::Rtt);
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let fresh = s.rebuild_fresh();
        // Same dataset allocation, fresh artifact caches: rebuilding the
        // eight contexts re-records exactly their eager builds.
        assert!(std::ptr::eq(
            s.ctx(DataKey::Uw3).dataset() as *const _,
            fresh.ctx(DataKey::Uw3).dataset() as *const _,
        ));
        assert_eq!(rec.counter("context/table_builds"), 8);
        assert_eq!(
            rec.counter("context/weights_rtt_builds"),
            0,
            "lazy artifacts rebuild on demand only"
        );
    }
}
