//! Generation and caching of the eight Table-1 datasets.

use detour_core::pool;
use detour_datasets::{d2, n2, uw1, uw3, uw4, Scale};
use detour_measure::Dataset;

/// All eight datasets, generated together so siblings share simulations.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// D2 (1995, world, traceroute).
    pub d2: Dataset,
    /// D2 restricted to North America.
    pub d2_na: Dataset,
    /// N2 (1995, world, TCP transfers).
    pub n2: Dataset,
    /// N2 restricted to North America.
    pub n2_na: Dataset,
    /// UW1 (1998, NA, per-host uniform).
    pub uw1: Dataset,
    /// UW3 (1999, NA, 9-second exponential).
    pub uw3: Dataset,
    /// UW4-A (1999, simultaneous episodes).
    pub uw4_a: Dataset,
    /// UW4-B (1999, long-term average companion).
    pub uw4_b: Dataset,
}

/// The five independent dataset families, each generating one or two
/// sibling datasets on a shared simulated network.
pub(crate) const FAMILIES: usize = 5;

/// The dataset names family `i` produces, in production order.
pub(crate) fn family_names(family: usize) -> &'static [&'static str] {
    match family {
        0 => &["D2", "D2-NA"],
        1 => &["N2", "N2-NA"],
        2 => &["UW1"],
        3 => &["UW3"],
        _ => &["UW4-A", "UW4-B"],
    }
}

/// Generates one family from scratch.
pub(crate) fn generate_family(family: usize, scale: Scale) -> Vec<Dataset> {
    match family {
        0 => {
            let (a, b) = d2::generate_with_na(scale);
            vec![a, b]
        }
        1 => {
            let (a, b) = n2::generate_with_na(scale);
            vec![a, b]
        }
        2 => vec![detour_datasets::generate(&uw1::spec(), scale)],
        3 => vec![detour_datasets::generate(&uw3::spec(), scale)],
        _ => {
            let (a, b) = uw4::generate_both(scale);
            vec![a, b]
        }
    }
}

impl Bundle {
    /// Assembles a bundle from the per-family outputs, in family order.
    pub(crate) fn from_families(built: Vec<Vec<Dataset>>) -> Bundle {
        let mut built = built.into_iter();
        let mut next = || built.next().expect("five families");
        let (mut d2s, mut n2s, mut uw1s, mut uw3s, mut uw4s) =
            (next(), next(), next(), next(), next());
        Bundle {
            d2: d2s.remove(0),
            d2_na: d2s.remove(0),
            n2: n2s.remove(0),
            n2_na: n2s.remove(0),
            uw1: uw1s.remove(0),
            uw3: uw3s.remove(0),
            uw4_a: uw4s.remove(0),
            uw4_b: uw4s.remove(0),
        }
    }

    /// Generates every dataset at the given scale.
    ///
    /// The five dataset *families* (D2, N2, UW1, UW3, UW4) are independent
    /// simulations, so they generate on the [`pool`] — sibling pairs stay
    /// together because they share one simulated network. The merge is
    /// index-ordered, so the bundle is bit-identical at any thread count.
    pub fn generate(scale: Scale) -> Bundle {
        let families: [usize; FAMILIES] = [0, 1, 2, 3, 4];
        Bundle::from_families(pool::parallel_map(&families, |&family| {
            generate_family(family, scale)
        }))
    }

    /// Table-1 ordering of the probe/transfer datasets.
    pub fn in_table_order(&self) -> [&Dataset; 8] {
        [
            &self.d2_na,
            &self.d2,
            &self.n2_na,
            &self.n2,
            &self.uw1,
            &self.uw3,
            &self.uw4_a,
            &self.uw4_b,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_bundle_generates_all_eight() {
        let b = Bundle::generate(Scale::reduced(8, 24));
        for ds in b.in_table_order() {
            assert!(
                !ds.probes.is_empty() || !ds.transfers.is_empty(),
                "{} is empty",
                ds.name
            );
        }
        assert_eq!(b.uw4_a.hosts.len(), b.uw4_b.hosts.len());
    }
}
