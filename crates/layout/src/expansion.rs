//! Storage-expansion accounting for replication (Section 4.8, Figure 10a).
//!
//! Storing `NR` replicas of the `PH`% of data that are hot grows the
//! required storage by the expansion factor `E = 1 + NR * PH / 100`.
#![allow(clippy::cast_possible_truncation)] // replica counts are small integers rounded from bounded ratios

use crate::placement::PlacementScheme;

/// Analytic expansion factor `E = 1 + NR * PH / 100`.
///
/// `E` is the ratio of total stored copies to logical blocks; a farm of
/// jukeboxes must grow by this factor to store the same logical data with
/// replication.
pub fn expansion_factor(replicas: u32, ph_percent: f64) -> f64 {
    1.0 + replicas as f64 * ph_percent / 100.0
}

/// Analytic expansion factor for any [`PlacementScheme`]: replication
/// pays `NR` extra whole copies on the hot fraction
/// (`E = 1 + NR * PH / 100`), while `k + m` erasure striping pays only
/// the parity overhead there (`E = 1 + (PH / 100) * m / k` — the hot
/// fraction stores `(k + m) / k` times its logical size).
pub fn scheme_expansion_factor(scheme: PlacementScheme, ph_percent: f64) -> f64 {
    match scheme {
        PlacementScheme::Replication { nr } => expansion_factor(nr, ph_percent),
        PlacementScheme::Erasure { k, m } => 1.0 + ph_percent / 100.0 * f64::from(m) / f64::from(k),
    }
}

/// One row of the Figure 10(a) surface: expansion factor as a function of
/// the number of replicas for a fixed percent of hot data.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionRow {
    /// Percent of data that is hot.
    pub ph_percent: f64,
    /// `(NR, E)` pairs.
    pub points: Vec<(u32, f64)>,
}

/// Computes the Figure 10(a) family: expansion factor for every
/// `NR in 0..=max_replicas` at each given `PH`.
pub fn expansion_table(ph_percents: &[f64], max_replicas: u32) -> Vec<ExpansionRow> {
    ph_percents
        .iter()
        .map(|&ph| ExpansionRow {
            ph_percent: ph,
            points: (0..=max_replicas)
                .map(|nr| (nr, expansion_factor(nr, ph)))
                .collect(),
        })
        .collect()
}

/// The per-jukebox workload scale-down of Section 4.8: spreading the same
/// total workload over `E` times more jukeboxes divides each jukebox's
/// queue length by `E`.
pub fn scaled_queue_length(base_queue: u32, expansion: f64) -> u32 {
    assert!(expansion >= 1.0, "expansion factor below 1");
    ((base_queue as f64 / expansion).round() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_factor_formula() {
        assert_eq!(expansion_factor(0, 10.0), 1.0);
        assert!((expansion_factor(9, 10.0) - 1.9).abs() < 1e-12);
        assert!((expansion_factor(4, 25.0) - 2.0).abs() < 1e-12);
        assert_eq!(expansion_factor(5, 0.0), 1.0);
    }

    #[test]
    fn scheme_expansion_factor_generalizes() {
        // Replication delegates to the classic formula.
        for nr in 0..=9 {
            for ph in [0.0, 10.0, 25.0] {
                assert_eq!(
                    scheme_expansion_factor(PlacementScheme::Replication { nr }, ph),
                    expansion_factor(nr, ph)
                );
            }
        }
        // EC pays (k+m)/k on the hot fraction only.
        let e = scheme_expansion_factor(PlacementScheme::Erasure { k: 4, m: 4 }, 10.0);
        assert!((e - 1.1).abs() < 1e-12, "EC(4,4) at PH-10: {e}");
        let e = scheme_expansion_factor(PlacementScheme::Erasure { k: 2, m: 1 }, 100.0);
        assert!((e - 1.5).abs() < 1e-12);
        assert_eq!(
            scheme_expansion_factor(PlacementScheme::Erasure { k: 4, m: 2 }, 0.0),
            1.0
        );
        // At matched overhead, EC(k, m) equals NR = m/k replication only
        // when m/k is integral; EC(4,4) matches NR-1 at every PH.
        for ph in [5.0, 10.0, 50.0] {
            assert!(
                (scheme_expansion_factor(PlacementScheme::Erasure { k: 4, m: 4 }, ph)
                    - expansion_factor(1, ph))
                .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-geometry placement sweep is too slow under Miri")]
    fn analytic_expansion_matches_built_catalogs() {
        // Property: the analytic `E` agrees with the expansion a real
        // placement realizes, to within one hot block's redundancy (the
        // only slack is `hot = round(d · PH/100)`, which moves the stored
        // total by at most `NR` copies or `m` parity cells — under one
        // logical block of storage per scheme tested here).
        use crate::placement::{build_placement, LayoutKind, PlacementConfig, PlacementError};
        use tapesim_model::{BlockSize, JukeboxGeometry};

        let schemes = [
            PlacementScheme::Replication { nr: 1 },
            PlacementScheme::Replication { nr: 3 },
            PlacementScheme::Erasure { k: 2, m: 1 },
            PlacementScheme::Erasure { k: 4, m: 2 },
        ];
        let mut checked = 0u32;
        for geometry in [JukeboxGeometry::PAPER_DEFAULT, JukeboxGeometry::FIVE_TAPE] {
            for block_mb in [8u32, 16] {
                for ph in [5.0, 10.0, 25.0] {
                    for scheme in schemes {
                        let cfg = PlacementConfig {
                            layout: LayoutKind::Horizontal,
                            ph_percent: ph,
                            scheme,
                            sp: 0.0,
                        };
                        let placed =
                            match build_placement(geometry, BlockSize::from_mb(block_mb), cfg) {
                                Ok(p) => p,
                                // Geometries too small for the scheme are
                                // out of scope for this property.
                                Err(
                                    PlacementError::TooManyReplicas { .. }
                                    | PlacementError::TooManyShards { .. },
                                ) => continue,
                                Err(e) => panic!("{geometry:?}/{block_mb}MB/{ph}: {e}"),
                            };
                        let analytic = scheme_expansion_factor(scheme, ph);
                        assert!(
                            (placed.expansion - analytic).abs() < 1e-12,
                            "PlacedCatalog must carry the analytic factor"
                        );
                        let realized = placed.catalog.measured_logical_expansion();
                        let d = f64::from(placed.catalog.logical_num_blocks());
                        // Tolerance: one hot block's redundancy (`NR`
                        // whole copies, or `m` parity cells = `m/k`
                        // blocks) over the whole catalog, expressed as an
                        // expansion delta.
                        let per_hot = match scheme {
                            PlacementScheme::Replication { nr } => f64::from(nr.max(1)),
                            PlacementScheme::Erasure { k, m } => f64::from(m) / f64::from(k),
                        };
                        let tol = per_hot / d;
                        assert!(
                            (realized - analytic).abs() <= tol,
                            "{geometry:?}/{block_mb}MB/ph{ph}/{scheme:?}: \
                             realized {realized} vs analytic {analytic} (tol {tol})"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 40, "property barely exercised: {checked} cases");
    }

    #[test]
    fn table_shape() {
        let t = expansion_table(&[5.0, 10.0, 20.0], 9);
        assert_eq!(t.len(), 3);
        for row in &t {
            assert_eq!(row.points.len(), 10);
            assert_eq!(row.points[0], (0, 1.0));
            // Monotone in NR.
            for w in row.points.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
        }
    }

    #[test]
    fn queue_scaling_matches_paper() {
        // Paper: queue length 60 per jukebox non-replicated, 60/E replicated.
        assert_eq!(scaled_queue_length(60, 1.0), 60);
        assert_eq!(scaled_queue_length(60, 1.9), 32); // 31.6 rounds to 32
        assert_eq!(scaled_queue_length(1, 10.0), 1); // never below 1
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn rejects_sub_unit_expansion() {
        scaled_queue_length(60, 0.5);
    }
}
