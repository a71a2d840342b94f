//! Property tests for grid expansion: across randomly shaped grids,
//! expansion is deterministic, the planned point set is duplicate-free,
//! and the sweep id is insensitive to axis order and duplicate entries.

use hidisc_serve::plan::{plan, Grid};
use proptest::prelude::*;

/// Random small grids over a fixed workload pool. Axes deliberately
/// allow repeated entries so the duplicate-dropping path is exercised.
fn grid_strategy() -> impl Strategy<Value = Grid> {
    let workloads = prop::collection::vec(
        prop_oneof![Just("dm"), Just("pointer"), Just("tc"), Just("field")],
        1..4,
    );
    let seeds = prop::collection::vec(2000u64..2004, 1..3);
    let latencies = prop::collection::vec(
        prop_oneof![
            Just(None::<(u32, u32)>),
            Just(Some((4, 40))),
            Just(Some((8, 80))),
        ],
        1..3,
    );
    let scq_depths = prop_oneof![
        Just(vec![None::<usize>]),
        Just(vec![Some(8)]),
        Just(vec![None, Some(16)]),
    ];
    (workloads, seeds, latencies, scq_depths).prop_map(
        |(workloads, seeds, latencies, scq_depths)| Grid {
            workloads: workloads.into_iter().map(String::from).collect(),
            seeds,
            latencies,
            scq_depths,
            ..Grid::default()
        },
    )
}

/// The grid with every axis reversed: a different written order for the
/// same cartesian product.
fn reversed(grid: &Grid) -> Grid {
    let mut g = grid.clone();
    g.workloads.reverse();
    g.models.reverse();
    g.scales.reverse();
    g.seeds.reverse();
    g.latencies.reverse();
    g.scq_depths.reverse();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn expansion_is_deterministic(grid in grid_strategy()) {
        let a = plan(&grid).unwrap();
        let b = plan(&grid).unwrap();
        prop_assert_eq!(a.id, b.id);
        prop_assert_eq!(a.points.len(), b.points.len());
        prop_assert_eq!(a.duplicates, b.duplicates);
        for (x, y) in a.points.iter().zip(&b.points) {
            prop_assert_eq!(x.key, y.key);
            prop_assert_eq!(&x.spec, &y.spec);
        }
    }

    #[test]
    fn planned_points_are_duplicate_free(grid in grid_strategy()) {
        let p = plan(&grid).unwrap();
        let mut keys: Vec<u64> = p.points.iter().map(|pp| pp.key).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), before);
    }

    #[test]
    fn sweep_id_is_axis_order_insensitive(grid in grid_strategy()) {
        let a = plan(&grid).unwrap();
        let b = plan(&reversed(&grid)).unwrap();
        prop_assert_eq!(a.id, b.id);
        // Same point *set* too, not just the same id.
        let mut ka: Vec<u64> = a.points.iter().map(|pp| pp.key).collect();
        let mut kb: Vec<u64> = b.points.iter().map(|pp| pp.key).collect();
        ka.sort_unstable();
        kb.sort_unstable();
        prop_assert_eq!(ka, kb);
    }

    #[test]
    fn duplicate_axis_entries_do_not_change_identity(grid in grid_strategy()) {
        let mut doubled = grid.clone();
        doubled.workloads.extend(grid.workloads.iter().cloned());
        doubled.seeds.extend(grid.seeds.iter().cloned());
        let a = plan(&grid).unwrap();
        let b = plan(&doubled).unwrap();
        prop_assert_eq!(a.id, b.id);
        prop_assert_eq!(a.points.len(), b.points.len());
    }
}
