//! Property tests: `refine_tdm_groups` must preserve every grouping
//! invariant `validate::check_tdm_groups` asserts, for square-grid
//! chips and workload activity profiles drawn from seeded ChaCha8
//! streams, so every run checks the same cases and a failure names its
//! case.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use youtiao_chip::{topology, DistanceMatrix};
use youtiao_core::tdm::{group_tdm_with_activity, ActivityProfile};
use youtiao_core::{refine_tdm_groups, RefineConfig, TdmConfig};
use youtiao_obs::validate::check_tdm_groups;

/// Seeded cases.
const CASES: u64 = 48;

#[test]
fn refined_groups_keep_invariants() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let chip = topology::square_grid(rng.gen_range(2..6), rng.gen_range(2..6));
        let budget = rng.gen_range(0..4);
        let passes = rng.gen_range(1..4);
        // Up to 128 activity masks over four windows; devices past the
        // last mask stay idle.
        let masks = rng.gen_range(0..128);
        let mut activity = ActivityProfile::new();
        for d in chip.device_ids().take(masks) {
            activity.insert(d, rng.gen_range(0..16));
        }
        let config = TdmConfig {
            max_shared_slots: budget,
            ..Default::default()
        };
        let xtalk = DistanceMatrix::zeros(chip.num_qubits());
        let devices: Vec<_> = chip.device_ids().collect();
        let groups = group_tdm_with_activity(&chip, &xtalk, &config, &devices, &activity);

        // The initial grouping must already be sound...
        let before = check_tdm_groups(&chip, &groups, &config, &activity);
        assert!(before.is_clean(), "case {case}: {}", before.render());

        // ...and refinement must not break anything while it optimizes.
        let refine = RefineConfig { passes };
        let (refined, _removed) =
            refine_tdm_groups(&chip, &xtalk, &activity, &config, groups, &refine);
        let after = check_tdm_groups(&chip, &refined, &config, &activity);
        assert!(after.is_clean(), "case {case}: {}", after.render());
    }
}
