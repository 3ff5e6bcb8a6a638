//! Golden digests of the circuit studies.
//!
//! Each digest is FNV-1a (64-bit) over the compact JSON of a study's
//! cache-form payload (`Metrics::cache_value`), as computed by the
//! serial, one-ChaCha-block-per-refill implementation. A performance
//! change to the circuit path must leave every digest unchanged at any
//! worker count; a deliberate model change updates them here, in the
//! same commit.

use yoco_sweep::hash::fnv1a64;
use yoco_sweep::{Engine, Scenario, StudyId};

const GOLDEN: [(StudyId, u64); 4] = [
    (StudyId::Fig6a, 0x7324_9abc_d8ac_13a8),
    (StudyId::Fig6bc, 0x8572_170c_b8e4_79fd),
    (StudyId::Fig6d, 0xb513_cb23_a4b5_6bb0),
    (StudyId::Fig6f, 0xbf81_741a_45e1_6354),
];

#[test]
fn circuit_studies_match_their_golden_digests_at_any_job_count() {
    let batch: Vec<Scenario> = GOLDEN.iter().map(|&(s, _)| Scenario::study(s)).collect();
    let golden: Vec<(&str, u64)> = GOLDEN.iter().map(|&(s, d)| (s.name(), d)).collect();
    for jobs in [1, 3] {
        let report = Engine::ephemeral().jobs(jobs).run(&batch);
        let digests: Vec<(&str, u64)> = GOLDEN
            .iter()
            .zip(&report.cells)
            .map(|(&(study, _), cell)| {
                let metrics = cell
                    .metrics
                    .as_ref()
                    .unwrap_or_else(|| panic!("{} failed: {:?}", study.name(), cell.error));
                let json = serde_json::to_string(&metrics.cache_value()).expect("serializable");
                (study.name(), fnv1a64(json.as_bytes()))
            })
            .collect();
        assert_eq!(digests, golden, "--jobs {jobs}");
    }
}
