//! Property tests for campaign grid expansion: the cell list is always
//! duplicate-free and order-stable, whatever the axes hold.

use dradio_campaign::{CampaignSpec, RoundsRule, SweepGroup, TrialPolicy};
use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
use dradio_scenario::{AdversarySpec, AlgorithmSpec, ProblemSpec, TopologySpec};
use proptest::prelude::*;

fn topology_strategy() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (4usize..64).prop_map(|n| TopologySpec::Clique { n }),
        (2usize..32).prop_map(|n| TopologySpec::DualClique { n: 2 * n }),
        (2usize..8).prop_map(|k| TopologySpec::Bracelet { k }),
        (2usize..64).prop_map(|n| TopologySpec::Line { n }),
        (2usize..64).prop_map(|n| TopologySpec::Star { n }),
        ((1usize..6), (1usize..6)).prop_map(|(cliques, clique_size)| TopologySpec::LineOfCliques {
            cliques,
            clique_size
        }),
    ]
}

fn algorithm_strategy() -> impl Strategy<Value = AlgorithmSpec> {
    prop_oneof![
        Just(AlgorithmSpec::Global(GlobalAlgorithm::Bgi)),
        Just(AlgorithmSpec::Global(GlobalAlgorithm::Permuted)),
        Just(AlgorithmSpec::Global(GlobalAlgorithm::RoundRobin)),
        Just(AlgorithmSpec::Local(LocalAlgorithm::StaticDecay)),
        Just(AlgorithmSpec::Local(LocalAlgorithm::Uniform)),
    ]
}

fn adversary_strategy() -> impl Strategy<Value = AdversarySpec> {
    prop_oneof![
        Just(AdversarySpec::StaticNone),
        Just(AdversarySpec::StaticAll),
        (0.05f64..0.95).prop_map(|p| AdversarySpec::Iid { p }),
        Just(AdversarySpec::Omniscient),
    ]
}

fn problem_strategy() -> impl Strategy<Value = ProblemSpec> {
    prop_oneof![
        (0usize..4).prop_map(ProblemSpec::GlobalFrom),
        ((1usize..5), (0u64..100))
            .prop_map(|(count, seed)| ProblemSpec::LocalRandom { count, seed }),
    ]
}

fn group_strategy() -> impl Strategy<Value = SweepGroup> {
    (
        proptest::collection::vec(topology_strategy(), 1..4),
        proptest::collection::vec(algorithm_strategy(), 1..4),
        (
            proptest::collection::vec(adversary_strategy(), 1..3),
            proptest::collection::vec(problem_strategy(), 1..3),
            0u64..1000,
        ),
    )
        .prop_map(|(topologies, algorithms, (adversaries, problems, seed))| {
            SweepGroup::product(topologies, algorithms, adversaries, problems)
                .seed(seed)
                .rounds(RoundsRule::PerNode {
                    per_node: 50,
                    base: 100,
                    min_nodes: 4,
                })
        })
}

fn campaign_strategy() -> impl Strategy<Value = CampaignSpec> {
    (
        proptest::collection::vec(group_strategy(), 1..4),
        0u64..1000,
        1usize..8,
    )
        .prop_map(|(groups, seed, trials)| {
            let mut campaign = CampaignSpec::named("prop")
                .seed(seed)
                .trials(TrialPolicy::Fixed(trials));
            for group in groups {
                campaign = campaign.group(group);
            }
            campaign
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expansion never yields two cells with the same content key — the
    /// property the resume logic relies on (a key identifies one measurement).
    #[test]
    fn expansion_is_duplicate_free(campaign in campaign_strategy()) {
        let cells = campaign.expand().expect("generated campaigns are valid");
        prop_assert!(!cells.is_empty());
        let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "duplicate cell keys in expansion");
    }

    /// Expansion is a pure function of the spec: repeated calls (and a
    /// serde round trip of the spec) give the identical cell list in the
    /// identical order.
    #[test]
    fn expansion_is_order_stable(campaign in campaign_strategy()) {
        let first = campaign.expand().expect("valid");
        let second = campaign.expand().expect("valid");
        prop_assert_eq!(&first, &second);
        let json = serde_json::to_string(&campaign).expect("specs serialize");
        let reloaded: CampaignSpec = serde_json::from_str(&json).expect("specs reload");
        let third = reloaded.expand().expect("valid after round trip");
        prop_assert_eq!(&first, &third);
    }

    /// Doubling a campaign's groups adds no cells: duplicates collapse onto
    /// their first occurrence without disturbing the order of the rest.
    #[test]
    fn duplicated_groups_collapse(campaign in campaign_strategy()) {
        let base = campaign.expand().expect("valid");
        let mut doubled = campaign.clone();
        for group in campaign.groups.clone() {
            doubled = doubled.group(group);
        }
        let cells = doubled.expand().expect("valid");
        prop_assert_eq!(&cells, &base);
    }

    /// The graph layout is no longer a spec knob. A legacy `"backend"` key
    /// on every group, holding any JSON value, is ignored: the spec expands
    /// to the plain spec's cells, keys and bytes. Any text at all in value
    /// position parses or fails with an error, never a panic.
    #[test]
    fn legacy_backend_keys_are_ignored_or_rejected(
        campaign in campaign_strategy(),
        value in backend_value_strategy(),
        garbage in proptest::collection::vec(32u32..127, 0..10),
    ) {
        let plain = serde_json::to_string(&campaign).expect("specs serialize");
        let with_backend = |value: &str| {
            plain.replace("\"curve\":false", &format!("\"curve\":false,\"backend\":{value}"))
        };
        let legacy = with_backend(&value);
        prop_assert!(legacy.contains("\"backend\":"));
        let reloaded: CampaignSpec = serde_json::from_str(&legacy).expect("legacy specs load");
        prop_assert_eq!(&reloaded, &campaign);
        prop_assert_eq!(serde_json::to_string(&reloaded).expect("specs serialize"), plain.clone());
        let cells = reloaded.expand().expect("valid");
        let base = campaign.expand().expect("valid");
        prop_assert_eq!(&cells, &base);
        for (a, b) in cells.iter().zip(&base) {
            prop_assert_eq!(a.key(), b.key());
        }
        let text: String = garbage.iter().filter_map(|&c| char::from_u32(c)).collect();
        let _ = serde_json::from_str::<CampaignSpec>(&with_backend(&text));
    }
}

/// JSON values a legacy `"backend"` key may hold: the three old choices,
/// other strings, and values of every other shape.
fn backend_value_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("\"Auto\"".to_string()),
        Just("\"Dense\"".to_string()),
        Just("\"Csr\"".to_string()),
        proptest::collection::vec(97u32..123, 0..8).prop_map(|cs| format!(
            "\"{}\"",
            cs.iter()
                .filter_map(|&c| char::from_u32(c))
                .collect::<String>()
        )),
        (0u64..1000).prop_map(|n| n.to_string()),
        Just("null".to_string()),
        Just("true".to_string()),
        Just("[\"Csr\",1]".to_string()),
        Just("{\"Dense\":{}}".to_string()),
    ]
}
