//! Cross-version topology pins. Every other equivalence suite compares the
//! engine with itself; these digests were captured from an earlier release
//! of the generators, so a generator that changes its edge set, its RNG
//! consumption, its name or its embedding fails here even when every path
//! of the new code agrees with every other.
//!
//! Each digest is FNV-1a 64 over `n`, the name, `G`'s and `G'`'s sorted
//! edge lists and the embedding's coordinate bits.

#[allow(dead_code)]
mod support;

use dradio::graphs::{DualGraph, Graph, DENSE_AUTO_MAX_NODES};
use dradio::prelude::*;
use dradio::sim::derive_stream_seed;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn edges(&mut self, graph: &Graph) {
        let edges = graph.edges();
        self.word(edges.len() as u64);
        for edge in edges {
            let (u, v) = edge.endpoints();
            self.word(u.index() as u64);
            self.word(v.index() as u64);
        }
    }
}

fn digest(dual: &DualGraph) -> u64 {
    let mut h = Fnv::new();
    h.word(dual.len() as u64);
    h.bytes(dual.name().as_bytes());
    h.edges(dual.g());
    h.edges(dual.g_prime());
    match dual.embedding() {
        Some(embedding) => {
            h.word(embedding.len() as u64);
            for (_, point) in embedding.iter() {
                h.word(point.x.to_bits());
                h.word(point.y.to_bits());
            }
        }
        None => h.word(u64::MAX),
    }
    h.0
}

fn build(spec: &TopologySpec) -> DualGraph {
    let built = spec.build().expect("pinned topologies build");
    DualGraph::clone(&built.dual)
}

/// perfbench's random geometric network: 8 nodes per unit area, `r = 1.5`.
fn perfbench_geo(n: usize, seed: u64) -> TopologySpec {
    TopologySpec::RandomGeometric {
        n,
        side: (n as f64 / 8.0).sqrt(),
        r: 1.5,
        seed,
    }
}

fn check(pins: &[(TopologySpec, u64)]) {
    let mut drift = Vec::new();
    for (spec, want) in pins {
        let got = digest(&build(spec));
        if got != *want {
            drift.push(format!(
                "{}: {got:#018x}, pinned {want:#018x}",
                spec.label()
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "topology digests drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn every_family_builds_its_pinned_network() {
    let families = support::families();
    let pins: [u64; 16] = [
        0x9070c6d66fb43ceb,
        0x6ce97113f06bfdde,
        0x74b03d1e529faf98,
        0x76b83c9de8a56f10,
        0x4182940d82124d35,
        0xe20e5f4b89599a65,
        0xb2bd0640a8dd3b7d,
        0xc24188617b052573,
        0x83a2b2fb8519c344,
        0x445923ea0b041061,
        0x8b4e7eafd4c98e79,
        0x62a1db120fe37140,
        0x56aea14fee950541,
        0x6d8b5229d5a32838,
        0xa4ddf6b2d78fc09d,
        0x3b4f8b2770bf23bc,
    ];
    assert_eq!(families.len(), pins.len());
    let pinned: Vec<(TopologySpec, u64)> = families
        .into_iter()
        .map(|(spec, _)| spec)
        .zip(pins)
        .collect();
    check(&pinned);
}

#[test]
fn benchmark_topologies_keep_their_networks_and_layouts() {
    let seed = derive_stream_seed(11, 1);
    let pins = [
        (
            TopologySpec::DualClique { n: 256 },
            0x1d10ff650cf5e6a3,
            GraphBackend::Dense,
        ),
        (
            TopologySpec::DualClique { n: 128 },
            0xa25f076510e54cc2,
            GraphBackend::Dense,
        ),
        (
            TopologySpec::Grid { cols: 16, rows: 16 },
            0xc96d7c23dbb8d91b,
            GraphBackend::Dense,
        ),
        (
            perfbench_geo(1024, seed),
            0xc5f0cb7d5875823a,
            GraphBackend::Dense,
        ),
        (
            perfbench_geo(16384, seed),
            0x94e9afcaaa23093b,
            GraphBackend::Csr,
        ),
    ];
    for (spec, _, layout) in &pins {
        assert_eq!(build(spec).graph_backend(), *layout, "{}", spec.label());
    }
    let pinned: Vec<(TopologySpec, u64)> = pins
        .into_iter()
        .map(|(spec, digest, _)| (spec, digest))
        .collect();
    check(&pinned);
}

#[test]
fn streamed_families_pin_both_sides_of_the_dense_floor() {
    assert_eq!(DENSE_AUTO_MAX_NODES, 2048);
    let pins = [
        (
            TopologySpec::Grid { cols: 45, rows: 45 },
            0xb35abd05fca0a09a,
        ),
        (
            TopologySpec::Grid { cols: 46, rows: 46 },
            0xfb46cf999098176c,
        ),
        (perfbench_geo(2000, 5), 0x3f0794006ab9f9a5),
        (perfbench_geo(2100, 5), 0xd46f6cf6c1108a2b),
        (
            TopologySpec::SparseErdosRenyi {
                n: 2000,
                p: 0.004,
                seed: 9,
            },
            0xb440d661d48dca0d,
        ),
        (
            TopologySpec::SparseErdosRenyi {
                n: 2100,
                p: 0.004,
                seed: 9,
            },
            0xd66e25a10d3f2069,
        ),
    ];
    for (spec, _) in &pins {
        let n = spec.node_count().expect("declarative sizes");
        let expected = if n <= DENSE_AUTO_MAX_NODES {
            GraphBackend::Dense
        } else {
            GraphBackend::Csr
        };
        assert_eq!(build(spec).graph_backend(), expected, "{}", spec.label());
    }
    check(&pins);
}

#[test]
fn larger_instances_of_every_generator_keep_their_networks() {
    let pins = [
        (TopologySpec::Clique { n: 70 }, 0x5f46c7f501f1a24d),
        (
            TopologySpec::DualCliqueWithBridge {
                n: 70,
                t_a: 0,
                t_b: 69,
            },
            0x8b7d95e676d2c76f,
        ),
        (
            TopologySpec::BraceletWithClasp { k: 5, t: 3 },
            0x0265b6e50f3dc4d2,
        ),
        (TopologySpec::Line { n: 100 }, 0x7fd8deccdf8c2f06),
        (TopologySpec::Ring { n: 100 }, 0x373b74d9078d91da),
        (TopologySpec::Star { n: 100 }, 0x2e8c4770fdccbd40),
        (
            TopologySpec::LineOfCliques {
                cliques: 5,
                clique_size: 6,
            },
            0xea0637921e5356c2,
        ),
        (TopologySpec::Torus { cols: 7, rows: 5 }, 0xbfa6bcac578d84e8),
        (
            TopologySpec::BalancedTree {
                branching: 3,
                depth: 4,
            },
            0x23a9516a8c485d32,
        ),
        (
            TopologySpec::GridGeometric {
                cols: 9,
                rows: 8,
                spacing: 0.7,
                r: 2.0,
            },
            0x87b38634be802d2c,
        ),
        (
            TopologySpec::ErdosRenyiDual {
                n: 60,
                p_reliable: 0.1,
                p_dynamic: 0.2,
                seed: 4,
            },
            0xd0f67b1972cb508f,
        ),
        (
            TopologySpec::SparseErdosRenyi {
                n: 300,
                p: 0.05,
                seed: 2,
            },
            0x6e933218112eef21,
        ),
    ];
    check(&pins);
}
