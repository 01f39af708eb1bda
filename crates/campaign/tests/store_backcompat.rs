//! Store backwards compatibility, pinned against **verbatim bytes written by
//! the pre-refactor binary** (the build preceding the typed-metrics
//! pipeline: no `StopRule`, no `curve` flag, no `contention` field).
//!
//! The campaign engine's durability story rests on byte-stable stores: a
//! resumed run must reproduce the uninterrupted store byte for byte, across
//! binary versions. These tests pin that a store written by the old binary
//!
//! * **loads** under the new code (keys verify, counts reconstruct),
//! * **reports** the same statistics (rates, summaries, trial counts),
//! * **resumes** byte-identically (the new binary appends exactly the bytes
//!   the old binary would have), and
//! * **re-serializes** every record to its original line.
//!
//! The fixtures were captured by running the pre-refactor `repro` binary on
//! its own `--example-campaign` output (an adaptive sweep) and on a small
//! fixed-trials campaign with a fractional completion rate (exercising the
//! completion-count reconstruction). The legacy-batch fixture was captured
//! the same way, with the last binary in which batching was a per-group
//! spec knob, from a spec that turned it on. The link-profile fixtures were
//! captured with the last binary in which every oblivious `Iid`/static link
//! round ran `decide` over all dynamic edges, the legacy-backend fixture
//! with the last binary in which the graph layout was a per-group spec
//! knob, the adaptive fixture with the last binary in which adaptive
//! adversaries forced full recording, the dormancy fixture with the last
//! binary in which every process ran every round, and the adaptive CSR
//! fixture with the last binary in which the greedy and omniscient attacks
//! walked neighbour lists and queried edges (captured before their scans
//! of packed node bitsets landed). If any of these tests fails, the store
//! format has drifted — bump a format version rather than editing the
//! fixtures.

use std::sync::Arc;

use dradio_campaign::{
    CampaignRunner, CampaignSpec, CellRecord, ResultStore, StopRule, TrialPolicy,
};
use dradio_scenario::{BuiltTopology, GraphBackend, Measurement, ScenarioBuilder, ScenarioRunner};

/// `--example-campaign` of the pre-refactor binary (adaptive trial policy,
/// serialized without a `stop` field).
const GOLDEN_CAMPAIGN: &str = r#"{"name":"example-clique-sweep","seed":1,"trials":{"Adaptive":{"min":2,"max":8,"relative_width":0.2}},"groups":[{"topologies":[{"DualClique":{"n":16}},{"DualClique":{"n":32}}],"algorithms":[{"Global":"Bgi"},{"Global":"Permuted"}],"adversaries":[{"Iid":{"p":0.5}}],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"PerNode":{"per_node":60,"base":0,"min_nodes":16}},"collision_detection":false,"record_mode":"None"}]}"#;

/// The complete store the pre-refactor binary wrote for
/// [`GOLDEN_CAMPAIGN`], byte for byte.
const GOLDEN_STORE: &str = concat!(
    r#"{"key":"126c8e1cc5cc097c","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Bgi"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":1,"max_rounds":960,"collision_detection":false},"trials":{"Adaptive":{"min":2,"max":8,"relative_width":0.2}},"record_mode":"None"},"trials_run":8,"measurement":{"rounds":{"count":8,"mean":9.25,"std_dev":6.08863109175031,"min":2.0,"max":19.0,"median":9.0,"p95":19.0},"completion_rate":1.0,"mean_collisions":29.25}}"#,
    "\n",
    r#"{"key":"a7a5e400c1b0ef0a","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":1,"max_rounds":960,"collision_detection":false},"trials":{"Adaptive":{"min":2,"max":8,"relative_width":0.2}},"record_mode":"None"},"trials_run":2,"measurement":{"rounds":{"count":2,"mean":5.5,"std_dev":0.7071067811865476,"min":5.0,"max":6.0,"median":5.5,"p95":6.0},"completion_rate":1.0,"mean_collisions":8.5}}"#,
    "\n",
    r#"{"key":"e9920d077e512d29","cell":{"scenario":{"topology":{"DualClique":{"n":32}},"algorithm":{"Global":"Bgi"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":1,"max_rounds":1920,"collision_detection":false},"trials":{"Adaptive":{"min":2,"max":8,"relative_width":0.2}},"record_mode":"None"},"trials_run":8,"measurement":{"rounds":{"count":8,"mean":10.75,"std_dev":6.670832032063167,"min":4.0,"max":24.0,"median":10.0,"p95":24.0},"completion_rate":1.0,"mean_collisions":127.0}}"#,
    "\n",
    r#"{"key":"4b8885fac942a1c3","cell":{"scenario":{"topology":{"DualClique":{"n":32}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":1,"max_rounds":1920,"collision_detection":false},"trials":{"Adaptive":{"min":2,"max":8,"relative_width":0.2}},"record_mode":"None"},"trials_run":8,"measurement":{"rounds":{"count":8,"mean":14.75,"std_dev":7.025463889106744,"min":9.0,"max":31.0,"median":12.0,"p95":31.0},"completion_rate":1.0,"mean_collisions":137.25}}"#,
    "\n",
);

/// A pre-refactor store line with a fractional completion rate (2 of 3
/// trials completed), exercising the rate → integer-count reconstruction.
const GOLDEN_FRACTIONAL_CAMPAIGN: &str = r#"{"name":"golden-fixed","seed":1,"trials":{"Fixed":3},"groups":[{"topologies":[{"DualClique":{"n":16}}],"algorithms":[{"Global":"Bgi"}],"adversaries":[{"Iid":{"p":0.5}}],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"Fixed":5},"collision_detection":false,"record_mode":"None"}]}"#;

const GOLDEN_FRACTIONAL_STORE: &str = concat!(
    r#"{"key":"ff4ffd889951a8fa","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Bgi"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":1,"max_rounds":5,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":3.6666666666666665,"std_dev":1.5275252316519465,"min":2.0,"max":5.0,"median":4.0,"p95":5.0},"completion_rate":0.6666666666666666,"mean_collisions":10.333333333333334}}"#,
    "\n",
);

/// A spec from when batching was a per-group knob: the group carries
/// `"batch": true`, which that binary copied into every cell it stored.
const LEGACY_BATCH_CAMPAIGN: &str = r#"{"name":"legacy-batch","seed":3,"trials":{"Fixed":4},"groups":[{"topologies":[{"DualClique":{"n":16}}],"algorithms":[{"Global":"Permuted"}],"adversaries":[{"Iid":{"p":0.5}}],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"Fixed":400},"collision_detection":false,"record_mode":"None","curve":false,"batch":true}]}"#;

/// The store that binary wrote for [`LEGACY_BATCH_CAMPAIGN`], byte for
/// byte: its cell carries `"batch":true`.
const LEGACY_BATCH_STORE: &str = concat!(
    r#"{"key":"20197961876757b2","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":3,"max_rounds":400,"collision_detection":false},"trials":{"Fixed":4},"record_mode":"None","batch":true},"trials_run":4,"measurement":{"rounds":{"count":4,"mean":6.75,"std_dev":4.112987559751022,"min":2.0,"max":12.0,"median":6.5,"p95":12.0},"completion_rate":1.0,"mean_collisions":25.5}}"#,
    "\n",
);

/// Oblivious link cells whose adversaries declare an `Iid` link profile
/// (`Iid` at 0.3 and 0.5, `StaticAll`, `StaticNone`): a global and a local
/// algorithm on a random geometric deployment (dense under the automatic
/// backend) and on the dual clique.
const LINK_PROFILE_CAMPAIGN: &str = r#"{"name":"link-profile-pin","seed":4,"trials":{"Fixed":3},"groups":[{"topologies":[{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},{"DualClique":{"n":16}}],"algorithms":[{"Global":"Permuted"}],"adversaries":[{"Iid":{"p":0.3}},{"Iid":{"p":0.5}},"StaticAll","StaticNone"],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"Fixed":300},"collision_detection":false,"record_mode":"None","curve":false},{"topologies":[{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},{"DualClique":{"n":16}}],"algorithms":[{"Local":"Uniform"}],"adversaries":[{"Iid":{"p":0.3}},{"Iid":{"p":0.5}},"StaticAll","StaticNone"],"problems":[{"LocalRandom":{"count":4,"seed":6}}],"seed":null,"trials":null,"rounds":{"Fixed":300},"collision_detection":false,"record_mode":"None","curve":false}]}"#;

/// The store the last binary that ran `decide` for every such round wrote
/// for [`LINK_PROFILE_CAMPAIGN`], byte for byte.
const LINK_PROFILE_STORE: &str = concat!(
    r#"{"key":"fcf7a93194aed6c8","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.3}},"problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":20.333333333333332,"std_dev":2.5166114784235836,"min":18.0,"max":23.0,"median":20.0,"p95":23.0},"completion_rate":1.0,"mean_collisions":314.3333333333333}}"#,
    "\n",
    r#"{"key":"afa9e9ee3021725a","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":20.333333333333332,"std_dev":2.5166114784235836,"min":18.0,"max":23.0,"median":20.0,"p95":23.0},"completion_rate":1.0,"mean_collisions":330.3333333333333}}"#,
    "\n",
    r#"{"key":"c77ee4a20e060196","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":"StaticAll","problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":14.666666666666666,"std_dev":9.073771725877465,"min":8.0,"max":25.0,"median":11.0,"p95":25.0},"completion_rate":1.0,"mean_collisions":254.66666666666666}}"#,
    "\n",
    r#"{"key":"9bf622cbb1f871e9","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":"StaticNone","problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":19.666666666666668,"std_dev":4.618802153517007,"min":17.0,"max":25.0,"median":17.0,"p95":25.0},"completion_rate":1.0,"mean_collisions":273.0}}"#,
    "\n",
    r#"{"key":"3cc196ae789fae4f","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.3}},"problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":12.333333333333334,"std_dev":7.023769168568492,"min":5.0,"max":19.0,"median":13.0,"p95":19.0},"completion_rate":1.0,"mean_collisions":44.666666666666664}}"#,
    "\n",
    r#"{"key":"da995fa451db64f9","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":8.333333333333334,"std_dev":5.686240703077327,"min":2.0,"max":13.0,"median":10.0,"p95":13.0},"completion_rate":1.0,"mean_collisions":31.333333333333332}}"#,
    "\n",
    r#"{"key":"f9503bccd500f771","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":"StaticAll","problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":2.6666666666666665,"std_dev":2.081665999466133,"min":1.0,"max":5.0,"median":2.0,"p95":5.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
    r#"{"key":"25e31e7f96ed0684","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":"StaticNone","problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":12.0,"std_dev":3.4641016151377544,"min":8.0,"max":14.0,"median":14.0,"p95":14.0},"completion_rate":1.0,"mean_collisions":22.333333333333332}}"#,
    "\n",
    r#"{"key":"cda72c8d89821e67","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":{"Iid":{"p":0.3}},"problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":93.0,"std_dev":52.57375771237966,"min":55.0,"max":153.0,"median":71.0,"p95":153.0},"completion_rate":1.0,"mean_collisions":2.6666666666666665}}"#,
    "\n",
    r#"{"key":"f1755c72f0f806b5","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":{"Iid":{"p":0.5}},"problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":40.666666666666664,"std_dev":13.203534880225572,"min":29.0,"max":55.0,"median":38.0,"p95":55.0},"completion_rate":1.0,"mean_collisions":3.3333333333333335}}"#,
    "\n",
    r#"{"key":"8869e3d38a782009","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":"StaticAll","problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":37.333333333333336,"std_dev":18.0092568789868,"min":19.0,"max":55.0,"median":38.0,"p95":55.0},"completion_rate":1.0,"mean_collisions":7.666666666666667}}"#,
    "\n",
    r#"{"key":"d72953c27456d3f2","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":"StaticNone","problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":123.66666666666667,"std_dev":59.676907873425655,"min":55.0,"max":163.0,"median":153.0,"p95":163.0},"completion_rate":1.0,"mean_collisions":2.0}}"#,
    "\n",
    r#"{"key":"872afea0e335d820","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Local":"Uniform"},"adversary":{"Iid":{"p":0.3}},"problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":11.0,"std_dev":6.928203230275509,"min":7.0,"max":19.0,"median":7.0,"p95":19.0},"completion_rate":1.0,"mean_collisions":0.6666666666666666}}"#,
    "\n",
    r#"{"key":"8d76352b3008f946","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Local":"Uniform"},"adversary":{"Iid":{"p":0.5}},"problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":11.0,"std_dev":6.928203230275509,"min":7.0,"max":19.0,"median":7.0,"p95":19.0},"completion_rate":1.0,"mean_collisions":1.6666666666666667}}"#,
    "\n",
    r#"{"key":"c0654476071ce2c6","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Local":"Uniform"},"adversary":"StaticAll","problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":7.0,"std_dev":1.0,"min":6.0,"max":8.0,"median":7.0,"p95":8.0},"completion_rate":1.0,"mean_collisions":4.666666666666667}}"#,
    "\n",
    r#"{"key":"a536194a0ea0641f","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Local":"Uniform"},"adversary":"StaticNone","problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":10.333333333333334,"std_dev":7.571877794400365,"min":5.0,"max":19.0,"median":7.0,"p95":19.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
);

/// The random geometric cells of [`LINK_PROFILE_CAMPAIGN`] with the CSR
/// backend forced.
const LINK_PROFILE_CSR_CAMPAIGN: &str = r#"{"name":"link-profile-pin-csr","seed":4,"trials":{"Fixed":3},"groups":[{"topologies":[{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}}],"algorithms":[{"Global":"Permuted"}],"adversaries":[{"Iid":{"p":0.3}},{"Iid":{"p":0.5}},"StaticAll","StaticNone"],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"Fixed":300},"collision_detection":false,"record_mode":"None","curve":false,"backend":"Csr"},{"topologies":[{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}}],"algorithms":[{"Local":"Uniform"}],"adversaries":[{"Iid":{"p":0.3}},{"Iid":{"p":0.5}},"StaticAll","StaticNone"],"problems":[{"LocalRandom":{"count":4,"seed":6}}],"seed":null,"trials":null,"rounds":{"Fixed":300},"collision_detection":false,"record_mode":"None","curve":false,"backend":"Csr"}]}"#;

/// The store that binary wrote for [`LINK_PROFILE_CSR_CAMPAIGN`]: the same
/// measurements, each cell carrying `"backend":"Csr"`.
const LINK_PROFILE_CSR_STORE: &str = concat!(
    r#"{"key":"fcf7a93194aed6c8","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.3}},"problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":20.333333333333332,"std_dev":2.5166114784235836,"min":18.0,"max":23.0,"median":20.0,"p95":23.0},"completion_rate":1.0,"mean_collisions":314.3333333333333}}"#,
    "\n",
    r#"{"key":"afa9e9ee3021725a","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":20.333333333333332,"std_dev":2.5166114784235836,"min":18.0,"max":23.0,"median":20.0,"p95":23.0},"completion_rate":1.0,"mean_collisions":330.3333333333333}}"#,
    "\n",
    r#"{"key":"c77ee4a20e060196","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":"StaticAll","problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":14.666666666666666,"std_dev":9.073771725877465,"min":8.0,"max":25.0,"median":11.0,"p95":25.0},"completion_rate":1.0,"mean_collisions":254.66666666666666}}"#,
    "\n",
    r#"{"key":"9bf622cbb1f871e9","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":"StaticNone","problem":{"GlobalFrom":0},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":19.666666666666668,"std_dev":4.618802153517007,"min":17.0,"max":25.0,"median":17.0,"p95":25.0},"completion_rate":1.0,"mean_collisions":273.0}}"#,
    "\n",
    r#"{"key":"cda72c8d89821e67","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":{"Iid":{"p":0.3}},"problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":93.0,"std_dev":52.57375771237966,"min":55.0,"max":153.0,"median":71.0,"p95":153.0},"completion_rate":1.0,"mean_collisions":2.6666666666666665}}"#,
    "\n",
    r#"{"key":"f1755c72f0f806b5","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":{"Iid":{"p":0.5}},"problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":40.666666666666664,"std_dev":13.203534880225572,"min":29.0,"max":55.0,"median":38.0,"p95":55.0},"completion_rate":1.0,"mean_collisions":3.3333333333333335}}"#,
    "\n",
    r#"{"key":"8869e3d38a782009","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":"StaticAll","problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":37.333333333333336,"std_dev":18.0092568789868,"min":19.0,"max":55.0,"median":38.0,"p95":55.0},"completion_rate":1.0,"mean_collisions":7.666666666666667}}"#,
    "\n",
    r#"{"key":"d72953c27456d3f2","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":"StaticNone","problem":{"LocalRandom":{"count":4,"seed":6}},"seed":4,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":123.66666666666667,"std_dev":59.676907873425655,"min":55.0,"max":163.0,"median":153.0,"p95":163.0},"completion_rate":1.0,"mean_collisions":2.0}}"#,
    "\n",
);

/// A spec from when the graph layout was a per-group knob: one group
/// forced dense, the other forced CSR.
const LEGACY_BACKEND_CAMPAIGN: &str = r#"{"name":"legacy-backend","seed":6,"trials":{"Fixed":3},"groups":[{"topologies":[{"RandomGeometric":{"n":30,"side":2.0,"r":1.5,"seed":8}},{"Grid":{"cols":5,"rows":4}}],"algorithms":[{"Global":"Permuted"}],"adversaries":[{"Iid":{"p":0.5}},"GreedyCollision"],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"Fixed":300},"collision_detection":false,"record_mode":"None","curve":false,"backend":"Dense"},{"topologies":[{"Bracelet":{"k":3}}],"algorithms":[{"Local":"StaticDecay"}],"adversaries":[{"Iid":{"p":0.5}},"BraceletAttack"],"problems":["LocalHeadsA"],"seed":null,"trials":null,"rounds":{"Fixed":300},"collision_detection":false,"record_mode":"None","curve":false,"backend":"Csr"}]}"#;

/// The store that binary wrote for [`LEGACY_BACKEND_CAMPAIGN`], byte for
/// byte: every cell carries the `"backend"` its group forced.
const LEGACY_BACKEND_STORE: &str = concat!(
    r#"{"key":"f93acc402609c9bc","cell":{"scenario":{"topology":{"RandomGeometric":{"n":30,"side":2.0,"r":1.5,"seed":8}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":6,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Dense"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":27.0,"std_dev":9.848857801796104,"min":16.0,"max":35.0,"median":30.0,"p95":35.0},"completion_rate":1.0,"mean_collisions":311.0}}"#,
    "\n",
    r#"{"key":"34c6e155b32f0363","cell":{"scenario":{"topology":{"RandomGeometric":{"n":30,"side":2.0,"r":1.5,"seed":8}},"algorithm":{"Global":"Permuted"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":6,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Dense"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":15.666666666666666,"std_dev":5.507570547286102,"min":12.0,"max":22.0,"median":13.0,"p95":22.0},"completion_rate":1.0,"mean_collisions":131.33333333333334}}"#,
    "\n",
    r#"{"key":"73fbbcea5117e0d2","cell":{"scenario":{"topology":{"Grid":{"cols":5,"rows":4}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":6,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Dense"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":28.0,"std_dev":8.888194417315589,"min":18.0,"max":35.0,"median":31.0,"p95":35.0},"completion_rate":1.0,"mean_collisions":16.666666666666668}}"#,
    "\n",
    r#"{"key":"669f45a9d239ec81","cell":{"scenario":{"topology":{"Grid":{"cols":5,"rows":4}},"algorithm":{"Global":"Permuted"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":6,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Dense"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":28.0,"std_dev":8.888194417315589,"min":18.0,"max":35.0,"median":31.0,"p95":35.0},"completion_rate":1.0,"mean_collisions":16.666666666666668}}"#,
    "\n",
    r#"{"key":"0966b77120aab557","cell":{"scenario":{"topology":{"Bracelet":{"k":3}},"algorithm":{"Local":"StaticDecay"},"adversary":{"Iid":{"p":0.5}},"problem":"LocalHeadsA","seed":6,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":12.333333333333334,"std_dev":6.350852961085883,"min":5.0,"max":16.0,"median":16.0,"p95":16.0},"completion_rate":1.0,"mean_collisions":0.6666666666666666}}"#,
    "\n",
    r#"{"key":"b084829c1b3b9508","cell":{"scenario":{"topology":{"Bracelet":{"k":3}},"algorithm":{"Local":"StaticDecay"},"adversary":"BraceletAttack","problem":"LocalHeadsA","seed":6,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None","backend":"Csr"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":12.333333333333334,"std_dev":6.350852961085883,"min":5.0,"max":16.0,"median":16.0,"p95":16.0},"completion_rate":1.0,"mean_collisions":2.0}}"#,
    "\n",
);

/// Adaptive cells: the online dense/sparse and greedy attackers and the
/// offline blocker, on a dual clique and a random geometric graph, stored
/// under `RecordMode::None`.
const ADAPTIVE_CAMPAIGN: &str = r#"{"name":"adaptive-view-pin","seed":5,"trials":{"Fixed":3},"groups":[{"topologies":[{"DualClique":{"n":16}},{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}}],"algorithms":[{"Global":"Bgi"},{"Global":"Permuted"}],"adversaries":[{"DenseSparse":{"density_factor":null}},"GreedyCollision","Omniscient"],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"Fixed":300},"collision_detection":false,"record_mode":"None","curve":false}]}"#;

/// The store the last binary that promoted adaptive cells to full
/// recording (and validated every all-dynamic decision edge by edge) wrote
/// for [`ADAPTIVE_CAMPAIGN`], byte for byte.
const ADAPTIVE_STORE: &str = concat!(
    r#"{"key":"c156400ff706b00b","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Bgi"},"adversary":{"DenseSparse":{"density_factor":null}},"problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":14.666666666666666,"std_dev":9.018499505645789,"min":6.0,"max":24.0,"median":14.0,"p95":24.0},"completion_rate":1.0,"mean_collisions":33.333333333333336}}"#,
    "\n",
    r#"{"key":"f566c364a98bac8f","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Bgi"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":14.0,"std_dev":9.643650760992955,"min":7.0,"max":25.0,"median":10.0,"p95":25.0},"completion_rate":1.0,"mean_collisions":34.666666666666664}}"#,
    "\n",
    r#"{"key":"cad14e6c25091274","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Bgi"},"adversary":"Omniscient","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":96.66666666666667,"std_dev":58.432297005451815,"min":30.0,"max":139.0,"median":121.0,"p95":139.0},"completion_rate":1.0,"mean_collisions":384.0}}"#,
    "\n",
    r#"{"key":"34b5577a0ba13585","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":{"DenseSparse":{"density_factor":null}},"problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":23.666666666666668,"std_dev":21.07921567168317,"min":11.0,"max":48.0,"median":12.0,"p95":48.0},"completion_rate":1.0,"mean_collisions":65.0}}"#,
    "\n",
    r#"{"key":"1d6d792e9c304b69","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":32.333333333333336,"std_dev":1.5275252316519465,"min":31.0,"max":34.0,"median":32.0,"p95":34.0},"completion_rate":1.0,"mean_collisions":114.33333333333333}}"#,
    "\n",
    r#"{"key":"ad495fb251c39db2","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":"Omniscient","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":100.33333333333333,"std_dev":89.85729426893141,"min":36.0,"max":203.0,"median":62.0,"p95":203.0},"completion_rate":1.0,"mean_collisions":296.3333333333333}}"#,
    "\n",
    r#"{"key":"9e2fd09d490fb39a","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Bgi"},"adversary":{"DenseSparse":{"density_factor":null}},"problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":17.333333333333332,"std_dev":3.2145502536643185,"min":15.0,"max":21.0,"median":16.0,"p95":21.0},"completion_rate":1.0,"mean_collisions":228.0}}"#,
    "\n",
    r#"{"key":"cbf6839657063d92","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Bgi"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":10.333333333333334,"std_dev":9.237604307034013,"min":5.0,"max":21.0,"median":5.0,"p95":21.0},"completion_rate":1.0,"mean_collisions":116.0}}"#,
    "\n",
    r#"{"key":"19eeefb213accbcf","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Bgi"},"adversary":"Omniscient","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":40.0,"std_dev":15.874507866387544,"min":22.0,"max":52.0,"median":46.0,"p95":52.0},"completion_rate":1.0,"mean_collisions":672.6666666666666}}"#,
    "\n",
    r#"{"key":"4e1fe696d6e130aa","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":{"DenseSparse":{"density_factor":null}},"problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":19.0,"std_dev":9.643650760992955,"min":12.0,"max":30.0,"median":15.0,"p95":30.0},"completion_rate":1.0,"mean_collisions":242.0}}"#,
    "\n",
    r#"{"key":"4c877ab89be67002","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":13.333333333333334,"std_dev":1.5275252316519468,"min":12.0,"max":15.0,"median":13.0,"p95":15.0},"completion_rate":1.0,"mean_collisions":179.66666666666666}}"#,
    "\n",
    r#"{"key":"2d927c4d6d47f73f","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Global":"Permuted"},"adversary":"Omniscient","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":36.666666666666664,"std_dev":5.033222956847167,"min":32.0,"max":42.0,"median":36.0,"p95":42.0},"completion_rate":1.0,"mean_collisions":606.0}}"#,
    "\n",
);

/// Every registered local algorithm on a random geometric deployment, with
/// a horizon past Geo's initialization, and every registered global
/// algorithm on a grid and the dual clique, each under `Iid` links and the
/// greedy collision attacker.
const DORMANCY_CAMPAIGN: &str = r#"{"name":"dormancy-pin","seed":7,"trials":{"Fixed":3},"groups":[{"topologies":[{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}}],"algorithms":[{"Local":"StaticDecay"},{"Local":"Uniform"},{"Local":"RoundRobin"},{"Local":"Geo"}],"adversaries":[{"Iid":{"p":0.5}},"GreedyCollision"],"problems":[{"LocalRandom":{"count":8,"seed":6}}],"seed":null,"trials":null,"rounds":{"Fixed":600},"collision_detection":false,"record_mode":"None","curve":false},{"topologies":[{"Grid":{"cols":5,"rows":4}},{"DualClique":{"n":16}}],"algorithms":[{"Global":"Bgi"},{"Global":"Permuted"},{"Global":"RoundRobin"}],"adversaries":[{"Iid":{"p":0.5}},"GreedyCollision"],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"Fixed":300},"collision_detection":false,"record_mode":"None","curve":false}]}"#;

/// The store the last binary in which every process ran every round (no
/// declared dormancy, no push reception) wrote for [`DORMANCY_CAMPAIGN`],
/// byte for byte.
const DORMANCY_STORE: &str = concat!(
    r#"{"key":"94f6b7271c80f18d","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"StaticDecay"},"adversary":{"Iid":{"p":0.5}},"problem":{"LocalRandom":{"count":8,"seed":6}},"seed":7,"max_rounds":600,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":11.666666666666666,"std_dev":3.7859388972001824,"min":9.0,"max":16.0,"median":10.0,"p95":16.0},"completion_rate":1.0,"mean_collisions":104.33333333333333}}"#,
    "\n",
    r#"{"key":"791fcf7d7cab5b9e","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"StaticDecay"},"adversary":"GreedyCollision","problem":{"LocalRandom":{"count":8,"seed":6}},"seed":7,"max_rounds":600,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":6.666666666666667,"std_dev":4.041451884327381,"min":2.0,"max":9.0,"median":9.0,"p95":9.0},"completion_rate":1.0,"mean_collisions":75.66666666666667}}"#,
    "\n",
    r#"{"key":"4433f83de485a035","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":{"Iid":{"p":0.5}},"problem":{"LocalRandom":{"count":8,"seed":6}},"seed":7,"max_rounds":600,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":19.0,"std_dev":8.54400374531753,"min":10.0,"max":27.0,"median":20.0,"p95":27.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
    r#"{"key":"d5653d6192d025d6","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Uniform"},"adversary":"GreedyCollision","problem":{"LocalRandom":{"count":8,"seed":6}},"seed":7,"max_rounds":600,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":34.0,"std_dev":33.28663395418648,"min":10.0,"max":72.0,"median":20.0,"p95":72.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
    r#"{"key":"bcf0d7be1b91463d","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"RoundRobin"},"adversary":{"Iid":{"p":0.5}},"problem":{"LocalRandom":{"count":8,"seed":6}},"seed":7,"max_rounds":600,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":15.333333333333334,"std_dev":2.3094010767585034,"min":14.0,"max":18.0,"median":14.0,"p95":18.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
    r#"{"key":"a13d32e1ec6a474e","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"RoundRobin"},"adversary":"GreedyCollision","problem":{"LocalRandom":{"count":8,"seed":6}},"seed":7,"max_rounds":600,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":18.0,"std_dev":0.0,"min":18.0,"max":18.0,"median":18.0,"p95":18.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
    r#"{"key":"eca5d60e9bdc8b14","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Geo"},"adversary":{"Iid":{"p":0.5}},"problem":{"LocalRandom":{"count":8,"seed":6}},"seed":7,"max_rounds":600,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":484.6666666666667,"std_dev":54.884727687520986,"min":451.0,"max":548.0,"median":455.0,"p95":548.0},"completion_rate":1.0,"mean_collisions":238.66666666666666}}"#,
    "\n",
    r#"{"key":"3b04c434fb54b02b","cell":{"scenario":{"topology":{"RandomGeometric":{"n":40,"side":2.0,"r":1.5,"seed":5}},"algorithm":{"Local":"Geo"},"adversary":"GreedyCollision","problem":{"LocalRandom":{"count":8,"seed":6}},"seed":7,"max_rounds":600,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":457.6666666666667,"std_dev":6.110100926607787,"min":451.0,"max":463.0,"median":459.0,"p95":463.0},"completion_rate":1.0,"mean_collisions":68.66666666666667}}"#,
    "\n",
    r#"{"key":"d86126c61a5e6459","cell":{"scenario":{"topology":{"Grid":{"cols":5,"rows":4}},"algorithm":{"Global":"Bgi"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":27.666666666666668,"std_dev":8.144527815247077,"min":22.0,"max":37.0,"median":24.0,"p95":37.0},"completion_rate":1.0,"mean_collisions":19.0}}"#,
    "\n",
    r#"{"key":"feccaf7699ec95fa","cell":{"scenario":{"topology":{"Grid":{"cols":5,"rows":4}},"algorithm":{"Global":"Bgi"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":27.666666666666668,"std_dev":8.144527815247077,"min":22.0,"max":37.0,"median":24.0,"p95":37.0},"completion_rate":1.0,"mean_collisions":19.0}}"#,
    "\n",
    r#"{"key":"8b34a67710b87741","cell":{"scenario":{"topology":{"Grid":{"cols":5,"rows":4}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":19.666666666666668,"std_dev":6.8068592855540455,"min":12.0,"max":25.0,"median":22.0,"p95":25.0},"completion_rate":1.0,"mean_collisions":17.666666666666668}}"#,
    "\n",
    r#"{"key":"9436241175a1e312","cell":{"scenario":{"topology":{"Grid":{"cols":5,"rows":4}},"algorithm":{"Global":"Permuted"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":19.666666666666668,"std_dev":6.8068592855540455,"min":12.0,"max":25.0,"median":22.0,"p95":25.0},"completion_rate":1.0,"mean_collisions":17.666666666666668}}"#,
    "\n",
    r#"{"key":"55c1a7ad885489a3","cell":{"scenario":{"topology":{"Grid":{"cols":5,"rows":4}},"algorithm":{"Global":"RoundRobin"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":15.0,"std_dev":0.0,"min":15.0,"max":15.0,"median":15.0,"p95":15.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
    r#"{"key":"8104da2485549b5c","cell":{"scenario":{"topology":{"Grid":{"cols":5,"rows":4}},"algorithm":{"Global":"RoundRobin"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":15.0,"std_dev":0.0,"min":15.0,"max":15.0,"median":15.0,"p95":15.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
    r#"{"key":"b9f2c4bded5e11d6","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Bgi"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":11.666666666666666,"std_dev":3.511884584284246,"min":8.0,"max":15.0,"median":12.0,"p95":15.0},"completion_rate":1.0,"mean_collisions":32.666666666666664}}"#,
    "\n",
    r#"{"key":"1540e9a8dd2d3715","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Bgi"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":22.0,"std_dev":11.532562594670797,"min":9.0,"max":31.0,"median":26.0,"p95":31.0},"completion_rate":1.0,"mean_collisions":70.66666666666667}}"#,
    "\n",
    r#"{"key":"2d085a695a56c2f4","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":7.0,"std_dev":1.7320508075688772,"min":5.0,"max":8.0,"median":8.0,"p95":8.0},"completion_rate":1.0,"mean_collisions":13.666666666666666}}"#,
    "\n",
    r#"{"key":"e2a167b98d6e6bf3","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"Permuted"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":34.0,"std_dev":14.798648586948742,"min":17.0,"max":44.0,"median":41.0,"p95":44.0},"completion_rate":1.0,"mean_collisions":164.33333333333334}}"#,
    "\n",
    r#"{"key":"951270f18a15845e","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"RoundRobin"},"adversary":{"Iid":{"p":0.5}},"problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":5.666666666666667,"std_dev":3.0550504633038935,"min":3.0,"max":9.0,"median":5.0,"p95":9.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
    r#"{"key":"b66d56479e31b0cd","cell":{"scenario":{"topology":{"DualClique":{"n":16}},"algorithm":{"Global":"RoundRobin"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":7,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":9.0,"std_dev":0.0,"min":9.0,"max":9.0,"median":9.0,"p95":9.0},"completion_rate":1.0,"mean_collisions":0.0}}"#,
    "\n",
);

/// The three adaptive attacks on a grid-geometric deployment whose
/// automatic layout is CSR rows alone (242 dynamic edges), so every
/// receiver's row is walked, never ANDed as packed words.
const ADAPTIVE_CSR_CAMPAIGN: &str = r#"{"name":"adaptive-csr-pin","seed":5,"trials":{"Fixed":3},"groups":[{"topologies":[{"GridGeometric":{"cols":12,"rows":12,"spacing":1.0,"r":1.5}}],"algorithms":[{"Global":"Bgi"},{"Global":"Permuted"}],"adversaries":[{"DenseSparse":{"density_factor":null}},"GreedyCollision","Omniscient"],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"Fixed":300},"collision_detection":false,"record_mode":"None","curve":false}]}"#;

/// The store the last binary whose greedy and omniscient attacks walked
/// neighbour lists wrote for [`ADAPTIVE_CSR_CAMPAIGN`], byte for byte.
const ADAPTIVE_CSR_STORE: &str = concat!(
    r#"{"key":"cbfc87347689ca0e","cell":{"scenario":{"topology":{"GridGeometric":{"cols":12,"rows":12,"spacing":1.0,"r":1.5}},"algorithm":{"Global":"Bgi"},"adversary":{"DenseSparse":{"density_factor":null}},"problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":83.0,"std_dev":8.0,"min":75.0,"max":91.0,"median":83.0,"p95":91.0},"completion_rate":1.0,"mean_collisions":761.0}}"#,
    "\n",
    r#"{"key":"ce18e25e5ba9fe26","cell":{"scenario":{"topology":{"GridGeometric":{"cols":12,"rows":12,"spacing":1.0,"r":1.5}},"algorithm":{"Global":"Bgi"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":98.66666666666667,"std_dev":8.504900548115383,"min":90.0,"max":107.0,"median":99.0,"p95":107.0},"completion_rate":1.0,"mean_collisions":539.0}}"#,
    "\n",
    r#"{"key":"572ca60e811f6ca3","cell":{"scenario":{"topology":{"GridGeometric":{"cols":12,"rows":12,"spacing":1.0,"r":1.5}},"algorithm":{"Global":"Bgi"},"adversary":"Omniscient","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":141.0,"std_dev":24.331050121192877,"min":125.0,"max":169.0,"median":129.0,"p95":169.0},"completion_rate":1.0,"mean_collisions":1488.3333333333333}}"#,
    "\n",
    r#"{"key":"80f9cd00ccb05bce","cell":{"scenario":{"topology":{"GridGeometric":{"cols":12,"rows":12,"spacing":1.0,"r":1.5}},"algorithm":{"Global":"Permuted"},"adversary":{"DenseSparse":{"density_factor":null}},"problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":105.66666666666667,"std_dev":14.153915830374762,"min":97.0,"max":122.0,"median":98.0,"p95":122.0},"completion_rate":1.0,"mean_collisions":648.6666666666666}}"#,
    "\n",
    r#"{"key":"dbc2b2b312166ee6","cell":{"scenario":{"topology":{"GridGeometric":{"cols":12,"rows":12,"spacing":1.0,"r":1.5}},"algorithm":{"Global":"Permuted"},"adversary":"GreedyCollision","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":113.33333333333333,"std_dev":5.507570547286102,"min":108.0,"max":119.0,"median":113.0,"p95":119.0},"completion_rate":1.0,"mean_collisions":449.3333333333333}}"#,
    "\n",
    r#"{"key":"2144ca8857157763","cell":{"scenario":{"topology":{"GridGeometric":{"cols":12,"rows":12,"spacing":1.0,"r":1.5}},"algorithm":{"Global":"Permuted"},"adversary":"Omniscient","problem":{"GlobalFrom":0},"seed":5,"max_rounds":300,"collision_detection":false},"trials":{"Fixed":3},"record_mode":"None"},"trials_run":3,"measurement":{"rounds":{"count":3,"mean":138.0,"std_dev":21.93171219946131,"min":113.0,"max":154.0,"median":147.0,"p95":154.0},"completion_rate":1.0,"mean_collisions":943.3333333333334}}"#,
    "\n",
);

fn temp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "dradio-backcompat-{tag}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn old_store_loads_and_reserializes_byte_identically() {
    let path = temp_path("load");
    std::fs::write(&path, GOLDEN_STORE).unwrap();
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.len(), 4, "every old record loads");
    // Loading a clean old store must not rewrite a single byte.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN_STORE);

    // Each record re-serializes to its original line: the new measurement
    // shape (integer completion counts, optional contention) is invisible
    // for curve-less records.
    for (record, line) in store.records().iter().zip(GOLDEN_STORE.lines()) {
        assert_eq!(
            serde_json::to_string(record).unwrap(),
            line,
            "record {} drifted from its pre-refactor bytes",
            record.key
        );
    }

    // The loaded records report the same statistics the old binary printed,
    // with the completion counts reconstructed exactly.
    let first = &store.records()[0];
    assert_eq!(first.trials_run, 8);
    assert_eq!(first.measurement.rounds.count, 8);
    assert_eq!(first.measurement.completion.completed, 8);
    assert_eq!(first.measurement.completion.trials, 8);
    assert_eq!(first.measurement.completion_rate(), 1.0);
    assert!(first.measurement.contention.is_none());
    // The old adaptive policy deserializes to the default stop rule.
    assert_eq!(
        first.cell.trials,
        TrialPolicy::Adaptive {
            min: 2,
            max: 8,
            relative_width: 0.2,
            stop: StopRule::MeanCostCi,
        }
    );
    assert!(!first.cell.curve);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn old_fractional_completion_rates_reconstruct_exact_counts() {
    let path = temp_path("fraction");
    std::fs::write(&path, GOLDEN_FRACTIONAL_STORE).unwrap();
    let store = ResultStore::open(&path).unwrap();
    let record = &store.records()[0];
    assert_eq!(record.measurement.completion.completed, 2);
    assert_eq!(record.measurement.completion.trials, 3);
    // 2/3 re-divides to the identical f64, so the line is byte-stable.
    assert_eq!(
        serde_json::to_string(record).unwrap(),
        GOLDEN_FRACTIONAL_STORE.trim_end_matches('\n')
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn old_cell_keys_are_unchanged_under_the_new_key_function() {
    // CellSpec::key() over the old cells must reproduce the old hashes —
    // otherwise every resume would re-measure (and duplicate) everything.
    let path = temp_path("keys");
    std::fs::write(&path, GOLDEN_STORE).unwrap();
    let store = ResultStore::open(&path).unwrap();
    let expected = [
        "126c8e1cc5cc097c",
        "a7a5e400c1b0ef0a",
        "e9920d077e512d29",
        "4b8885fac942a1c3",
    ];
    for (record, key) in store.records().iter().zip(expected) {
        assert_eq!(record.key, key);
        assert_eq!(record.cell.key(), key, "key function drifted");
    }
    // And the spec's own expansion still produces exactly these cells.
    let spec: CampaignSpec = serde_json::from_str(GOLDEN_CAMPAIGN).unwrap();
    let cells = spec.expand().unwrap();
    assert_eq!(cells.len(), 4);
    for (cell, key) in cells.iter().zip(expected) {
        assert_eq!(cell.key(), key, "{}", cell.label());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn old_store_resumes_byte_identically_under_the_new_binary() {
    // A partial old store — the first two records — resumed by the new
    // code must complete to the old binary's full store byte for byte:
    // same keys, same seeds, same measurements, same serialization.
    let path = temp_path("resume");
    let two_lines: String = GOLDEN_STORE
        .lines()
        .take(2)
        .flat_map(|l| [l, "\n"])
        .collect();
    std::fs::write(&path, &two_lines).unwrap();

    let spec: CampaignSpec = serde_json::from_str(GOLDEN_CAMPAIGN).unwrap();
    let mut store = ResultStore::open(&path).unwrap();
    let report = CampaignRunner::new(&spec).run(&mut store).unwrap();
    assert_eq!(report.skipped, 2, "the old records are recognised");
    assert_eq!(report.executed, 2, "only the missing suffix runs");
    drop(store);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        GOLDEN_STORE,
        "resume under the new binary must reproduce the old store's bytes"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fresh_runs_of_old_campaigns_reproduce_old_stores() {
    // The strongest form: from an empty store, the new binary re-measures
    // the old campaign to the exact bytes the old binary wrote.
    for (campaign, golden, tag) in [
        (GOLDEN_CAMPAIGN, GOLDEN_STORE, "fresh-adaptive"),
        (
            GOLDEN_FRACTIONAL_CAMPAIGN,
            GOLDEN_FRACTIONAL_STORE,
            "fresh-fixed",
        ),
    ] {
        let path = temp_path(tag);
        let spec: CampaignSpec = serde_json::from_str(campaign).unwrap();
        let mut store = ResultStore::open(&path).unwrap();
        CampaignRunner::new(&spec).run(&mut store).unwrap();
        drop(store);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            golden,
            "{tag}: the new binary's measurements drifted from the old ones"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn compacting_an_old_store_is_the_identity() {
    // Every old record is in the old spec's expansion, so compaction keeps
    // all of them — byte for byte, in the same order.
    let path = temp_path("compact-old");
    std::fs::write(&path, GOLDEN_STORE).unwrap();
    let spec: CampaignSpec = serde_json::from_str(GOLDEN_CAMPAIGN).unwrap();
    let report = ResultStore::compact(&spec, &path).unwrap();
    assert_eq!(report.kept, 4);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.missing, 0);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN_STORE);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn legacy_batch_store_lines_load_check_compact_and_resume() {
    // Batching is now the runner's decision; a stored `"batch":true` is
    // read past, never rewritten, and changes nothing about the cell.
    let path = temp_path("legacy-batch");
    std::fs::write(&path, LEGACY_BATCH_STORE).unwrap();
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.len(), 1, "the legacy record loads");
    let record = &store.records()[0];
    assert_eq!(record.key, "20197961876757b2");
    assert_eq!(record.cell.key(), record.key, "the flag was never identity");
    drop(store);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), LEGACY_BATCH_STORE);

    let fsck = ResultStore::fsck(&path).unwrap();
    assert!(fsck.is_clean(), "{fsck}");

    let spec: CampaignSpec = serde_json::from_str(LEGACY_BATCH_CAMPAIGN).unwrap();
    let report = ResultStore::compact(&spec, &path).unwrap();
    assert_eq!((report.kept, report.dropped, report.missing), (1, 0, 0));
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        LEGACY_BATCH_STORE,
        "compaction keeps the legacy line's bytes"
    );

    let mut store = ResultStore::open(&path).unwrap();
    let report = CampaignRunner::new(&spec).run(&mut store).unwrap();
    assert_eq!((report.skipped, report.executed), (1, 0));
    drop(store);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), LEGACY_BATCH_STORE);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn legacy_batch_campaigns_rerun_to_the_same_line_without_the_flag() {
    // A fresh run of the legacy spec measures exactly what the old binary
    // measured; only the flag, which is no longer written, drops out.
    let path = temp_path("legacy-batch-fresh");
    let spec: CampaignSpec = serde_json::from_str(LEGACY_BATCH_CAMPAIGN).unwrap();
    let mut store = ResultStore::open(&path).unwrap();
    CampaignRunner::new(&spec).run(&mut store).unwrap();
    drop(store);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        LEGACY_BATCH_STORE.replace(r#","batch":true"#, "")
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn link_profile_cells_reproduce_the_stores_decide_wrote() {
    // Oblivious `Iid`-profiled cells no longer call `decide` when no history
    // is kept: the engine reads only the coins of edges that touch a
    // transmitter. The bytes must not move, on either backend.
    for (campaign, golden, tag) in [
        (LINK_PROFILE_CAMPAIGN, LINK_PROFILE_STORE, "link-profile"),
        (
            LINK_PROFILE_CSR_CAMPAIGN,
            LINK_PROFILE_CSR_STORE,
            "link-profile-csr",
        ),
    ] {
        let path = temp_path(tag);
        let spec: CampaignSpec = serde_json::from_str(campaign).unwrap();
        let mut store = ResultStore::open(&path).unwrap();
        CampaignRunner::new(&spec).run(&mut store).unwrap();
        drop(store);
        // The CSR fixture's cells carry the layout knob that binary wrote;
        // the layout is no longer a knob, so a fresh run omits it.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            golden.replace(r#","backend":"Csr""#, ""),
            "{tag}: the profile path drifted from the decide path's store"
        );
        let _ = std::fs::remove_file(&path);
    }
    // The CSR fixture was measured on CSR rows; they still measure it.
    assert_lines_remeasure_on_their_layouts(LINK_PROFILE_CSR_STORE);
}

/// Re-measures every stored line's cell on the layout its `"backend"` names
/// and compares the measurement bytes with the stored ones.
fn assert_lines_remeasure_on_their_layouts(golden: &str) {
    for line in golden.lines() {
        let layout = if line.contains(r#""backend":"Dense""#) {
            GraphBackend::Dense
        } else {
            assert!(line.contains(r#""backend":"Csr""#), "{line}");
            GraphBackend::Csr
        };
        assert_line_remeasures_on(line, layout);
    }
}

/// Re-measures a stored line's cell on `layout` — the network built by its
/// spec, converted with `with_graph_backend` — and compares the measurement
/// bytes with the stored ones.
fn assert_line_remeasures_on(line: &str, layout: GraphBackend) {
    let record: CellRecord = serde_json::from_str(line).unwrap();
    let built = record.cell.scenario.topology.build().unwrap();
    let converted = BuiltTopology {
        dual: Arc::new(built.dual.with_graph_backend(layout)),
        ..built
    };
    assert_eq!(converted.dual.graph_backend(), layout);
    let scenario = ScenarioBuilder::from_spec(record.cell.scenario.clone())
        .with_topology(converted)
        .build()
        .unwrap();
    let TrialPolicy::Fixed(trials) = record.cell.trials else {
        panic!("the layout fixtures use fixed trial counts");
    };
    let runner = ScenarioRunner::new(&scenario)
        .sequential()
        .record_mode(record.cell.record_mode);
    let measurement = Measurement::from_trials(&runner.collect_trials(trials).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&measurement).unwrap(),
        serde_json::to_string(&record.measurement).unwrap(),
        "{layout} layout: {}",
        record.cell.label()
    );
}

#[test]
fn legacy_backend_store_lines_load_check_compact_and_resume() {
    // The layout is now the dual graph's decision; a stored `"backend"` is
    // read past, never rewritten, and changes nothing about the cell.
    let path = temp_path("legacy-backend");
    std::fs::write(&path, LEGACY_BACKEND_STORE).unwrap();
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.len(), 6, "the legacy records load");
    for record in store.records() {
        assert_eq!(record.cell.key(), record.key, "the knob was never identity");
    }
    drop(store);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        LEGACY_BACKEND_STORE
    );

    let fsck = ResultStore::fsck(&path).unwrap();
    assert!(fsck.is_clean(), "{fsck}");

    let spec: CampaignSpec = serde_json::from_str(LEGACY_BACKEND_CAMPAIGN).unwrap();
    let report = ResultStore::compact(&spec, &path).unwrap();
    assert_eq!((report.kept, report.dropped, report.missing), (6, 0, 0));
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        LEGACY_BACKEND_STORE,
        "compaction keeps the legacy lines' bytes"
    );

    let mut store = ResultStore::open(&path).unwrap();
    let report = CampaignRunner::new(&spec).run(&mut store).unwrap();
    assert_eq!((report.skipped, report.executed), (6, 0));
    drop(store);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        LEGACY_BACKEND_STORE
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn legacy_backend_campaigns_rerun_to_the_same_lines_without_the_field() {
    // A fresh run of the legacy spec measures exactly what the old binary
    // measured under each forced layout; only the knob, which is no longer
    // written, drops out.
    let path = temp_path("legacy-backend-fresh");
    let spec: CampaignSpec = serde_json::from_str(LEGACY_BACKEND_CAMPAIGN).unwrap();
    let mut store = ResultStore::open(&path).unwrap();
    CampaignRunner::new(&spec).run(&mut store).unwrap();
    drop(store);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        LEGACY_BACKEND_STORE
            .replace(r#","backend":"Dense""#, "")
            .replace(r#","backend":"Csr""#, "")
    );
    let _ = std::fs::remove_file(&path);
    // And each layout the old binary was forced onto still measures its
    // lines today.
    assert_lines_remeasure_on_their_layouts(LEGACY_BACKEND_STORE);
}

#[test]
fn adaptive_cells_reproduce_the_store_full_recording_wrote() {
    // Adaptive adversaries now read the same edge-free rounds under every
    // record mode, and all-dynamic rounds fold over G' instead of being
    // validated edge by edge. The bytes must not move.
    let path = temp_path("adaptive");
    let spec: CampaignSpec = serde_json::from_str(ADAPTIVE_CAMPAIGN).unwrap();
    let mut store = ResultStore::open(&path).unwrap();
    CampaignRunner::new(&spec).run(&mut store).unwrap();
    drop(store);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        ADAPTIVE_STORE,
        "the adaptive cells drifted from the store full recording wrote"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn adaptive_csr_cells_reproduce_the_store_list_scans_wrote() {
    // The greedy and omniscient attacks now scan each row against a packed
    // node bitset in the row's own shape; on CSR rows that is a walk with a
    // bit test. The bytes must not move.
    let spec: CampaignSpec = serde_json::from_str(ADAPTIVE_CSR_CAMPAIGN).unwrap();
    let cells = spec.expand().unwrap();
    let built = cells[0].scenario.topology.build().unwrap();
    assert_eq!(built.dual.graph_backend(), GraphBackend::Csr);
    assert_eq!(built.dual.dynamic_index().len(), 242);
    let path = temp_path("adaptive-csr");
    let mut store = ResultStore::open(&path).unwrap();
    CampaignRunner::new(&spec).run(&mut store).unwrap();
    drop(store);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        ADAPTIVE_CSR_STORE,
        "the adaptive CSR cells drifted from the store list scans wrote"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn adaptive_cells_remeasure_on_both_layouts() {
    // The dual clique and the random geometric graph are dense by default,
    // the grid-geometric deployment CSR; on the other layout every cell
    // still measures its stored bytes.
    for line in ADAPTIVE_STORE.lines().chain(ADAPTIVE_CSR_STORE.lines()) {
        for layout in [GraphBackend::Dense, GraphBackend::Csr] {
            assert_line_remeasures_on(line, layout);
        }
    }
}

#[test]
fn dormancy_cells_reproduce_the_store_awake_processes_wrote() {
    // Registered algorithms now declare the rounds they sleep through; the
    // engine skips their calls and resolves sparse rounds by pushing each
    // transmitter's row. The bytes must not move, on either layout.
    let path = temp_path("dormancy");
    let spec: CampaignSpec = serde_json::from_str(DORMANCY_CAMPAIGN).unwrap();
    let mut store = ResultStore::open(&path).unwrap();
    CampaignRunner::new(&spec).run(&mut store).unwrap();
    drop(store);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        DORMANCY_STORE,
        "the dormant path drifted from the store awake processes wrote"
    );
    let _ = std::fs::remove_file(&path);
    for line in DORMANCY_STORE.lines() {
        for layout in [GraphBackend::Dense, GraphBackend::Csr] {
            assert_line_remeasures_on(line, layout);
        }
    }
}
