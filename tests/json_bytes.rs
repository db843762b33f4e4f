//! The JSON encoder's bytes, pinned. Each input below is held, in both
//! `serde_json::to_string` and `to_string_pretty`, to a recorded length
//! and FNV-1a-64 digest: the fleet and replay reports the service and the
//! benchmark encode, the catalog's `/decide` and `/scenarios` bodies,
//! scalar edge values, every derived container shape and empty and nested
//! containers. Change a pin only when these bytes change on purpose: the
//! encoder's format, or the fleet, replay or model values it encodes.

use std::collections::{BTreeMap, HashMap};

use serde::Serialize;
use stream_score::core::Scenario;
use stream_score::exec::ThreadPool;
use stream_score::loadgen::{AdmissionPolicy, FleetConfig, FleetSim, ReplayConfig, SessionReplay};
use stream_score::server::{DecideResponse, ScenariosResponse};
use stream_score::sim::TraceShape;
use stream_score::units::Rate;

mod common;
use common::fnv1a64;

/// Hold `value`'s compact and pretty encodings to `(length, digest)` pins.
fn assert_pinned<T: Serialize + ?Sized>(value: &T, compact: (usize, u64), pretty: (usize, u64)) {
    let pin = |text: String| (text.len(), fnv1a64(text.as_bytes()));
    let got = (
        pin(serde_json::to_string(value).expect("encodes")),
        pin(serde_json::to_string_pretty(value).expect("encodes")),
    );
    assert!(
        got == (compact, pretty),
        "compact ({}, {:#018x}), pretty ({}, {:#018x})",
        got.0 .0,
        got.0 .1,
        got.1 .0,
        got.1 .1
    );
}

/// CI's 1000-session bursty FIFO fleet (`stream-score fleet --sessions
/// 1000 --load 64 --slots 32 --wan 40Gbps --shape bursty --seed 7`).
#[test]
fn the_thousand_session_fleet_report() {
    let config = FleetConfig {
        sessions: 1000,
        load: 64.0,
        slots: 32,
        wan: Rate::from_gbps(40.0),
        shape: TraceShape::Bursty,
        policy: AdmissionPolicy::Fifo,
        ..FleetConfig::standard(7)
    };
    let report = FleetSim::bundled(config)
        .expect("valid")
        .run(&ThreadPool::new(2))
        .expect("runs");
    assert_pinned(
        &report,
        (365964, 0x9a8e_b120_e870_771f),
        (481139, 0xe2b1_144f_8deb_eca3),
    );
}

/// `stream-score simulate --frames 1000 --files 7`: the catalog under all
/// four shapes.
#[test]
fn the_replay_report() {
    let config = ReplayConfig {
        frames: 1000,
        files: 7,
        ..ReplayConfig::standard(42)
    };
    let report = SessionReplay::bundled(config)
        .expect("valid")
        .run(&ThreadPool::new(2));
    assert_pinned(
        &report,
        (19620, 0x740f_1dfa_5d02_8e34),
        (25315, 0x3ad2_dbe2_25ae_258a),
    );
}

/// The `/decide` body of every catalog scenario, and the `/scenarios`
/// body.
#[test]
fn the_catalog_bodies() {
    let decisions: Vec<DecideResponse> = Scenario::all()
        .iter()
        .map(|s| DecideResponse::evaluate(&s.params))
        .collect();
    assert_eq!(decisions.len(), 13);
    assert_pinned(
        &decisions,
        (7290, 0x5cde_fb84_393d_f2d3),
        (9716, 0x564a_d1dc_4083_973f),
    );
    assert_pinned(
        &ScenariosResponse::bundled(),
        (10292, 0x3009_8ea4_29d6_cc32),
        (14005, 0x6e51_6e32_af56_0634),
    );
}

#[derive(Serialize)]
struct Edges {
    nan: f64,
    infinity: f64,
    negative_infinity: f64,
    negative_zero: f64,
    huge: f64,
    tiny: f64,
    single: f32,
    max: u64,
    min: i64,
    text: String,
}

/// Floats without a finite value encode as `null`, a float whose digits
/// hold no `.`, `e` or `E` gains `.0`, an `f32` widens to `f64` first,
/// integers print bare and control characters escape.
#[test]
fn scalar_edge_values() {
    let edges = Edges {
        nan: f64::NAN,
        infinity: f64::INFINITY,
        negative_infinity: f64::NEG_INFINITY,
        negative_zero: -0.0,
        huge: 1e300,
        tiny: 1e-7,
        single: 0.1,
        max: u64::MAX,
        min: i64::MIN,
        text: "\"\\\n\t\u{1}\u{1f}".to_string(),
    };
    let compact = serde_json::to_string(&edges).unwrap();
    let huge = format!("1{}.0", "0".repeat(300));
    assert_eq!(
        compact,
        format!(
            "{{\"nan\":null,\"infinity\":null,\"negative_infinity\":null,\
             \"negative_zero\":-0.0,\"huge\":{huge},\"tiny\":0.0000001,\
             \"single\":0.10000000149011612,\"max\":18446744073709551615,\
             \"min\":-9223372036854775808,\"text\":\"\\\"\\\\\\n\\t\\u0001\\u001f\"}}"
        )
    );
    assert_pinned(
        &edges,
        (515, 0x8021_332a_f8ad_13e9),
        (556, 0x0692_8bf1_5339_fee1),
    );
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(f64);

#[derive(Serialize)]
struct Pair(u8, bool);

#[derive(Serialize)]
#[serde(transparent)]
struct Transparent {
    inner: Vec<u8>,
}

#[derive(Serialize)]
enum Variants {
    Unit,
    Newtype(f64),
    Tuple(u32, String),
    Struct { a: Option<u8>, b: [u16; 2] },
}

#[derive(Serialize)]
struct Shapes {
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    transparent: Transparent,
    variants: Vec<Variants>,
    tuple: (char, &'static str, Option<bool>, Box<i8>),
    sorted: HashMap<String, u8>,
}

/// Every container shape the derive accepts, and the standard containers.
#[test]
fn every_derived_shape() {
    let shapes = Shapes {
        unit: Unit,
        newtype: Newtype(2.0),
        pair: Pair(7, true),
        transparent: Transparent { inner: vec![1, 2] },
        variants: vec![
            Variants::Unit,
            Variants::Newtype(0.5),
            Variants::Tuple(3, "x".to_string()),
            Variants::Struct { a: None, b: [4, 5] },
        ],
        tuple: ('é', "s", None, Box::new(-1)),
        sorted: [("b", 2), ("a", 1), ("c", 3)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    };
    assert_pinned(
        &shapes,
        (205, 0xff32_1b17_1b9c_07b7),
        (449, 0x0a9a_8dbc_0c39_96bf),
    );
}

/// Empty containers close on the line they open, in either mode, and a
/// nested sequence indents a level per depth.
#[test]
fn empty_and_nested_containers() {
    let empty: (Vec<u8>, BTreeMap<String, u8>) = (Vec::new(), BTreeMap::new());
    assert_eq!(
        serde_json::to_string_pretty(&empty).unwrap(),
        "[\n  [],\n  {}\n]"
    );
    assert_pinned(
        &empty,
        (7, 0x8a63_f14d_f518_2bed),
        (14, 0xe0e1_f7ff_4631_9343),
    );
    let nested = vec![vec![vec![1.5, 2.0]], vec![], vec![vec![]]];
    assert_pinned(
        &nested,
        (21, 0x068d_d940_555d_4057),
        (66, 0x2b54_0985_67b6_a1a1),
    );
}
