//! Golden optimiser trajectories.
//!
//! Both engines are deterministic for a fixed seed, so the winning Polish
//! expression and the exact bits of its weighted cost pin the whole search
//! trajectory: any change to perturbation, crossover, RNG consumption,
//! placement evaluation or cost arithmetic moves at least one row of this
//! table. The values were recorded with the default engine configurations
//! over `testutil::evaluator(modules, 7, weights)`.

use tats_floorplan::{
    anneal, evolve, testutil, CostWeights, Element, GaConfig, OptimisedFloorplan, SaConfig,
};

/// `(engine, weights, modules, weighted-cost bits, winning expression)`.
const GOLDEN: &[(&str, &str, usize, u64, &str)] = &[
    (
        "ga",
        "area",
        8,
        0x3fe10cbfe6c9d844,
        "2 7 3 H H 0 1 V 4 H V 5 6 H V",
    ),
    (
        "ga",
        "area",
        32,
        0x3fcb5c14c48e08a5,
        "1 0 V 2 3 H 6 V V 4 7 V H 5 8 V 9 V 11 H 13 H 12 V V 10 V 14 15 H V 16 V 17 V 18 V \
         19 21 H V 20 23 H 24 H V 22 28 H 25 V 26 V 27 V 31 H V 29 30 H V",
    ),
    (
        "ga",
        "thermal",
        8,
        0x3ff97dbb5547ef00,
        "1 4 H 0 6 2 H H V 7 3 H 5 V H",
    ),
    (
        "ga",
        "thermal",
        32,
        0x3ff60d6d2204b22e,
        "1 0 V 2 6 H 3 V V 4 V 7 H 8 V 5 9 V 11 H H 10 H 13 H 12 14 15 V H V 16 H 18 V 17 V \
         19 20 V 21 V 23 V 22 V H 25 24 H 28 V 26 27 H 31 H H V 29 30 V H",
    ),
    (
        "sa",
        "area",
        8,
        0x3fe06add4553f864,
        "7 0 4 V 3 5 H 2 1 H 6 H V H H",
    ),
    (
        "sa",
        "area",
        32,
        0x3fc6223eee2d770d,
        "9 8 V 10 4 H H 3 6 H 5 2 H V 1 7 H 14 0 V 28 H V H V 16 17 20 13 H V 24 12 V H H 11 \
         22 H 18 H 31 H 23 H V V 15 19 21 H 29 H V 26 27 H 25 H V 30 H V",
    ),
    (
        "sa",
        "thermal",
        8,
        0x3ff8e2a45ba6857a,
        "1 6 0 H H 7 2 H 4 H V 5 3 H V",
    ),
    (
        "sa",
        "thermal",
        32,
        0x3ff31e125c2b373a,
        "8 3 6 5 H 0 4 H V 2 13 1 H H V H 7 11 V 9 H H 14 15 H V H 16 26 H 20 10 12 H H 23 18 \
         V H H 19 22 17 H 28 24 H 21 H 27 H V H 31 30 H H V 25 29 H V H",
    ),
];

/// The expression in postfix notation: operands by index, cuts as `H`/`V`.
fn postfix(result: &OptimisedFloorplan) -> String {
    result
        .expression
        .elements()
        .iter()
        .map(|element| match element {
            Element::Operand(m) => m.to_string(),
            Element::H => "H".to_string(),
            Element::V => "V".to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn default_engines_reproduce_their_golden_trajectories() {
    let mut mismatches = Vec::new();
    for &(engine, weights_name, modules, bits, expression) in GOLDEN {
        let weights = match weights_name {
            "area" => CostWeights::area_only(),
            "thermal" => CostWeights::thermal_aware(),
            other => panic!("unknown weights {other}"),
        };
        let evaluator = testutil::evaluator(modules, 7, weights).unwrap();
        let result = match engine {
            "ga" => evolve(&evaluator, GaConfig::default()).unwrap(),
            "sa" => anneal(&evaluator, SaConfig::default()).unwrap(),
            other => panic!("unknown engine {other}"),
        };
        let actual = postfix(&result);
        let actual_bits = result.cost.weighted.to_bits();
        if actual != expression || actual_bits != bits {
            mismatches.push(format!(
                "{engine} {weights_name} {modules}: {actual_bits:#018x} \"{actual}\""
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "trajectories moved:\n{}",
        mismatches.join("\n")
    );
}
