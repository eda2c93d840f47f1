//! Property tests for the JSON layer the daemon's wire protocol rides on.
//!
//! Two contracts:
//!
//! * **Round-trip**: `parse_json(&t.render()) == Ok(t)` for every tree
//!   whose numbers respect the module's precision contract (we generate
//!   integers below 2^53 and exact binary fractions).
//! * **Grammar**: [`parse_json`] accepts and rejects a fixed corpus of
//!   near-JSON inputs exactly as the JSON grammar says.

use islaris_obs::json::{obj, parse_json, Json};
use islaris_testkit::{forall, Rng, TestResult};

/// A random string exercising every escape class: control bytes,
/// quotes, backslashes, multibyte unicode, plain ASCII.
fn gen_string(rng: &mut Rng) -> String {
    let menu = [
        "a",
        "Z",
        "0",
        " ",
        "\"",
        "\\",
        "/",
        "\n",
        "\t",
        "\r",
        "\u{8}",
        "\u{c}",
        "\u{1}",
        "\u{1f}",
        "é",
        "λ",
        "中",
        "🦀",
        "\u{7f}",
        "x10",
        "(init R0)",
    ];
    let len = rng.index(12);
    (0..len).map(|_| *rng.choose(&menu)).collect()
}

/// A random number inside the exact-round-trip envelope: integers up to
/// 2^53 (positive and negative) and exact binary fractions.
fn gen_num(rng: &mut Rng) -> f64 {
    let magnitude = match rng.index(4) {
        0 => f64::from(rng.next_u8()),
        1 => (rng.next_u64() % (1 << 53)) as f64,
        2 => f64::from(rng.next_u32()) + 0.5,
        _ => f64::from(rng.next_u32()) / 4.0,
    };
    if rng.next_bool() {
        -magnitude
    } else {
        magnitude
    }
}

fn gen_tree(rng: &mut Rng, depth: usize) -> Json {
    let leaf_only = depth == 0;
    match rng.index(if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.next_bool()),
        2 => Json::Num(gen_num(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.index(4);
            Json::Arr((0..n).map(|_| gen_tree(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.index(4);
            Json::Obj(
                (0..n)
                    .map(|i| {
                        (
                            format!("k{i}_{}", gen_string(rng)),
                            gen_tree(rng, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

#[test]
fn random_trees_survive_render_then_parse() {
    forall(
        "json-render-parse-roundtrip",
        400,
        |rng| gen_tree(rng, 3),
        |tree| {
            let text = tree.render();
            match parse_json(&text) {
                Ok(back) if &back == tree => TestResult::Pass,
                Ok(back) => TestResult::Fail(format!("reparsed differently: {back:?} from {text}")),
                Err((off, msg)) => TestResult::Fail(format!(
                    "render produced invalid JSON at {off}: {msg} in {text}"
                )),
            }
        },
    );
}

/// Inputs the daemon's request bodies and the telemetry files could
/// plausibly contain, each with the verdict the JSON grammar gives it.
#[test]
fn parse_accepts_and_rejects_the_corpus() {
    for ok in [
        "{}",
        "[]",
        "null",
        "true",
        "false",
        "0",
        "-0",
        "0.5",
        "10",
        "-1",
        "3.5",
        "1e3",
        "\"\"",
        "\"k\"",
        "\"\\u0041\"",
        "\"\\u00fF\"",
        " \t[{\"k\":null}, -0.5]\n",
    ] {
        assert!(parse_json(ok).is_ok(), "rejected {ok:?}");
    }
    for bad in [
        "",
        "{",
        "}",
        "[1,]",
        ",",
        ":",
        "{\"k\"}",
        "{} {}",
        "+1",
        "00",
        "-01",
        "01.5",
        "nul",
        "\u{1}",
        "\\",
        "\"unterminated",
        "\"\\q\"",
        "\"\\u12\"",
        "\"\\u+abc\"",
        "\"\\u-abc\"",
        "\"\\u 0ab\"",
        "\"\\u00g1\"",
    ] {
        assert!(parse_json(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn obj_builder_round_trips() {
    let t = obj(vec![
        ("kind", Json::Str("case".into())),
        ("n", Json::Num(42.0)),
        ("nested", obj(vec![("ok", Json::Bool(true))])),
    ]);
    assert_eq!(parse_json(&t.render()), Ok(t));
}
