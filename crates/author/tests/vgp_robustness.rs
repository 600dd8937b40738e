//! Fault injection for the `.vgp` project parser: `from_vgp` must be
//! total over arbitrary damage — splices, truncation, byte flips,
//! garbage, hostile numbers — and always answer with a parsed project or
//! a typed `AuthorError::ProjectParse`, never a panic. Debug builds check
//! integer overflow, so an unchecked size computation fails here too.

use proptest::prelude::*;
use vgbl_author::serialize::{from_vgp, to_vgp};
use vgbl_author::wizard::escape_template;
use vgbl_author::AuthorError;

/// A project text using every directive: the escape-room template
/// (scenarios, objects, triggers, start) plus keyed and unkeyed assets,
/// a dialogue tree, a description, an image, an NPC anchor and a
/// visibility condition.
fn sample_vgp() -> String {
    let text = to_vgp(&escape_template("escape", 2)).expect("template serialises");
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("segments "))
        .expect("segments line")
        + 1;
    lines.splice(
        at..at,
        [
            "asset logo 2 1 ff00ff 0a0b0cff00ff",
            "asset dot 1 1 - 102030",
            "npc guide",
            "dlgnode guide 0 \"Need a hint?\"",
            "dlgchoice guide 0 \"Yes\" 1",
            "dlgchoice guide 0 \"No\" end",
            "dlgnode guide 1 \"Try the desk.\"",
        ],
    );
    let scenario = lines
        .iter()
        .find_map(|l| l.strip_prefix("scenario "))
        .and_then(|rest| rest.split(' ').next())
        .expect("a scenario")
        .to_owned();
    let mut out = lines.join("\n");
    out.push_str(&format!("\ndesc {scenario} \"A locked room.\"\n"));
    out.push_str(&format!("object {scenario} badge image 1 1 2 1 5 logo\n"));
    out.push_str(&format!(
        "object {scenario} helper npcref 4 4 8 8 0 guide\n"
    ));
    out.push_str(&format!(r#"visible {scenario} badge "!flag(\"briefed\")""#));
    out.push('\n');
    out
}

/// `from_vgp` answered with a project or a typed parse error.
fn is_total(text: &str) -> std::result::Result<(), TestCaseError> {
    match from_vgp(text) {
        Ok(_) => Ok(()),
        Err(AuthorError::ProjectParse { message, .. }) => {
            prop_assert!(!message.is_empty());
            Ok(())
        }
        Err(other) => Err(TestCaseError::fail(format!("wrong error type: {other:?}"))),
    }
}

#[test]
fn sample_parses_and_uses_every_directive() {
    let text = sample_vgp();
    let project = from_vgp(&text).expect("sample parses");
    let logo = project.graph.assets().get("logo").expect("keyed asset");
    assert_eq!(logo.image.raw(), &[0x0a, 0x0b, 0x0c, 0xff, 0x00, 0xff]);
    assert!(logo.color_key.is_some());
    assert!(project
        .graph
        .assets()
        .get("dot")
        .expect("unkeyed asset")
        .color_key
        .is_none());
    assert_eq!(project.graph.npcs().count(), 1);
    for directive in [
        "vgp",
        "name",
        "frame",
        "rate",
        "segments",
        "asset",
        "npc",
        "dlgnode",
        "dlgchoice",
        "scenario",
        "desc",
        "object",
        "visible",
        "trigger",
        "start",
    ] {
        let prefix = format!("{directive} ");
        assert!(
            text.lines().any(|l| l.starts_with(&prefix)),
            "sample lacks `{directive}`"
        );
    }
}

/// Regression: the byte pairs of an asset's hex data split a multibyte
/// character (six bytes, the length a 1×1 asset expects), and decoding
/// a pair as `str` panicked.
#[test]
fn multibyte_asset_data_is_a_parse_error() {
    let err = from_vgp("vgp 1\nasset a 1 1 - €€\n").unwrap_err();
    assert!(
        matches!(err, AuthorError::ProjectParse { line: 2, .. }),
        "{err:?}"
    );
}

/// Regression: `w * h * 3` overflowed `u32` for hostile dimensions —
/// a panic in debug builds, a wrapped (and possibly matching) length in
/// release builds.
#[test]
fn huge_asset_dimensions_are_a_parse_error() {
    let err = from_vgp("vgp 1\nasset a 100000 100000 - ab\n").unwrap_err();
    assert!(
        matches!(err, AuthorError::ProjectParse { line: 2, .. }),
        "{err:?}"
    );
    // 65536 × 65537 × 3 wraps to 196608 in `u32`: the length the
    // unchecked product accepted.
    let hex = "00".repeat(196_608);
    let text = format!("vgp 1\nsegments 10\nasset a 65536 65537 - {hex}\n");
    let err = from_vgp(&text).unwrap_err();
    assert!(
        matches!(err, AuthorError::ProjectParse { line: 3, .. }),
        "{err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Every prefix of a valid project parses (a prefix can end on a
    // line boundary) or fails typed.
    #[test]
    fn fault_truncated_vgp_never_panics(cut_fraction in 0.0f64..1.0) {
        let text = sample_vgp();
        let cut = (text.len() as f64 * cut_fraction) as usize;
        let cut = (0..=cut).rev().find(|&c| text.is_char_boundary(c)).unwrap_or(0);
        is_total(&text[..cut])?;
    }

    // One flipped bit anywhere in the text, lossy-decoded back to a
    // string when it breaks UTF-8.
    #[test]
    fn fault_byte_flipped_vgp_never_panics(byte_fraction in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = sample_vgp().into_bytes();
        let idx = ((bytes.len() - 1) as f64 * byte_fraction) as usize;
        bytes[idx] ^= 1 << bit;
        is_total(&String::from_utf8_lossy(&bytes))?;
    }

    // Arbitrary bytes spliced into a valid project: near-miss lines
    // rather than pure noise, reaching every directive's field parser.
    #[test]
    fn fault_spliced_bytes_never_panic(
        at_fraction in 0.0f64..1.0,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = sample_vgp().into_bytes();
        let at = (bytes.len() as f64 * at_fraction) as usize;
        bytes.splice(at..at, junk);
        is_total(&String::from_utf8_lossy(&bytes))?;
    }

    // Arbitrary text after a valid header.
    #[test]
    fn fault_arbitrary_text_never_panics(text in "\\PC*") {
        is_total(&text)?;
        is_total(&format!("vgp 1\n{text}"))?;
    }

    // Hostile numbers in every numeric field, and short asset data
    // mixing hex digits with a multibyte character.
    #[test]
    fn fault_huge_counts_never_panic(
        a in any::<u32>(),
        b in any::<u32>(),
        big in any::<u64>(),
        x in any::<i32>(),
        data in "[0-9a-f€]{0,12}",
    ) {
        let text = sample_vgp();
        for line in [
            format!("asset big {a} {b} - {data}"),
            format!("asset big {a} {b} ffffff {data}"),
            format!("frame {a} {b}"),
            format!("rate {a} {b}"),
            format!("segments {big} {a} {b}"),
            format!("scenario s {a}"),
            format!("object room1 o button {x} {x} {a} {b} {x} \"L\""),
            format!("dlgnode guide {a} \"hi\""),
            format!("dlgchoice guide {a} \"go\" {b}"),
        ] {
            is_total(&format!("{text}\n{line}\n"))?;
        }
    }
}
