//! Robustness of the two line grammars: random `keyword value…`
//! documents — huge and negative numbers, missing or extra arguments,
//! unknown keywords, non-ASCII — must either parse or fail with a
//! diagnostic anchored to a line. No input may panic a parser.

use canely_campaign::{CampaignSpec, RunSpec, Scenario};
use proptest::prelude::*;

/// Well-formed line shapes: the keyword, then one argument kind per
/// letter (see [`pool`]).
const SHAPES: &[(&str, &str)] = &[
    ("nodes", "n"),
    ("nodes", "nn"),
    ("tm", "d"),
    ("th", "d"),
    ("until", "d"),
    ("seed", "k"),
    ("error-rate", "p"),
    ("inconsistent-rate", "p"),
    ("omission-degree", "k"),
    ("inconsistent-degree", "k"),
    ("weaken-fda", ""),
    ("detector", "b"),
    ("traffic", "nd"),
    ("crash", "nd"),
    ("join", "nd"),
    ("leave", "nd"),
    ("restart", "nd"),
    ("inaccessible", "dd"),
    ("expect-view", "v"),
    ("settle", "d"),
    ("latency-slack", "d"),
    ("rejoin-slack", "d"),
    ("segments", "s"),
    ("gateway", "n"),
    ("bridge", "t"),
    ("relay", "r"),
    ("seg-crash", "snd"),
    ("gateway-crash", "sd"),
    ("gateway-restart", "sd"),
    ("segment-partition", "dd"),
    ("asymmetric", "ssdd"),
    // .campaign only
    ("name", "x"),
    ("seeds", "q"),
    ("crash-budget", "kk"),
    ("inaccessibility", "dd"),
    ("asymmetric-inaccessibility", "d"),
    ("detector", "bb"),
    ("tm", "dd"),
    // neither: unknown keywords, missing and extra arguments
    ("frobnicate", "x"),
    ("nödes", "n"),
    ("crash", "n"),
    ("traffic", "ndd"),
    ("gateway", ""),
];

/// Argument values of each kind: mostly valid, some out of range,
/// negative, overflowing or not numbers at all.
fn pool(kind: char) -> &'static [&'static str] {
    match kind {
        'n' => &[
            "0", "1", "2", "3", "4", "7", "31", "63", "64", "255", "256", "-1", "x",
        ],
        'd' => &[
            "0",
            "1us",
            "5ms",
            "30ms",
            "100ms",
            "150ms",
            "300ms",
            "400ms",
            "2500us",
            "-1ms",
            "1.5ms",
            "99999999999999999ms",
            "18446744073709551615",
            "18446744073709551616us",
        ],
        'k' => &[
            "0",
            "1",
            "2",
            "16",
            "-1",
            "4294967296",
            "18446744073709551615",
            "1e3",
        ],
        'p' => &["0", "0.01", "0.5", "1", "1.5", "-0.1", "NaN", "inf"],
        'b' => &["surveillance", "swim", "add-phi", "phi"],
        'v' => &["{0,1,2,3}", "{0,1}", "{}", "{99}", "{x}", "0,1", "{0,,1}"],
        's' => &["0", "1", "2", "3", "8", "9", "-1"],
        't' => &["line", "ring", "star", "full", "mesh"],
        'r' => &["none", "all", "below", "below 8", "below x"],
        'q' => &["0..4", "4..0", "3..3", "0..18446744073709551615", "0-4"],
        _ => &["é", "日本", "x", "{", "--", "ms"],
    }
}

fn document() -> impl Strategy<Value = String> {
    let line = (
        prop::sample::select(SHAPES.to_vec()),
        prop::collection::vec(any::<prop::sample::Index>(), 4),
        0u8..4,
    )
        .prop_map(|((keyword, kinds), picks, garnish)| {
            let mut line = keyword.to_string();
            for (kind, pick) in kinds.chars().zip(&picks) {
                let values = pool(kind);
                line.push(' ');
                line.push_str(values[pick.index(values.len())]);
            }
            match garnish {
                1 => line.push_str(" # comment"),
                2 => line.insert(0, '\t'),
                _ => {}
            }
            line
        });
    prop::collection::vec(line, 0..10).prop_map(|lines| lines.join("\n"))
}

/// Whether `e` starts with `line N:` for a line `N` of `text`.
fn line_anchored(e: &str, text: &str) -> bool {
    e.strip_prefix("line ")
        .and_then(|rest| rest.split_once(':'))
        .and_then(|(n, _)| n.parse::<usize>().ok())
        .is_some_and(|n| (1..=text.lines().count()).contains(&n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    #[test]
    fn scenario_parser_never_panics_and_anchors_errors(text in document()) {
        match Scenario::parse(&text) {
            Err(e) => prop_assert!(line_anchored(&e, &text), "{e}\n--\n{text}"),
            Ok(doc) => match doc.to_run_spec() {
                Err(e) => prop_assert!(line_anchored(&e, &text), "{e}\n--\n{text}"),
                // Whatever projects also round-trips through the
                // counterexample format.
                Ok(run) => prop_assert_eq!(RunSpec::from_scenario(&run.to_scenario()), Ok(run)),
            },
        }
    }

    #[test]
    fn campaign_parser_never_panics_and_anchors_errors(text in document()) {
        if let Err(e) = CampaignSpec::parse(&text) {
            // Coherence checks over the whole matrix have no single
            // line to blame.
            prop_assert!(
                line_anchored(&e, &text) || e.starts_with("invalid campaign: "),
                "{e}\n--\n{text}"
            );
        }
    }
}
