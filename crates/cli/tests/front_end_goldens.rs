//! Differential goldens for every front end that turns a world
//! description into a run: `canelyctl run FILE`, `tq --scenario FILE`,
//! `campaign replay` and the argument-driven `membership`, `groups`,
//! `trace` and `metrics` commands.
//!
//! Each case is rendered as `=== <argv>`, an `ok`/`err` status line and
//! the command's output. Short outputs are pinned verbatim; JSONL and
//! CSV documents are pinned by their FNV-1a 64-bit digest and length.
//! The whole transcript lives in `golden/front_end.txt`; regenerate it
//! with `CANELY_BLESS=1 cargo test -p canely-cli --test front_end_goldens`
//! only when an output change is intended.

use canely_cli::run;

fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// How a case's output is pinned.
#[derive(Clone, Copy)]
enum Pin {
    Text,
    Digest,
}

fn cases() -> Vec<(Vec<String>, Pin)> {
    let mut cases = Vec::new();
    let mut add = |argv: &[&str], pin: Pin| {
        cases.push((argv.iter().map(|s| s.to_string()).collect(), pin));
    };
    for name in ["lifecycle", "noisy_storm", "partition_heal"] {
        let file = format!("scenarios/{name}.canely");
        add(&["run", &file], Pin::Text);
        add(&["tq", "reexport", "--scenario", &file], Pin::Digest);
    }
    for name in ["lifecycle", "partition_heal"] {
        let file = format!("scenarios/{name}.canely");
        add(&["tq", "summary", "--scenario", &file], Pin::Text);
        add(&["tq", "chain", "--suspect", "3", "--scenario", &file], Pin::Text);
        add(&["tq", "phases", "--scenario", &file], Pin::Text);
    }
    add(
        &["campaign", "replay", "--scenario", "scenarios/partition_heal.canely"],
        Pin::Text,
    );
    add(
        &["membership", "--nodes", "4", "--crash", "2@250ms", "--until", "500ms"],
        Pin::Text,
    );
    add(
        &[
            "membership", "--nodes", "5", "--tm", "40ms", "--th", "6ms", "--traffic", "2ms",
            "--crash", "2@300ms", "--join", "6@350ms", "--leave", "4@500ms", "--restart",
            "2@600ms", "--error-rate", "0.01", "--seed", "3", "--until", "900ms", "--journal",
        ],
        Pin::Text,
    );
    add(
        &[
            "groups", "--nodes", "3", "--group-join", "0@200ms", "--group-join", "1@200ms",
            "--until", "400ms",
        ],
        Pin::Text,
    );
    add(
        &[
            "groups", "--nodes", "4", "--group-join", "0@200ms", "--group-join", "2@200ms",
            "--crash", "3@300ms", "--error-rate", "0.02", "--seed", "5", "--until", "600ms",
        ],
        Pin::Text,
    );
    add(
        &["trace", "--nodes", "4", "--crash", "2@250ms", "--until", "500ms", "--jsonl"],
        Pin::Digest,
    );
    add(
        &["trace", "--nodes", "3", "--join", "3@200ms", "--until", "400ms", "--csv"],
        Pin::Digest,
    );
    add(&["trace", "--nodes", "2", "--until", "60ms"], Pin::Text);
    add(
        &[
            "metrics", "--nodes", "4", "--crash", "2@250ms", "--restart", "2@400ms", "--until",
            "600ms",
        ],
        Pin::Text,
    );
    cases
}

fn render_case(argv: &[String], pin: Pin) -> String {
    let resolved: Vec<String> = argv
        .iter()
        .map(|a| {
            if a.starts_with("scenarios/") {
                repo_path(a)
            } else {
                a.clone()
            }
        })
        .collect();
    let (status, body) = match run(&resolved) {
        Ok(out) => ("ok", out),
        Err(e) => ("err", e),
    };
    let body = match pin {
        Pin::Text if body.ends_with('\n') => body,
        Pin::Text => format!("{body}\n"),
        Pin::Digest => format!("fnv1a64 {:016x} bytes {}\n", fnv1a64(body.as_bytes()), body.len()),
    };
    format!("=== {}\n{status}\n{body}", argv.join(" "))
}

/// Splits a transcript into its `=== ` cases.
fn split(transcript: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in transcript.split_inclusive('\n') {
        if line.starts_with("=== ") || out.is_empty() {
            out.push(String::new());
        }
        out.last_mut().expect("pushed").push_str(line);
    }
    out
}

#[test]
fn every_front_end_reproduces_its_golden_output() {
    let golden_path = format!("{}/tests/golden/front_end.txt", env!("CARGO_MANIFEST_DIR"));
    let rendered: Vec<String> = cases()
        .iter()
        .map(|(argv, pin)| render_case(argv, *pin))
        .collect();
    if std::env::var_os("CANELY_BLESS").is_some() {
        std::fs::write(&golden_path, rendered.concat()).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect("golden transcript");
    let expected = split(&golden);
    assert_eq!(expected.len(), rendered.len(), "case count changed");
    for (want, got) in expected.iter().zip(&rendered) {
        assert_eq!(got, want, "front-end output drifted from the golden");
    }
}
