//! Replay the committed seed corpus: every `corpus/*.case` file must
//! parse, survive a text round-trip, and run through the differential
//! cross-check without divergence.  These are the fuzzer's regression
//! seeds — when the fuzzer finds and we fix a real divergence, its shrunk
//! repro joins this directory.

use std::path::Path;

use oa_core::fuzz::{
    from_text, list_cases, list_dags, read_case, run_case, to_text, DagCase, DagGen, DagStripe,
    Verdict,
};

fn corpus_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; the corpus lives at the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

#[test]
fn corpus_is_present_and_parses() {
    let files = list_cases(&corpus_dir()).expect("corpus directory must exist");
    assert!(
        files.len() >= 12,
        "seed corpus unexpectedly small: {} files",
        files.len()
    );
    for f in &files {
        let case = read_case(f).unwrap_or_else(|e| panic!("{e}"));
        let back = from_text(&to_text(&case)).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        assert_eq!(back, case, "{} not a text fixed point", f.display());
    }
}

#[test]
fn corpus_replays_without_divergence() {
    let files = list_cases(&corpus_dir()).expect("corpus directory must exist");
    for f in files {
        let case = read_case(&f).unwrap_or_else(|e| panic!("{e}"));
        let (verdict, _) = run_case(&case, None);
        assert!(
            !matches!(verdict, Verdict::Divergence(_)),
            "{}: {verdict:?}",
            f.display()
        );
    }
}

/// Every committed `.dag` seed must parse on BOTH sides of the schema:
/// the fuzzer's replay parser and the server's admission parser (each
/// seed is literally an `oa serve` request line).
#[test]
fn dag_corpus_parses_in_fuzzer_and_server() {
    let files = list_dags(&corpus_dir()).expect("corpus directory must exist");
    assert!(
        files.len() >= 5,
        "DAG seed corpus unexpectedly small: {} files",
        files.len()
    );
    for f in &files {
        let line = std::fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        let line = line.trim();
        DagCase::from_json_line(line)
            .unwrap_or_else(|e| panic!("{}: fuzz parser rejected: {e}", f.display()));
        let doc = oa_core::autotune::json::parse(line)
            .unwrap_or_else(|| panic!("{}: not JSON", f.display()));
        oa_core::DagRequest::from_json(&doc)
            .unwrap_or_else(|e| panic!("{}: serve parser rejected: {}", f.display(), e.reason));
    }
}

/// Replaying the DAG seeds through the stripe must stay divergence-free
/// — fused and sequenced plans agree bit for bit (or reject with one
/// identical error, e.g. the off-tile solver seed) on all three engines.
#[test]
fn dag_corpus_replays_without_divergence() {
    let files = list_dags(&corpus_dir()).expect("corpus directory must exist");
    let mut stripe = DagStripe::new();
    for f in files {
        let line = std::fs::read_to_string(&f).unwrap_or_else(|e| panic!("{e}"));
        let case = DagCase::from_json_line(line.trim()).unwrap_or_else(|e| panic!("{e}"));
        let (verdict, _) = stripe.check(&case);
        assert!(
            !matches!(verdict, Verdict::Divergence(_)),
            "{}: {verdict:?}",
            f.display()
        );
    }
}

/// The long soak: a thousand generated DAGs through the full
/// fused-vs-sequenced, engine-vs-engine cross-check without a single
/// divergence.  ~10 minutes even in release, so it is ignored by
/// default and run explicitly (CI's fuzz job does, with
/// `--release -- --ignored dag_soak`).
#[test]
#[ignore = "ten-minute soak; CI runs it explicitly with --ignored"]
fn dag_soak_1000_cases_divergence_free() {
    let mut gen = DagGen::new(0x50AC);
    let mut stripe = DagStripe::new();
    let mut executed = 0usize;
    let mut rejected = 0usize;
    for i in 0..1000 {
        let case = gen.next_case();
        let (verdict, _) = stripe.check(&case);
        match verdict {
            Verdict::Divergence(d) => panic!("iter {i}: {} diverged: {}", case.id_line(), d.detail),
            Verdict::Agree { executed: e, .. } if e > 0 => executed += 1,
            _ => rejected += 1,
        }
    }
    // The stream must be dominated by real executions, with a healthy
    // rejected tail (off-tile solver draws) proving the error path is
    // exercised too.
    assert!(executed >= 700, "only {executed}/1000 cases executed");
    assert!(
        rejected >= 20,
        "only {rejected}/1000 cases hit the reject path"
    );
}
