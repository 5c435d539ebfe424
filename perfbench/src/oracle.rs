//! In-process reference answers: what `graphsig mine` and the server's
//! `freq` op must return for a given input, computed through the library's
//! own entry points.

use std::time::Instant;

use graphsig_core::{
    render_subgraphs, Budget, Completion, GraphSig, GraphSigConfig, Prepared, RunStats,
};
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_graph::{parse_transactions, GraphDb, LabelPairIndex, MatcherKind};

use crate::util::secs;

/// One untraced one-shot mine.
pub struct OneShot {
    pub bytes: String,
    pub completion: Completion,
    pub stats: RunStats,
    /// Parse → mine → render wall time (s).
    pub seconds: f64,
}

/// Parse `text`, mine it with `cfg` and render every subgraph — the work
/// of one `graphsig mine` invocation. With `counted`, an unlimited budget
/// is attached (as the server does) so the run's counters flow.
pub fn mine_oneshot(text: &str, cfg: &GraphSigConfig, counted: bool) -> Result<OneShot, String> {
    let t0 = Instant::now();
    let db =
        parse_transactions(text).map_err(|e| format!("benchmark input does not parse: {e}"))?;
    let cfg = GraphSigConfig {
        budget: counted.then(Budget::unlimited),
        ..cfg.clone()
    };
    let outcome = GraphSig::new(cfg).mine_outcome(&db);
    let bytes = render_subgraphs(&db, &outcome.result, usize::MAX);
    Ok(OneShot {
        bytes,
        completion: outcome.completion,
        stats: outcome.result.stats,
        seconds: secs(t0),
    })
}

/// The payload a `freq dataset=.. min_support=S` request with default keys
/// must carry for `db`: FSG over the label-pair index (`max_edges` 8,
/// `max_patterns` 10 000, default matcher), one comment line plus one
/// transaction block per pattern.
pub fn freq_payload(
    db: &GraphDb,
    index: &LabelPairIndex,
    min_support: usize,
) -> (String, Completion) {
    use std::fmt::Write as _;
    let outcome = Fsg::new(
        FsgConfig::new(min_support)
            .with_max_edges(8)
            .with_max_patterns(10_000)
            .with_matcher(MatcherKind::default())
            .with_threads(0)
            .with_budget(Budget::unlimited()),
    )
    .mine_indexed_outcome(db, index);
    let mut out = String::new();
    for (i, p) in outcome.result.iter().enumerate() {
        let _ = writeln!(
            out,
            "# pattern {i}: support {} graphs ({:.3}%), {} edges",
            p.support,
            100.0 * p.frequency(db.len()),
            p.graph.edge_count()
        );
        let one = GraphDb::from_parts(vec![p.graph.clone()], db.labels().clone());
        out.push_str(&graphsig_graph::write_transactions(&one));
    }
    (out, outcome.completion)
}

/// Mine `db` from its cached window pass with `cfg` and render every
/// subgraph: the server's work for one `mine` request once the window
/// pass is cached. An unlimited budget is attached, as the server does.
pub fn mine_prepared(db: &GraphDb, prepared: &Prepared, cfg: &GraphSigConfig) -> OneShot {
    let t0 = Instant::now();
    let cfg = GraphSigConfig {
        budget: Some(Budget::unlimited()),
        ..cfg.clone()
    };
    let outcome = GraphSig::new(cfg).mine_prepared_outcome(db, prepared);
    let bytes = render_subgraphs(db, &outcome.result, usize::MAX);
    OneShot {
        bytes,
        completion: outcome.completion,
        stats: outcome.result.stats,
        seconds: secs(t0),
    }
}
