//! Correctness beside speed.
//!
//! Every firing and one-shot is digested as it arrives (see [`digest`]).
//! Outside the timed phases a seeded sample of them is recomputed with
//! the relational `wukong_baselines::TripleTable` oracle — predicate
//! scans and hash joins — over the same batched window contents, and the
//! digests must agree. Mismatches, `Err` results and degraded,
//! unreachable or quarantined markers all count as failures.

use crate::driver::{Answered, Fired};
use crate::workload::{Inputs, SplitMix, BATCH_MS};
use std::collections::{BTreeMap, HashMap};
use wukong_baselines::relational::{hash_join, scan_pattern};
use wukong_baselines::{Relation, TripleTable};
use wukong_query::ast::{GraphName, Query};
use wukong_query::parse_query;
use wukong_rdf::{Pid, Timestamp, Triple, Vid};

/// Firings recomputed per standing-query class.
pub const FIRINGS_PER_CLASS: usize = 4;
/// One-shots recomputed per one-shot class.
pub const ONESHOTS_PER_CLASS: usize = 2;

/// Order-independent digest of a result's rows: the wrapping sum of a
/// mixed FNV-1a hash per row, folded with the row count. Linear in the
/// rows, so the driver digests every result as it arrives and keeps no
/// rows.
pub fn digest<'r>(rows: impl IntoIterator<Item = &'r Vec<Vid>>) -> u64 {
    let (mut n, mut sum) = (0u64, 0u64);
    for r in rows {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in r {
            for b in v.0.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        sum = sum.wrapping_add(SplitMix(h).next_u64());
        n += 1;
    }
    SplitMix(sum ^ n.rotate_left(32)).next_u64()
}

/// The adaptor stamps a tuple with the end of its mini-batch: a tuple at
/// raw time `ts` becomes visible at `ceil(ts / BATCH_MS) * BATCH_MS`.
pub fn batched(ts: Timestamp) -> Timestamp {
    ts.div_ceil(BATCH_MS) * BATCH_MS
}

/// What the correctness pass found.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Firings plus one-shots attempted.
    pub attempted: u64,
    /// Results that failed: errors, markers and oracle mismatches.
    pub failed: u64,
    /// One-shots that returned `Err` (refused or failed).
    pub errors: u64,
    /// Results carrying a degraded/unreachable/quarantined marker.
    pub marked: u64,
    /// Sampled results recomputed by the oracle.
    pub checked: u64,
    /// Sampled results whose digest differed from the oracle's.
    pub mismatches: u64,
    /// Combined digest over every result, in emission order.
    pub digest: u64,
}

/// The relational oracle over one run's inputs.
pub struct Oracle<'a> {
    inputs: &'a Inputs,
    base: TripleTable,
    /// Timeless stream tuples by predicate: `(stream, batch ts, triple)`.
    /// They join the stored graph once their batch is inserted.
    absorbed: HashMap<Pid, Vec<(usize, Timestamp, Triple)>>,
    /// Every stream's tuples as `(batch ts, triple)`, time-ordered.
    by_stream: Vec<Vec<(Timestamp, Triple)>>,
}

impl<'a> Oracle<'a> {
    /// Builds the oracle's tables from the generated inputs.
    pub fn new(inputs: &'a Inputs) -> Self {
        let mut base = TripleTable::new();
        base.load(inputs.stored.iter().copied());
        let mut absorbed: HashMap<Pid, Vec<(usize, Timestamp, Triple)>> = HashMap::new();
        let mut by_stream = vec![Vec::new(); inputs.schemas.len()];
        for t in &inputs.timeline {
            let s = t.stream.0 as usize;
            let bt = batched(t.timestamp);
            by_stream[s].push((bt, t.triple));
            if !inputs.schemas[s].timing_predicates.contains(&t.triple.p) {
                absorbed
                    .entry(t.triple.p)
                    .or_default()
                    .push((s, bt, t.triple));
            }
        }
        Oracle {
            inputs,
            base,
            absorbed,
            by_stream,
        }
    }

    /// Evaluates `q` with stream windows ending at `window_end` and the
    /// stored graph holding every batch of stream `s` up to
    /// `stored_upto[s]`. Returns the projected rows.
    pub fn rows(
        &self,
        q: &Query,
        window_end: Timestamp,
        stored_upto: &[Timestamp],
    ) -> Vec<Vec<Vid>> {
        let mut acc = Relation::unit();
        for pat in &q.patterns {
            let rel = match pat.graph {
                GraphName::Stored => {
                    let mut rel = self.base.scan(pat).0;
                    let extra = self.absorbed.get(&pat.p).map(Vec::as_slice).unwrap_or(&[]);
                    let visible = extra
                        .iter()
                        .filter(|(s, bt, _)| *bt <= stored_upto[*s])
                        .map(|(_, _, t)| t);
                    rel.rows.extend(scan_pattern(visible, pat).rows);
                    rel
                }
                GraphName::Stream(i) => {
                    let (name, spec) = &q.streams[i];
                    let s = self
                        .inputs
                        .schemas
                        .iter()
                        .position(|sc| sc.name == *name)
                        .expect("known stream");
                    let lo = window_end.saturating_sub(spec.range_ms) + 1;
                    let tuples = &self.by_stream[s];
                    let a = tuples.partition_point(|(bt, _)| *bt < lo);
                    let b = tuples.partition_point(|(bt, _)| *bt <= window_end);
                    scan_pattern(tuples[a..b].iter().map(|(_, t)| t), pat)
                }
            };
            acc = hash_join(&acc, &rel);
            if acc.is_empty() {
                break;
            }
        }
        let cols: Vec<usize> = q
            .select
            .iter()
            .map(|v| {
                acc.vars
                    .iter()
                    .position(|x| x == v)
                    .expect("selected var bound")
            })
            .collect();
        acc.rows
            .iter()
            .map(|row| cols.iter().map(|&c| row[c]).collect())
            .collect()
    }
}

/// Digests every result, counts failures, and recomputes a seeded sample
/// with the oracle.
pub fn check(inputs: &Inputs, firings: &[Fired], answers: &[Answered], seed: u64) -> Verdict {
    let mut v = Verdict {
        attempted: (firings.len() + answers.len()) as u64,
        ..Verdict::default()
    };
    let mut all = 0xcbf2_9ce4_8422_2325u64;
    for f in firings {
        all = (all ^ f.digest).wrapping_mul(0x0100_0000_01b3);
        if f.marked {
            v.marked += 1;
            v.failed += 1;
        }
    }
    for a in answers {
        match &a.result {
            Ok((d, _, marked)) => {
                all = (all ^ d).wrapping_mul(0x0100_0000_01b3);
                if *marked {
                    v.marked += 1;
                    v.failed += 1;
                }
            }
            Err(_) => {
                v.errors += 1;
                v.failed += 1;
            }
        }
    }
    v.digest = all;

    let oracle = Oracle::new(inputs);
    let mut rng = SplitMix(seed ^ 0x0_4AC1E);
    let parsed: Vec<Query> = inputs
        .standing
        .iter()
        .map(|t| parse_query(&inputs.strings, t).expect("standing queries parse"))
        .collect();
    let mut by_class: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in firings.iter().enumerate().filter(|(_, f)| f.open) {
        by_class
            .entry(&inputs.standing_class[f.query])
            .or_default()
            .push(i);
    }
    let streams = inputs.schemas.len();
    for idxs in by_class.values_mut() {
        rng.shuffle(idxs);
        for &i in idxs.iter().take(FIRINGS_PER_CLASS) {
            let f = &firings[i];
            let want = oracle.rows(&parsed[f.query], f.window_end, &vec![f.window_end; streams]);
            v.checked += 1;
            if digest(&want) != f.digest {
                v.mismatches += 1;
                v.failed += 1;
            }
        }
    }
    let mut shots: BTreeMap<usize, Vec<&Answered>> = BTreeMap::new();
    for a in answers.iter().filter(|a| a.result.is_ok()) {
        shots
            .entry(inputs.oneshots[a.index].class)
            .or_default()
            .push(a);
    }
    for list in shots.values_mut() {
        rng.shuffle(list);
        for a in list.iter().take(ONESHOTS_PER_CLASS) {
            let q = parse_query(&inputs.strings, &inputs.oneshots[a.index].text)
                .expect("one-shots parse");
            let want = oracle.rows(&q, 0, &a.stable);
            let Ok((got, _, _)) = &a.result else {
                unreachable!("filtered to answered one-shots")
            };
            v.checked += 1;
            if digest(&want) != *got {
                v.mismatches += 1;
                v.failed += 1;
            }
        }
    }
    v
}
