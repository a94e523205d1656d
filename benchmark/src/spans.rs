//! Span A of the traced run: campaign spans cut from the events the
//! campaign loop already emits, stamped by an in-memory sink.
//!
//! Per iteration the loop emits `gen`, then `verify`, then any of
//! `diff`, `exec`, `oracle`, `finding` and `snapshot`. The timeline is
//! cut into three spans per iteration:
//!
//! - `gen`: from the previous iteration's last event (or the call's
//!   start) to the `gen` event — generation or mutation, plus the loop
//!   bookkeeping between iterations and lease batches;
//! - `scenario`: from `gen` to `verify` — boot, verification, sanitation,
//!   lowering, execution, both oracles and the coverage fold. Its
//!   children are the verifier phases and sanitation, summed from the
//!   registry's `verify.*_ns` histograms;
//! - `oracle`: from `verify` to the iteration's last event — judging,
//!   deduplication and triage (its child, from `finding.triage_ns`).
//!
//! What follows the last event — the batch merge — belongs to no span
//! and is reported as unaccounted.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bvf::fuzz::{run_campaign_with_telemetry, CampaignConfig};
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::{Registry, Telemetry, TraceEvent, TraceSink};

use crate::campaign::{nanos, Fingerprint};

/// What the span fold needs from one event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mark {
    /// A program was generated.
    Gen,
    /// The verifier ruled on it.
    Verify {
        /// Verifier plus sanitation wall time, nanoseconds.
        total_ns: u64,
        /// Whether the program was accepted.
        accepted: bool,
        /// Whether it was rejected at the complexity limit.
        complexity_limit: bool,
    },
    /// A new finding was triaged.
    Finding {
        /// Triage wall time, nanoseconds.
        triage_ns: u64,
    },
    /// Any other event.
    Other,
}

impl Mark {
    fn of(event: &TraceEvent) -> Mark {
        match event {
            TraceEvent::Gen { .. } => Mark::Gen,
            TraceEvent::Verify {
                accepted,
                reason,
                total_ns,
                ..
            } => Mark::Verify {
                total_ns: *total_ns,
                accepted: *accepted,
                complexity_limit: reason.as_deref() == Some("complexity_limit"),
            },
            TraceEvent::Finding { triage_ns, .. } => Mark::Finding {
                triage_ns: *triage_ns,
            },
            _ => Mark::Other,
        }
    }
}

/// Keeps every event's mark and instant in memory until the campaign
/// ends.
struct Recorder(Rc<RefCell<Vec<(Instant, Mark)>>>);

impl TraceSink for Recorder {
    fn emit(&mut self, event: &TraceEvent) {
        let at = Instant::now();
        self.0.borrow_mut().push((at, Mark::of(event)));
    }
}

/// Span totals of one traced campaign, nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Spans {
    /// Wall time of the campaign call.
    pub wall_ns: u64,
    /// Sum of `gen` spans.
    pub gen_ns: u64,
    /// Sum of `scenario` spans.
    pub scenario_ns: u64,
    /// Sum of `oracle` spans.
    pub oracle_ns: u64,
    /// Sum of `finding.triage_ns` (a child of `oracle`).
    pub triage_ns: u64,
    /// Findings triaged.
    pub triage_count: u64,
    /// From the last event to the end of the call.
    pub tail_ns: u64,
    /// Verifier time of accepted programs.
    pub accepted_verify_ns: u64,
    /// Verifier time of programs rejected at the complexity limit.
    pub limit_verify_ns: u64,
    /// Programs rejected at the complexity limit.
    pub limit_count: u64,
}

impl Spans {
    /// Adds another campaign's totals to these.
    pub fn add(&mut self, o: &Spans) {
        self.wall_ns += o.wall_ns;
        self.gen_ns += o.gen_ns;
        self.scenario_ns += o.scenario_ns;
        self.oracle_ns += o.oracle_ns;
        self.triage_ns += o.triage_ns;
        self.triage_count += o.triage_count;
        self.tail_ns += o.tail_ns;
        self.accepted_verify_ns += o.accepted_verify_ns;
        self.limit_verify_ns += o.limit_verify_ns;
        self.limit_count += o.limit_count;
    }
}

/// One traced campaign: its results, spans and metrics registry.
pub struct TracedCampaign {
    /// Its deterministic results.
    pub fingerprint: Fingerprint,
    /// Its span totals.
    pub spans: Spans,
    /// The registry the campaign filled.
    pub registry: Registry,
}

/// Runs the campaign through `run_campaign_with_telemetry` with the
/// in-memory recorder as its sink, and folds the events into spans.
pub fn run_traced(cfg: &CampaignConfig) -> TracedCampaign {
    let marks = Rc::new(RefCell::new(Vec::with_capacity(4 * cfg.iterations)));
    let mut tel = Telemetry::new(Box::new(Recorder(Rc::clone(&marks))));
    let t0 = Instant::now();
    let r = run_campaign_with_telemetry(cfg, &mut tel);
    let wall_ns = elapsed_ns(t0);
    let registry = std::mem::take(&mut tel.registry);
    drop(tel);
    let offsets: Vec<(u64, Mark)> = marks
        .borrow()
        .iter()
        .map(|&(at, mark)| (nanos(at - t0), mark))
        .collect();
    TracedCampaign {
        fingerprint: Fingerprint::of(&r),
        spans: fold(&offsets, wall_ns),
        registry,
    }
}

/// Folds event marks, given as nanosecond offsets from the call's
/// start, into span totals. `wall_ns` is the offset of the call's end.
pub fn fold(marks: &[(u64, Mark)], wall_ns: u64) -> Spans {
    let mut s = Spans {
        wall_ns,
        ..Spans::default()
    };
    let mut last = 0u64;
    let mut gen_at = None;
    let mut verify_at = None;
    for &(at, mark) in marks {
        match mark {
            Mark::Gen => {
                if let Some(v) = verify_at.take() {
                    s.oracle_ns += last - v;
                }
                s.gen_ns += at - last;
                gen_at = Some(at);
            }
            Mark::Verify {
                total_ns,
                accepted,
                complexity_limit,
            } => {
                if let Some(g) = gen_at.take() {
                    s.scenario_ns += at - g;
                }
                if accepted {
                    s.accepted_verify_ns += total_ns;
                }
                if complexity_limit {
                    s.limit_verify_ns += total_ns;
                    s.limit_count += 1;
                }
                verify_at = Some(at);
            }
            Mark::Finding { triage_ns } => {
                s.triage_ns += triage_ns;
                s.triage_count += 1;
            }
            Mark::Other => {}
        }
        last = at;
    }
    if let Some(v) = verify_at {
        s.oracle_ns += last - v;
    }
    s.tail_ns = wall_ns - last;
    s
}

/// The additive split of the traced wall time into layer self times.
#[derive(Debug)]
pub struct Layers {
    /// `gen` spans (no children).
    pub gen_self_ns: u64,
    /// Verifier structure scan.
    pub structure_ns: u64,
    /// Verifier main walk, pruning included.
    pub do_check_ns: u64,
    /// Verifier rewrite pass.
    pub fixup_ns: u64,
    /// Sanitation instrumentation.
    pub sanitize_ns: u64,
    /// `scenario` spans minus the four children above; split further
    /// by the layer replay.
    pub scenario_rest_ns: u64,
    /// `oracle` spans minus triage.
    pub oracle_self_ns: u64,
    /// Differential triage.
    pub triage_ns: u64,
    /// Covered by no span.
    pub unaccounted_ns: u64,
}

impl Layers {
    /// Splits `spans` using the phase histograms of the campaign's
    /// registry. Fails when children exceed their parent span, which
    /// would mean the clocks disagree.
    pub fn split(spans: &Spans, registry: &Registry) -> Result<Layers, String> {
        let sum = |name: &str| registry.histogram(name).map_or(0, |h| h.sum);
        let structure_ns = sum("verify.structure_ns");
        let do_check_ns = sum("verify.do_check_ns");
        let fixup_ns = sum("verify.fixup_ns");
        let sanitize_ns = sum("verify.sanitize_ns");
        let children = structure_ns + do_check_ns + fixup_ns + sanitize_ns;
        let scenario_rest_ns = spans.scenario_ns.checked_sub(children).ok_or_else(|| {
            format!(
                "verifier phases ({children} ns) exceed the scenario spans ({} ns)",
                spans.scenario_ns
            )
        })?;
        let oracle_self_ns = spans
            .oracle_ns
            .checked_sub(spans.triage_ns)
            .ok_or_else(|| {
                format!(
                    "triage ({} ns) exceeds the oracle spans ({} ns)",
                    spans.triage_ns, spans.oracle_ns
                )
            })?;
        Ok(Layers {
            gen_self_ns: spans.gen_ns,
            structure_ns,
            do_check_ns,
            fixup_ns,
            sanitize_ns,
            scenario_rest_ns,
            oracle_self_ns,
            triage_ns: spans.triage_ns,
            unaccounted_ns: spans.tail_ns,
        })
    }

    /// Sum of every self time plus the unaccounted time; equals the
    /// traced wall time.
    pub fn total_ns(&self) -> u64 {
        self.gen_self_ns
            + self.structure_ns
            + self.do_check_ns
            + self.fixup_ns
            + self.sanitize_ns
            + self.scenario_rest_ns
            + self.oracle_self_ns
            + self.triage_ns
            + self.unaccounted_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(total_ns: u64, accepted: bool, complexity_limit: bool) -> Mark {
        Mark::Verify {
            total_ns,
            accepted,
            complexity_limit,
        }
    }

    /// Two iterations: the second is flagged and triaged.
    fn marks() -> Vec<(u64, Mark)> {
        vec![
            (10, Mark::Gen),
            (40, verify(20, true, false)),
            (45, Mark::Other),
            (50, Mark::Gen),
            (150, verify(90, false, true)),
            (160, Mark::Other),
            (200, Mark::Finding { triage_ns: 30 }),
            (205, Mark::Other),
        ]
    }

    #[test]
    fn spans_partition_the_wall() {
        let s = fold(&marks(), 220);
        assert_eq!(s.gen_ns, 10 + 5);
        assert_eq!(s.scenario_ns, 30 + 100);
        assert_eq!(s.oracle_ns, 5 + 55);
        assert_eq!(s.tail_ns, 15);
        assert_eq!(
            s.gen_ns + s.scenario_ns + s.oracle_ns + s.tail_ns,
            s.wall_ns
        );
        assert_eq!((s.triage_ns, s.triage_count), (30, 1));
        assert_eq!(s.accepted_verify_ns, 20);
        assert_eq!((s.limit_verify_ns, s.limit_count), (90, 1));
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let s = fold(&marks(), 220);
        let mut reg = Registry::new();
        for (phase, ns) in [
            ("structure", 5),
            ("do_check", 90),
            ("fixup", 3),
            ("sanitize", 2),
        ] {
            reg.record(&format!("verify.{phase}_ns"), ns);
        }
        let l = Layers::split(&s, &reg).unwrap();
        assert_eq!(l.scenario_rest_ns, s.scenario_ns - 100);
        assert_eq!(l.oracle_self_ns, s.oracle_ns - 30);
        assert_eq!(l.total_ns(), s.wall_ns);

        // Summed over two campaigns, the split still adds up to the wall.
        let mut two = s.clone();
        two.add(&s);
        let mut reg2 = reg.clone();
        reg2.merge(&reg);
        let l2 = Layers::split(&two, &reg2).unwrap();
        assert_eq!(l2.scenario_rest_ns, 2 * l.scenario_rest_ns);
        assert_eq!(l2.total_ns(), 2 * s.wall_ns);
    }

    #[test]
    fn children_larger_than_parent_are_an_error() {
        let s = fold(&marks(), 220);
        let mut reg = Registry::new();
        reg.record("verify.do_check_ns", s.scenario_ns + 1);
        assert!(Layers::split(&s, &reg).is_err());
    }

    #[test]
    fn empty_campaign_is_all_unaccounted() {
        let s = fold(&[], 7);
        assert_eq!(s.tail_ns, 7);
        let l = Layers::split(&s, &Registry::new()).unwrap();
        assert_eq!(l.total_ns(), 7);
    }
}
