//! The structured event trace: one JSONL record per campaign event.
//!
//! Events describe what the campaign *observed*, never what it decided —
//! the monotonic `t_ns` timestamp is attached by the sink at emit time
//! and no campaign logic reads it back, so tracing cannot perturb
//! determinism. Each line is a self-describing JSON object tagged by
//! `"ev"`; unknown fields (like `t_ns`) are ignored on parse, which is
//! what makes the stream round-trippable and forward-extensible.

use std::io::Write;
use std::time::Instant;

use serde::{de, Deserialize, Error, Map, Serialize, Value};

/// Where a generated program came from. Serialized in snake case
/// (`"fresh"` / `"mutation"`); implemented by hand because the vendored
/// serde derive has no `rename_all` support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenSource {
    /// Freshly synthesized by the active generator.
    Fresh,
    /// Mutated from a saved corpus entry (coverage feedback).
    Mutation,
}

impl GenSource {
    fn as_str(&self) -> &'static str {
        match self {
            GenSource::Fresh => "fresh",
            GenSource::Mutation => "mutation",
        }
    }
}

impl Serialize for GenSource {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for GenSource {
    fn from_value(v: &Value) -> Result<GenSource, Error> {
        match v.as_str() {
            Some("fresh") => Ok(GenSource::Fresh),
            Some("mutation") => Ok(GenSource::Mutation),
            Some(other) => Err(de::unknown_variant("GenSource", other)),
            None => Err(de::type_error("string", v)),
        }
    }
}

/// One campaign event. Serialized as an internally tagged JSON object:
/// the `"ev"` member names the event (`gen`, `verify`, `exec`, `oracle`,
/// `finding`, `diff`, `snapshot`) and the remaining members sit beside it.
/// Unknown members (like the sink's `t_ns` stamp) are ignored on parse.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A program was generated.
    Gen {
        /// Campaign iteration.
        iter: usize,
        /// Fresh generation or corpus mutation.
        source: GenSource,
        /// Generation shape picked by acceptance-rate steering (absent
        /// when steering is off or the program is a mutation).
        shape: Option<String>,
        /// Program length in instruction slots.
        prog_len: usize,
    },
    /// The verifier ruled on the program.
    Verify {
        /// Campaign iteration.
        iter: usize,
        /// Whether the program was accepted.
        accepted: bool,
        /// Rejection errno (absent on acceptance).
        errno: Option<i32>,
        /// Typed rejection reason code (absent on acceptance).
        reason: Option<String>,
        /// Instructions the verifier processed (complexity).
        insns_processed: usize,
        /// Coverage points this program newly contributed.
        new_cov: usize,
        /// Accumulated campaign coverage after this program.
        cov_total: usize,
        /// Wall time of the symbolic walk, nanoseconds.
        do_check_ns: u64,
        /// Wall time of all verifier + sanitation phases, nanoseconds.
        total_ns: u64,
    },
    /// The accepted program was executed.
    Exec {
        /// Campaign iteration.
        iter: usize,
        /// Interpreter steps executed.
        steps: u64,
        /// Helper-function dispatches.
        helper_calls: u64,
        /// Why execution stopped (`Exit`, `PageFault`, ...).
        halt: String,
    },
    /// The oracle flagged a misbehaving verified program.
    Oracle {
        /// Campaign iteration.
        iter: usize,
        /// The triggered indicator (`One`, `Two`, `Syscall`).
        indicator: String,
        /// Whether the report signature had been seen before
        /// (deduplicated away).
        dedup_hit: bool,
    },
    /// A finding survived the campaign merge's cross-batch dedup; the
    /// merge emits one per merged finding, after triaging it.
    Finding {
        /// Campaign iteration.
        iter: usize,
        /// The triggered indicator.
        indicator: String,
        /// Dedup signature of the finding.
        signature: String,
        /// Injected defects the triage identified as necessary (empty
        /// when triage is off).
        culprits: Vec<String>,
        /// Wall time differential triage took, nanoseconds (0 when
        /// triage is off).
        triage_ns: u64,
    },
    /// The differential state oracle checked one executed program
    /// (abstract-vs-concrete concretization membership, Indicator #3).
    Diff {
        /// Campaign iteration.
        iter: usize,
        /// Trace steps whose registers were membership-checked.
        steps_checked: u64,
        /// Individual register membership checks performed.
        regs_checked: u64,
        /// Whether a concrete value escaped the proved abstract state.
        divergence: bool,
    },
    /// Periodic campaign snapshot (the coverage-growth timeline).
    Snapshot {
        /// Campaign iteration.
        iter: usize,
        /// Accumulated coverage points.
        coverage: usize,
        /// Programs accepted so far.
        accepted: usize,
        /// Deduplicated findings so far.
        findings: usize,
        /// Corpus size.
        corpus: usize,
    },
}

impl TraceEvent {
    /// The `"ev"` tag of this event.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Gen { .. } => "gen",
            TraceEvent::Verify { .. } => "verify",
            TraceEvent::Exec { .. } => "exec",
            TraceEvent::Oracle { .. } => "oracle",
            TraceEvent::Finding { .. } => "finding",
            TraceEvent::Diff { .. } => "diff",
            TraceEvent::Snapshot { .. } => "snapshot",
        }
    }

    /// The campaign iteration the event belongs to.
    pub fn iter(&self) -> usize {
        match self {
            TraceEvent::Gen { iter, .. }
            | TraceEvent::Verify { iter, .. }
            | TraceEvent::Exec { iter, .. }
            | TraceEvent::Oracle { iter, .. }
            | TraceEvent::Finding { iter, .. }
            | TraceEvent::Diff { iter, .. }
            | TraceEvent::Snapshot { iter, .. } => *iter,
        }
    }
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("ev".to_string(), Value::String(self.tag().to_string()));
        match self {
            TraceEvent::Gen {
                iter,
                source,
                shape,
                prog_len,
            } => {
                de::insert_field(&mut m, "iter", iter);
                de::insert_field(&mut m, "source", source);
                if let Some(shape) = shape {
                    de::insert_field(&mut m, "shape", shape);
                }
                de::insert_field(&mut m, "prog_len", prog_len);
            }
            TraceEvent::Verify {
                iter,
                accepted,
                errno,
                reason,
                insns_processed,
                new_cov,
                cov_total,
                do_check_ns,
                total_ns,
            } => {
                de::insert_field(&mut m, "iter", iter);
                de::insert_field(&mut m, "accepted", accepted);
                if let Some(errno) = errno {
                    de::insert_field(&mut m, "errno", errno);
                }
                if let Some(reason) = reason {
                    de::insert_field(&mut m, "reason", reason);
                }
                de::insert_field(&mut m, "insns_processed", insns_processed);
                de::insert_field(&mut m, "new_cov", new_cov);
                de::insert_field(&mut m, "cov_total", cov_total);
                de::insert_field(&mut m, "do_check_ns", do_check_ns);
                de::insert_field(&mut m, "total_ns", total_ns);
            }
            TraceEvent::Exec {
                iter,
                steps,
                helper_calls,
                halt,
            } => {
                de::insert_field(&mut m, "iter", iter);
                de::insert_field(&mut m, "steps", steps);
                de::insert_field(&mut m, "helper_calls", helper_calls);
                de::insert_field(&mut m, "halt", halt);
            }
            TraceEvent::Oracle {
                iter,
                indicator,
                dedup_hit,
            } => {
                de::insert_field(&mut m, "iter", iter);
                de::insert_field(&mut m, "indicator", indicator);
                de::insert_field(&mut m, "dedup_hit", dedup_hit);
            }
            TraceEvent::Finding {
                iter,
                indicator,
                signature,
                culprits,
                triage_ns,
            } => {
                de::insert_field(&mut m, "iter", iter);
                de::insert_field(&mut m, "indicator", indicator);
                de::insert_field(&mut m, "signature", signature);
                de::insert_field(&mut m, "culprits", culprits);
                de::insert_field(&mut m, "triage_ns", triage_ns);
            }
            TraceEvent::Diff {
                iter,
                steps_checked,
                regs_checked,
                divergence,
            } => {
                de::insert_field(&mut m, "iter", iter);
                de::insert_field(&mut m, "steps_checked", steps_checked);
                de::insert_field(&mut m, "regs_checked", regs_checked);
                de::insert_field(&mut m, "divergence", divergence);
            }
            TraceEvent::Snapshot {
                iter,
                coverage,
                accepted,
                findings,
                corpus,
            } => {
                de::insert_field(&mut m, "iter", iter);
                de::insert_field(&mut m, "coverage", coverage);
                de::insert_field(&mut m, "accepted", accepted);
                de::insert_field(&mut m, "findings", findings);
                de::insert_field(&mut m, "corpus", corpus);
            }
        }
        Value::Object(m)
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> Result<TraceEvent, Error> {
        let obj = de::as_object(v, "TraceEvent")?;
        let tag = obj
            .get("ev")
            .and_then(Value::as_str)
            .ok_or_else(|| Error::custom("TraceEvent: missing \"ev\" tag"))?;
        match tag {
            "gen" => Ok(TraceEvent::Gen {
                iter: de::field(obj, "iter")?,
                source: de::field(obj, "source")?,
                shape: de::field(obj, "shape")?,
                prog_len: de::field(obj, "prog_len")?,
            }),
            "verify" => Ok(TraceEvent::Verify {
                iter: de::field(obj, "iter")?,
                accepted: de::field(obj, "accepted")?,
                errno: de::field(obj, "errno")?,
                reason: de::field(obj, "reason")?,
                insns_processed: de::field(obj, "insns_processed")?,
                new_cov: de::field(obj, "new_cov")?,
                cov_total: de::field(obj, "cov_total")?,
                do_check_ns: de::field(obj, "do_check_ns")?,
                total_ns: de::field(obj, "total_ns")?,
            }),
            "exec" => Ok(TraceEvent::Exec {
                iter: de::field(obj, "iter")?,
                steps: de::field(obj, "steps")?,
                helper_calls: de::field(obj, "helper_calls")?,
                halt: de::field(obj, "halt")?,
            }),
            "oracle" => Ok(TraceEvent::Oracle {
                iter: de::field(obj, "iter")?,
                indicator: de::field(obj, "indicator")?,
                dedup_hit: de::field(obj, "dedup_hit")?,
            }),
            "finding" => Ok(TraceEvent::Finding {
                iter: de::field(obj, "iter")?,
                indicator: de::field(obj, "indicator")?,
                signature: de::field(obj, "signature")?,
                culprits: de::field(obj, "culprits")?,
                triage_ns: de::field(obj, "triage_ns")?,
            }),
            "diff" => Ok(TraceEvent::Diff {
                iter: de::field(obj, "iter")?,
                steps_checked: de::field(obj, "steps_checked")?,
                regs_checked: de::field(obj, "regs_checked")?,
                divergence: de::field(obj, "divergence")?,
            }),
            "snapshot" => Ok(TraceEvent::Snapshot {
                iter: de::field(obj, "iter")?,
                coverage: de::field(obj, "coverage")?,
                accepted: de::field(obj, "accepted")?,
                findings: de::field(obj, "findings")?,
                corpus: de::field(obj, "corpus")?,
            }),
            other => Err(de::unknown_variant("TraceEvent", other)),
        }
    }
}

/// A consumer of campaign events.
pub trait TraceSink {
    /// Receives one event.
    fn emit(&mut self, event: &TraceEvent);

    /// Receives one event that worker `worker` of a multi-worker
    /// campaign emitted at `at`, replayed after the campaign's merge.
    /// The default drops both and calls [`TraceSink::emit`].
    fn emit_from(&mut self, worker: usize, at: Instant, event: &TraceEvent) {
        let _ = (worker, at);
        self.emit(event);
    }

    /// Flushes buffered output (end of campaign), returning the first
    /// write error the sink met, so a truncated trace cannot pass for a
    /// whole one.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Whether emitting does anything; hot loops skip building event
    /// payloads when it does not.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The no-op sink: tracing disabled.
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _event: &TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Writes events as JSON Lines, one object per event, each stamped with
/// `t_ns` — monotonic nanoseconds since the sink's epoch (its creation
/// time). An event replayed through [`TraceSink::emit_from`] is stamped
/// with the instant it was emitted and also carries a `"worker": id`
/// member. After a write fails the sink writes nothing more, and
/// [`TraceSink::flush`] returns that error.
pub struct JsonlSink<W: Write> {
    w: W,
    epoch: Instant,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `w`; the timestamp epoch starts now.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink {
            w,
            epoch: Instant::now(),
            error: None,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }

    fn write(&mut self, event: &TraceEvent, at: Instant, worker: Option<usize>) {
        if self.error.is_some() {
            return;
        }
        let mut value = match serde_json::to_value(event) {
            Ok(serde_json::Value::Object(map)) => map,
            _ => return,
        };
        let t_ns =
            u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        value.insert("t_ns".to_string(), serde_json::json!(t_ns));
        if let Some(w) = worker {
            value.insert("worker".to_string(), serde_json::json!(w));
        }
        let Ok(mut line) = serde_json::to_string(&value) else {
            return;
        };
        line.push('\n');
        self.error = self.w.write_all(line.as_bytes()).err();
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        self.write(event, Instant::now(), None);
    }

    fn emit_from(&mut self, worker: usize, at: Instant, event: &TraceEvent) {
        self.write(event, at, Some(worker));
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match &self.error {
            Some(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            None => self.w.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Gen {
                iter: 0,
                source: GenSource::Fresh,
                shape: Some("alu_jmp".to_string()),
                prog_len: 12,
            },
            TraceEvent::Verify {
                iter: 0,
                accepted: false,
                errno: Some(13),
                reason: Some("ctx_access_invalid".to_string()),
                insns_processed: 4,
                new_cov: 17,
                cov_total: 17,
                do_check_ns: 1200,
                total_ns: 1500,
            },
            TraceEvent::Exec {
                iter: 1,
                steps: 88,
                helper_calls: 3,
                halt: "Exit".to_string(),
            },
            TraceEvent::Oracle {
                iter: 1,
                indicator: "One".to_string(),
                dedup_hit: false,
            },
            TraceEvent::Finding {
                iter: 1,
                indicator: "One".to_string(),
                signature: "One:kasan".to_string(),
                culprits: vec!["nullness_propagation".to_string()],
                triage_ns: 5000,
            },
            TraceEvent::Diff {
                iter: 1,
                steps_checked: 40,
                regs_checked: 440,
                divergence: true,
            },
            TraceEvent::Snapshot {
                iter: 1,
                coverage: 40,
                accepted: 1,
                findings: 1,
                corpus: 1,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip() {
        let events = sample_events();
        let mut sink = JsonlSink::new(Vec::new());
        for e in &events {
            sink.emit(e);
        }
        sink.flush().expect("writes into a Vec cannot fail");
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, original) in lines.iter().zip(&events) {
            // Every line is a JSON object with a monotonic timestamp...
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("t_ns").and_then(|t| t.as_u64()).is_some());
            assert!(v.get("ev").is_some());
            // ...and parses back into the exact event that was emitted
            // (t_ns is ignored by the tagged-enum deserializer).
            let back: TraceEvent = serde_json::from_str(line).unwrap();
            assert_eq!(&back, original);
        }
    }

    #[test]
    fn emit_from_tags_the_worker_and_stamps_the_recorded_instant() {
        let mut sink = JsonlSink::new(Vec::new());
        let at = sink.epoch + std::time::Duration::from_nanos(12_345);
        for e in sample_events() {
            sink.emit_from(3, at, &e);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        for (line, original) in text.lines().zip(sample_events()) {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["worker"].as_u64(), Some(3));
            // Measured from the sink's epoch to the recorded instant, not
            // to the time of writing.
            assert_eq!(v["t_ns"].as_u64(), Some(12_345));
            // The worker tag is an ignorable extra, like t_ns.
            let back: TraceEvent = serde_json::from_str(line).unwrap();
            assert_eq!(back, original);
        }
        // A live event carries no worker member.
        let mut plain = JsonlSink::new(Vec::new());
        plain.emit(&sample_events()[0]);
        let text = String::from_utf8(plain.into_inner()).unwrap();
        let v: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert!(v.get("worker").is_none());
    }

    #[test]
    fn an_emit_only_sink_receives_replayed_events_unchanged() {
        struct Keep(Vec<TraceEvent>);
        impl TraceSink for Keep {
            fn emit(&mut self, event: &TraceEvent) {
                self.0.push(event.clone());
            }
        }
        let mut sink = Keep(Vec::new());
        for (w, e) in sample_events().iter().enumerate() {
            sink.emit_from(w, Instant::now(), e);
        }
        assert_eq!(sink.0, sample_events());
    }

    #[test]
    fn the_first_write_error_is_kept_for_flush() {
        /// A writer that accepts `room` bytes, then fails.
        struct Full {
            room: usize,
            written: Vec<u8>,
        }
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.len() > self.room {
                    return Err(std::io::ErrorKind::StorageFull.into());
                }
                self.room -= buf.len();
                self.written.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let events = sample_events();
        let mut sink = JsonlSink::new(Full {
            room: 120,
            written: Vec::new(),
        });
        for e in &events {
            sink.emit(e);
        }
        let err = sink.flush().expect_err("the trace was cut short");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert_eq!(sink.flush().map_err(|e| e.kind()), Err(err.kind()));
        // The first event fits; nothing after the failed one is written.
        let text = String::from_utf8(sink.into_inner().written).unwrap();
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let mut sink = JsonlSink::new(Vec::new());
        for e in sample_events() {
            sink.emit(&e);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let ts: Vec<u64> = text
            .lines()
            .map(|l| {
                serde_json::from_str::<serde_json::Value>(l).unwrap()["t_ns"]
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn errno_omitted_on_accept() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&TraceEvent::Verify {
            iter: 3,
            accepted: true,
            errno: None,
            reason: None,
            insns_processed: 9,
            new_cov: 0,
            cov_total: 17,
            do_check_ns: 1,
            total_ns: 2,
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(!text.contains("errno"));
        assert!(!text.contains("reason"));
        assert!(text.contains("\"ev\":\"verify\""));
    }

    /// Pins the exact JSON member set and ordering of a rejected `verify`
    /// record — the schema external consumers of the JSONL stream (and
    /// `bvf report`) parse. Extending the event requires updating this
    /// golden line deliberately.
    #[test]
    fn verify_golden_line_schema() {
        let event = TraceEvent::Verify {
            iter: 7,
            accepted: false,
            errno: Some(13),
            reason: Some("stack_oob_access".to_string()),
            insns_processed: 21,
            new_cov: 2,
            cov_total: 105,
            do_check_ns: 900,
            total_ns: 1100,
        };
        let line = serde_json::to_string(&event).unwrap();
        assert_eq!(
            line,
            "{\"accepted\":false,\"cov_total\":105,\"do_check_ns\":900,\
             \"errno\":13,\"ev\":\"verify\",\"insns_processed\":21,\
             \"iter\":7,\"new_cov\":2,\"reason\":\"stack_oob_access\",\
             \"total_ns\":1100}"
        );
        let back: TraceEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, event);
    }
}
