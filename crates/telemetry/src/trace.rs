//! Execution tracing: one event per γ decision.
//!
//! The human-readable rendering mirrors the paper's Section 3 account
//! of `next`: each committed stage prints the tuple ↔ stage pair the
//! bijection associates, each discarded candidate prints why it fell
//! to `R_r`, and flat-rule rounds print their delta sizes.

use std::sync::Mutex;

use crate::json::Json;

/// Why a popped candidate was discarded to `R_r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiscardReason {
    /// A stage comparison (`J < I`, `I = J + 1`, or another guard)
    /// failed against the new stage value.
    StaleStage,
    /// The on-the-fly `diffChoice` test failed: a choice goal's
    /// functional dependency already maps the left tuple elsewhere.
    DiffChoice,
    /// The next-expansion's `choice(W, I)` goal failed: the non-stage
    /// head projection was already committed at an earlier stage.
    StageReuse,
}

impl DiscardReason {
    /// Stable lowercase label (also used in trace lines).
    pub fn label(self) -> &'static str {
        match self {
            DiscardReason::StaleStage => "stale-stage",
            DiscardReason::DiffChoice => "diffchoice",
            DiscardReason::StageReuse => "stage-reuse",
        }
    }
}

/// One observable event in an executor run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A next rule committed `fact` as stage `stage`.
    StageCommit {
        /// Head predicate of the firing rule.
        pred: String,
        /// The committed stage index `I`.
        stage: i64,
        /// The cost the retrieve-least returned (empty when costless).
        cost: String,
        /// The inserted head fact.
        fact: String,
    },
    /// A popped candidate failed a check and moved to `R_r`.
    Discard {
        pred: String,
        reason: DiscardReason,
        /// The popped source row.
        row: String,
    },
    /// An exit choice rule fired.
    ExitCommit { pred: String, fact: String },
    /// One seminaive saturation call finished.
    FlatRound {
        /// Saturation call ordinal within the run.
        round: u64,
        /// Facts derived by the call.
        new_facts: u64,
    },
    /// A flat rule derived new facts during a saturation round.
    RuleFired {
        /// Rule id — index into the original program's rule list.
        rule: usize,
        /// Head predicate of the firing rule.
        pred: String,
        /// Fresh facts the firing inserted (post-deduplication).
        new_facts: u64,
    },
    /// One γ decision point audited its candidate pool: how many
    /// candidates were weighed and how many fell to `diffChoice` (or a
    /// stage guard) before the commit.
    ChoiceAudit {
        /// Rule id — index into the original program's rule list.
        rule: usize,
        /// Head predicate of the choice rule.
        pred: String,
        /// Candidates considered at this decision point.
        considered: u64,
        /// Candidates rejected before (or instead of) a commit.
        rejected: u64,
    },
}

impl TraceEvent {
    /// The one-line human rendering.
    pub fn render(&self) -> String {
        match self {
            TraceEvent::StageCommit { pred, stage, cost, fact } => {
                if cost.is_empty() {
                    format!("γ stage {stage:>5} ⇐ {pred}{fact}")
                } else {
                    format!("γ stage {stage:>5} ⇐ {pred}{fact}  [cost {cost}]")
                }
            }
            TraceEvent::Discard { pred, reason, row } => {
                format!("  discard [{}] {pred} ⇐ {row}", reason.label())
            }
            TraceEvent::ExitCommit { pred, fact } => format!("γ exit        ⇐ {pred}{fact}"),
            TraceEvent::FlatRound { round, new_facts } => {
                format!("Q∞ round {round:>4}: +{new_facts} facts")
            }
            TraceEvent::RuleFired { rule, pred, new_facts } => {
                format!("  rule #{rule} {pred}: +{new_facts} facts")
            }
            TraceEvent::ChoiceAudit { rule, pred, considered, rejected } => {
                format!("γ audit rule #{rule} {pred}: {considered} considered, {rejected} rejected")
            }
        }
    }

    /// Stable snake_case event name (the `name` of journal entries and
    /// Chrome trace events).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::StageCommit { .. } => "stage_commit",
            TraceEvent::Discard { .. } => "discard",
            TraceEvent::ExitCommit { .. } => "exit_commit",
            TraceEvent::FlatRound { .. } => "flat_round",
            TraceEvent::RuleFired { .. } => "rule_fired",
            TraceEvent::ChoiceAudit { .. } => "choice_audit",
        }
    }

    /// Structured JSON form: every variant is an object tagged with a
    /// `"type"` field equal to [`TraceEvent::kind`].
    pub fn to_json(&self) -> Json {
        let tag = ("type", Json::Str(self.kind().to_owned()));
        match self {
            TraceEvent::StageCommit { pred, stage, cost, fact } => Json::obj(vec![
                tag,
                ("pred", Json::Str(pred.clone())),
                ("stage", Json::Int(*stage)),
                ("cost", Json::Str(cost.clone())),
                ("fact", Json::Str(fact.clone())),
            ]),
            TraceEvent::Discard { pred, reason, row } => Json::obj(vec![
                tag,
                ("pred", Json::Str(pred.clone())),
                ("reason", Json::Str(reason.label().to_owned())),
                ("row", Json::Str(row.clone())),
            ]),
            TraceEvent::ExitCommit { pred, fact } => Json::obj(vec![
                tag,
                ("pred", Json::Str(pred.clone())),
                ("fact", Json::Str(fact.clone())),
            ]),
            TraceEvent::FlatRound { round, new_facts } => Json::obj(vec![
                tag,
                ("round", Json::UInt(*round)),
                ("new_facts", Json::UInt(*new_facts)),
            ]),
            TraceEvent::RuleFired { rule, pred, new_facts } => Json::obj(vec![
                tag,
                ("rule", Json::UInt(*rule as u64)),
                ("pred", Json::Str(pred.clone())),
                ("new_facts", Json::UInt(*new_facts)),
            ]),
            TraceEvent::ChoiceAudit { rule, pred, considered, rejected } => Json::obj(vec![
                tag,
                ("rule", Json::UInt(*rule as u64)),
                ("pred", Json::Str(pred.clone())),
                ("considered", Json::UInt(*considered)),
                ("rejected", Json::UInt(*rejected)),
            ]),
        }
    }
}

/// An event consumer. Implementations must be shareable across the
/// executor layers, hence `&self` methods and `Send + Sync`.
pub trait TraceSink: Send + Sync {
    /// Consume one event.
    fn event(&self, ev: &TraceEvent);
}

/// Renders every event to stderr, one line each.
#[derive(Debug, Default)]
pub struct StderrTrace;

impl TraceSink for StderrTrace {
    fn event(&self, ev: &TraceEvent) {
        eprintln!("{}", ev.render());
    }
}

/// Collects rendered lines in memory (tests, golden files).
#[derive(Debug, Default)]
pub struct BufferTrace {
    lines: Mutex<Vec<String>>,
}

impl BufferTrace {
    /// Empty buffer.
    pub fn new() -> BufferTrace {
        BufferTrace::default()
    }

    /// The rendered lines so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("trace buffer lock").clone()
    }
}

impl TraceSink for BufferTrace {
    fn event(&self, ev: &TraceEvent) {
        self.lines.lock().expect("trace buffer lock").push(ev.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_lines_pair_tuple_and_stage() {
        let ev = TraceEvent::StageCommit {
            pred: "prm".into(),
            stage: 3,
            cost: "7".into(),
            fact: "(0, 4, 7, 3)".into(),
        };
        let line = ev.render();
        assert!(line.contains("stage     3"));
        assert!(line.contains("prm(0, 4, 7, 3)"));
        assert!(line.contains("[cost 7]"));
    }

    #[test]
    fn discard_lines_carry_the_reason() {
        let ev = TraceEvent::Discard {
            pred: "prm".into(),
            reason: DiscardReason::DiffChoice,
            row: "(1, 2, 9)".into(),
        };
        assert!(ev.render().contains("[diffchoice]"));
    }

    #[test]
    fn every_event_serializes_with_a_type_tag() {
        let events = [
            TraceEvent::StageCommit {
                pred: "prm".into(),
                stage: 1,
                cost: String::new(),
                fact: "(0, 1, 2, 1)".into(),
            },
            TraceEvent::Discard {
                pred: "prm".into(),
                reason: DiscardReason::StaleStage,
                row: "(1, 2)".into(),
            },
            TraceEvent::ExitCommit { pred: "mst".into(), fact: "(0, 1)".into() },
            TraceEvent::FlatRound { round: 3, new_facts: 0 },
            TraceEvent::RuleFired { rule: 4, pred: "comp".into(), new_facts: 2 },
            TraceEvent::ChoiceAudit { rule: 0, pred: "kruskal".into(), considered: 7, rejected: 3 },
        ];
        for ev in &events {
            let s = ev.to_json().to_string();
            assert!(s.contains(&format!("\"type\":\"{}\"", ev.kind())), "missing type tag in {s}");
        }
    }

    #[test]
    fn audit_lines_report_both_counts() {
        let ev =
            TraceEvent::ChoiceAudit { rule: 2, pred: "kruskal".into(), considered: 9, rejected: 4 };
        let line = ev.render();
        assert!(line.contains("9 considered"));
        assert!(line.contains("4 rejected"));
        assert!(line.contains("rule #2"));
    }

    #[test]
    fn buffer_trace_collects_in_order() {
        let buf = BufferTrace::new();
        buf.event(&TraceEvent::FlatRound { round: 1, new_facts: 5 });
        buf.event(&TraceEvent::FlatRound { round: 2, new_facts: 0 });
        let lines = buf.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("+5 facts"));
        assert!(lines[1].contains("round    2"));
    }
}
