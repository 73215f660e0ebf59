//! The correctness reference: every server answer is checked against the
//! exhaustive `ddpa-anders` solution of the same program, computed
//! outside the timed phases.

use std::cell::OnceCell;
use std::collections::HashMap;

use ddpa_anders::{wave, Solution};
use ddpa_constraints::{CallSiteId, ConstraintProgram, NodeId};
use ddpa_obs::JsonValue;
use ddpa_serve::QuerySpec;
use ddpa_support::Idx;

/// A complete answer, reduced to what the check compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Answer {
    /// A name set (points-to, pointed-to-by, call targets) as a
    /// fingerprint of its sorted names, with its size.
    Names { fingerprint: u64, len: usize },
    /// A may-alias verdict.
    Alias(bool),
}

/// What one query request came back with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Answer(Answer),
    /// Timed out, or not fully resolved: counted as failed.
    Incomplete,
    /// An error or refusal response: counted as failed.
    Error(String),
}

impl Outcome {
    pub fn failed(&self) -> bool {
        !matches!(self, Outcome::Answer(_))
    }
}

/// FNV-1a over the sorted names, NUL-separated.
pub fn fingerprint<S: AsRef<str>>(names: &mut [S]) -> Answer {
    names.sort_by(|a, b| a.as_ref().cmp(b.as_ref()));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in names.iter() {
        for &b in n.as_ref().as_bytes().iter().chain(&[0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Answer::Names {
        fingerprint: h,
        len: names.len(),
    }
}

/// Classifies a query response.
pub fn outcome_of(response: &JsonValue) -> Outcome {
    if response.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown");
        return Outcome::Error(code.to_owned());
    }
    let Some(result) = response.get("result") else {
        return Outcome::Error("no result".into());
    };
    let flag = |k: &str| result.get(k).and_then(JsonValue::as_bool);
    if flag("timed_out") == Some(true) {
        return Outcome::Incomplete;
    }
    let names = |k: &str| -> Option<Vec<&str>> {
        result
            .get(k)?
            .as_array()?
            .iter()
            .map(JsonValue::as_str)
            .collect()
    };
    if let Some(mut pts) = names("pts") {
        if flag("complete") != Some(true) {
            return Outcome::Incomplete;
        }
        return Outcome::Answer(fingerprint(&mut pts));
    }
    if let Some(mut targets) = names("targets") {
        if flag("resolved") != Some(true) {
            return Outcome::Incomplete;
        }
        return Outcome::Answer(fingerprint(&mut targets));
    }
    match (flag("may_alias"), flag("resolved")) {
        (Some(alias), Some(true)) => Outcome::Answer(Answer::Alias(alias)),
        (Some(_), _) => Outcome::Incomplete,
        _ => Outcome::Error("unrecognized result".into()),
    }
}

/// The exhaustive solution of one program, indexed for name lookups.
pub struct Reference {
    cp: ConstraintProgram,
    solution: Solution,
    names: HashMap<String, NodeId>,
    /// `ptb[o]`: every node whose points-to set holds `o` (built on the
    /// first pointed-to-by check).
    ptb: OnceCell<Vec<Vec<NodeId>>>,
}

impl Reference {
    pub fn new(cp: ConstraintProgram) -> Reference {
        let (solution, _) = wave::solve(&cp);
        let names = cp.node_ids().map(|n| (cp.display_node(n), n)).collect();
        Reference {
            cp,
            solution,
            names,
            ptb: OnceCell::new(),
        }
    }

    fn ptb(&self, o: NodeId) -> &[NodeId] {
        let ptb = self.ptb.get_or_init(|| {
            let mut ptb = vec![Vec::new(); self.cp.num_nodes()];
            for w in self.cp.node_ids() {
                for o in self.solution.pts_nodes(w) {
                    ptb[o.index()].push(w);
                }
            }
            ptb
        });
        &ptb[o.index()]
    }

    fn node(&self, name: &str) -> Result<NodeId, String> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| format!("reference has no node {name:?}"))
    }

    fn node_names(&self, nodes: &[NodeId]) -> Answer {
        let mut names: Vec<String> = nodes.iter().map(|&n| self.cp.display_node(n)).collect();
        fingerprint(&mut names)
    }

    /// The exact answer to `spec`.
    pub fn expected(&self, spec: &QuerySpec) -> Result<Answer, String> {
        Ok(match spec {
            QuerySpec::PointsTo { name } => {
                self.node_names(&self.solution.pts_nodes(self.node(name)?))
            }
            QuerySpec::PointedToBy { name } => self.node_names(self.ptb(self.node(name)?)),
            QuerySpec::MayAlias { a, b } => {
                Answer::Alias(self.solution.may_alias(self.node(a)?, self.node(b)?))
            }
            QuerySpec::CallTargets { site } => {
                let cs = u32::try_from(*site)
                    .ok()
                    .filter(|&s| (s as usize) < self.cp.callsites().len())
                    .ok_or_else(|| format!("reference has no call site {site}"))?;
                let mut names: Vec<&str> = self
                    .solution
                    .call_targets(CallSiteId::from_u32(cs))
                    .iter()
                    .map(|&f| self.cp.interner().resolve(self.cp.func(f).name))
                    .collect();
                fingerprint(&mut names)
            }
        })
    }

    /// Checks one outcome: `Ok(true)` for a correct answer, `Ok(false)`
    /// for a failed request (counted, never filtered), `Err` on a wrong
    /// answer.
    pub fn check(&self, spec: &QuerySpec, outcome: &Outcome) -> Result<bool, String> {
        let Outcome::Answer(got) = outcome else {
            return Ok(false);
        };
        let want = self.expected(spec)?;
        if *got == want {
            Ok(true)
        } else {
            Err(format!(
                "{spec:?}: server answered {got:?}, reference {want:?}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_obs::parse_json;

    fn reference() -> Reference {
        Reference::new(
            ddpa_constraints::parse_constraints("p = &a\nq = p\nr = &b\n*q = r\ns = *p\n")
                .expect("parses"),
        )
    }

    fn pts_response(names: &[&str], complete: bool) -> Outcome {
        let list: Vec<String> = names.iter().map(|n| format!("{n:?}")).collect();
        outcome_of(
            &parse_json(&format!(
                r#"{{"ok":true,"result":{{"pts":[{}],"complete":{complete},"work":1,"timed_out":false}}}}"#,
                list.join(",")
            ))
            .expect("json"),
        )
    }

    #[test]
    fn accepts_the_exact_answer_in_any_order() {
        let r = reference();
        let q = QuerySpec::PointsTo { name: "s".into() };
        assert_eq!(r.check(&q, &pts_response(&["b"], true)), Ok(true));
        let ptb = QuerySpec::PointedToBy { name: "a".into() };
        assert_eq!(r.check(&ptb, &pts_response(&["q", "p"], true)), Ok(true));
    }

    #[test]
    fn rejects_an_injected_wrong_answer() {
        let r = reference();
        let q = QuerySpec::PointsTo { name: "s".into() };
        assert!(r.check(&q, &pts_response(&["a"], true)).is_err());
        assert!(r.check(&q, &pts_response(&["a", "b"], true)).is_err());
        assert!(r.check(&q, &pts_response(&[], true)).is_err());
        let alias = QuerySpec::MayAlias {
            a: "p".into(),
            b: "r".into(),
        };
        assert!(r
            .check(&alias, &Outcome::Answer(Answer::Alias(true)))
            .is_err());
        assert_eq!(
            r.check(&alias, &Outcome::Answer(Answer::Alias(false))),
            Ok(true)
        );
    }

    #[test]
    fn incomplete_and_error_answers_count_as_failed_not_wrong() {
        let r = reference();
        let q = QuerySpec::PointsTo { name: "s".into() };
        let partial = pts_response(&[], false);
        assert_eq!(partial, Outcome::Incomplete);
        assert_eq!(r.check(&q, &partial), Ok(false));
        let timeout = outcome_of(
            &parse_json(r#"{"ok":true,"result":{"pts":["b"],"complete":true,"timed_out":true}}"#)
                .expect("json"),
        );
        assert!(timeout.failed());
        let busy = outcome_of(
            &parse_json(r#"{"ok":false,"error":{"code":"busy","message":"x"}}"#).expect("json"),
        );
        assert_eq!(busy, Outcome::Error("busy".into()));
        assert_eq!(r.check(&q, &busy), Ok(false));
    }
}
