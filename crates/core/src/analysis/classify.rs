//! Program classification: the compile-time recognition of
//! stage-stratified programs (Section 4).

use std::collections::{HashMap, VecDeque};

use gbc_ast::{FactGroup, Literal, Program, Rule, Symbol, Term, VarId};
use gbc_engine::graph::DiGraph;
use gbc_engine::stratified::DependencyGraph;

use crate::analysis::constraints::Constraints;
use crate::analysis::stage::{infer_stages, StageConflict, StageInfo};

/// One way a stage clique fails the Section 4 stage-stratification
/// conditions. Rule/literal fields are indices into `program.rules` and
/// the rule's body, so the diagnostic renderer can point at the exact
/// source span. Variants map 1:1 onto the `GBC011`–`GBC018` codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageViolation {
    /// GBC011: a predicate was inferred with two distinct stage
    /// positions (Kruskal's `comp`, Example 8).
    StageConflict(StageConflict),
    /// GBC012: a clique predicate has no stage argument at all.
    NoStageArg { pred: Symbol },
    /// GBC013: a predicate is defined by both next and flat recursive
    /// rules; `rule` is the second-kind rule that exposed the mix.
    MixedRuleKinds { pred: Symbol, rule: usize },
    /// GBC014: a next rule whose head does not hold the stage variable
    /// at the stage position.
    NextRuleNoHeadStageVar { rule: usize },
    /// GBC015: a next rule's body stage variable is not provably `<`
    /// the head stage variable (strict stage stratification).
    BodyStageNotLess { rule: usize, var: VarId, negated: bool },
    /// GBC016: a next-rule extremum whose group is neither empty nor
    /// the stage variable — the paper's `least(C, _)` counter-example.
    BadNextExtremumGroup { rule: usize, literal: usize, least: bool },
    /// GBC017: a flat rule's body stage variable is not provably `≤`
    /// (`<` under negation) the head stage variable.
    FlatStageNotOrdered { rule: usize, var: VarId, negated: bool },
    /// GBC018: a flat rule applies an extremum over clique predicates
    /// (the Kruskal situation, outside strict stage stratification).
    ExtremumOverClique { rule: usize },
}

impl StageViolation {
    /// The diagnostic code this violation renders under.
    pub fn code(&self) -> &'static str {
        match self {
            StageViolation::StageConflict(_) => "GBC011",
            StageViolation::NoStageArg { .. } => "GBC012",
            StageViolation::MixedRuleKinds { .. } => "GBC013",
            StageViolation::NextRuleNoHeadStageVar { .. } => "GBC014",
            StageViolation::BodyStageNotLess { .. } => "GBC015",
            StageViolation::BadNextExtremumGroup { .. } => "GBC016",
            StageViolation::FlatStageNotOrdered { .. } => "GBC017",
            StageViolation::ExtremumOverClique { .. } => "GBC018",
        }
    }

    /// The index of the rule the violation is anchored to, when any.
    pub fn rule(&self) -> Option<usize> {
        match self {
            StageViolation::StageConflict(_) | StageViolation::NoStageArg { .. } => None,
            StageViolation::MixedRuleKinds { rule, .. }
            | StageViolation::NextRuleNoHeadStageVar { rule }
            | StageViolation::BodyStageNotLess { rule, .. }
            | StageViolation::BadNextExtremumGroup { rule, .. }
            | StageViolation::FlatStageNotOrdered { rule, .. }
            | StageViolation::ExtremumOverClique { rule } => Some(*rule),
        }
    }

    /// A one-line human-readable explanation (the old free-text note).
    pub fn describe(&self, program: &Program) -> String {
        let rule = |ri: &usize| &program.rules[*ri];
        match self {
            StageViolation::StageConflict(c) => c.to_string(),
            StageViolation::NoStageArg { pred } => {
                format!("clique predicate `{pred}` has no stage argument")
            }
            StageViolation::MixedRuleKinds { pred, .. } => {
                format!("predicate `{pred}` is defined by both next and flat recursive rules")
            }
            StageViolation::NextRuleNoHeadStageVar { rule: ri } => {
                format!("next rule `{}` has no head stage variable", rule(ri))
            }
            StageViolation::BodyStageNotLess { rule: ri, var, negated } => format!(
                "next rule `{}`: body stage variable `{}`{} is not provably < the \
                 head stage variable",
                rule(ri),
                rule(ri).var_name(*var),
                if *negated { " (negated atom)" } else { "" },
            ),
            StageViolation::BadNextExtremumGroup { rule: ri, least, .. } => format!(
                "next rule `{}`: the group of `{}` must be empty or the stage \
                 variable (the paper's least(C, _) counter-example loses stage \
                 stratification)",
                rule(ri),
                if *least { "least" } else { "most" },
            ),
            StageViolation::FlatStageNotOrdered { rule: ri, var, negated } => format!(
                "flat rule `{}`: body stage variable `{}`{} is not provably {} the \
                 head stage variable",
                rule(ri),
                rule(ri).var_name(*var),
                if *negated { " (negated atom)" } else { "" },
                if *negated { "<" } else { "≤" },
            ),
            StageViolation::ExtremumOverClique { rule: ri } => format!(
                "flat rule `{}` applies an extremum over clique predicates \
                 (the Kruskal situation — Example 8 is outside strict stage \
                 stratification)",
                rule(ri)
            ),
        }
    }
}

/// The syntactic class of a program, per the paper's taxonomy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramClass {
    /// Horn Datalog: no negation, no meta constructs.
    Horn,
    /// Negation/extrema present, stratified — evaluable by the perfect-
    /// model procedure.
    Stratified,
    /// `choice` goals but no `next`: locally stratified modulo choice
    /// (Examples 1–3); evaluable by the generic choice fixpoint.
    Choice,
    /// The paper's headline class (Theorems 1–3): stage cliques, next
    /// rules strictly stage-stratified, flat rules stage-stratified.
    /// `alternating` ⇔ the flat rules alone are non-recursive, so
    /// `Q^∞(γ(S)) = Q^n(γ(S))` (Section 4's Alternating fixpoint).
    StageStratified { alternating: bool },
    /// Stage cliques exist but some check fails — e.g. the paper's
    /// Kruskal program (Example 8). Still evaluable by the generic
    /// choice fixpoint when locally stratified modulo choice, but
    /// outside the greedy executor's guarantees.
    NotStageStratified { violations: Vec<StageViolation> },
    /// Negation/extrema through recursion without stage discipline.
    /// `cycle` traces the offending dependency loop: it starts at the
    /// rule head owning the negative/extrema dependency, and the edge
    /// from the last predicate back to the first closes the loop.
    Unstratified { cycle: Vec<Symbol> },
}

impl ProgramClass {
    /// A compact one-line description (the `Debug` form of the failing
    /// variants can be arbitrarily long).
    pub fn summary(&self) -> String {
        match self {
            ProgramClass::Horn => "Horn".into(),
            ProgramClass::Stratified => "Stratified".into(),
            ProgramClass::Choice => "Choice".into(),
            ProgramClass::StageStratified { alternating: true } => {
                "StageStratified (alternating)".into()
            }
            ProgramClass::StageStratified { alternating: false } => {
                "StageStratified (non-alternating)".into()
            }
            ProgramClass::NotStageStratified { violations } => {
                format!("NotStageStratified ({} violation(s))", violations.len())
            }
            ProgramClass::Unstratified { cycle } => {
                let trace: Vec<String> = cycle.iter().map(|p| p.to_string()).collect();
                format!("Unstratified (cycle: {})", trace.join(" → "))
            }
        }
    }
}

/// Analysis of one recursive clique.
#[derive(Clone, Debug)]
pub struct CliqueInfo {
    /// The clique's predicates, name-sorted.
    pub preds: Vec<Symbol>,
    /// Indices (into `program.rules`) of the clique's next rules.
    pub next_rules: Vec<usize>,
    /// Indices of the clique's flat rules (recursive, no `next`).
    pub flat_rules: Vec<usize>,
    /// Indices of exit rules (head in clique, body free of clique preds).
    pub exit_rules: Vec<usize>,
    /// The number of facts of clique predicates: exits with no rule.
    pub exit_facts: usize,
    /// Does this clique contain a stage (next-defined) predicate?
    pub is_stage_clique: bool,
    /// Did every stage-stratification check pass?
    pub stage_stratified: bool,
    /// Are the flat rules alone non-recursive (alternating evaluation)?
    pub alternating: bool,
    /// Stage-stratification failures, if any.
    pub violations: Vec<StageViolation>,
}

/// Full analysis result.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Stage-argument table.
    pub stages: StageInfo,
    /// Recursive cliques (only those with ≥1 rule).
    pub cliques: Vec<CliqueInfo>,
    /// Overall classification.
    pub class: ProgramClass,
}

/// Classify `program`. The program should already be validated.
pub fn classify(program: &Program) -> Analysis {
    let stages = infer_stages(program);

    // The dependency graph, plus a self-edge per next rule (the expanded
    // rule reads its own head predicate for the previous stage).
    let DependencyGraph { pred_ids, preds, mut graph, .. } = DependencyGraph::build(program);
    for r in program.rules.iter().filter(|r| r.has_next()) {
        let h = pred_ids[&r.head.pred];
        graph.add_edge(h, h);
    }
    let sccs = graph.sccs();
    let mut comp_of = vec![usize::MAX; preds.len()];
    for (ci, comp) in sccs.iter().enumerate() {
        for &p in comp {
            comp_of[p] = ci;
        }
    }

    // A clique is *recursive* if it has >1 predicate or a self-edge.
    let mut cliques = Vec::new();
    for comp in &sccs {
        let recursive = comp.len() > 1 || graph.has_edge(comp[0], comp[0]);
        if !recursive {
            continue;
        }
        let clique_preds: Vec<Symbol> = comp.iter().map(|&i| preds[i]).collect();
        cliques.push(analyse_clique(program, &stages, &clique_preds));
    }

    let class = overall_class(program, &stages, &cliques, &graph, &preds, &pred_ids, &comp_of);
    Analysis { stages, cliques, class }
}

fn mentions_clique(rule: &Rule, clique: &[Symbol]) -> bool {
    rule.body.iter().any(|l| match l {
        Literal::Pos(a) | Literal::Neg(a) => clique.contains(&a.pred),
        _ => false,
    })
}

fn analyse_clique(program: &Program, stages: &StageInfo, clique: &[Symbol]) -> CliqueInfo {
    let mut info = CliqueInfo {
        preds: clique.to_vec(),
        next_rules: Vec::new(),
        flat_rules: Vec::new(),
        exit_rules: Vec::new(),
        exit_facts: program
            .facts
            .groups()
            .iter()
            .filter(|g| clique.contains(&g.pred()))
            .map(FactGroup::len)
            .sum(),
        is_stage_clique: false,
        stage_stratified: true,
        alternating: true,
        violations: Vec::new(),
    };

    // Partition the clique's rules.
    let mut kind_by_pred: HashMap<Symbol, bool> = HashMap::new(); // pred → is-next
    for (ri, rule) in program.rules.iter().enumerate() {
        if !clique.contains(&rule.head.pred) {
            continue;
        }
        let recursive = rule.has_next() || mentions_clique(rule, clique);
        if !recursive {
            info.exit_rules.push(ri);
            continue;
        }
        if rule.has_next() {
            info.is_stage_clique = true;
            info.next_rules.push(ri);
        } else {
            info.flat_rules.push(ri);
        }
        // "Any two recursive rules defining a predicate in the clique
        // must be of the same kind."
        match kind_by_pred.get(&rule.head.pred) {
            Some(&k) if k != rule.has_next() => {
                info.stage_stratified = false;
                info.violations
                    .push(StageViolation::MixedRuleKinds { pred: rule.head.pred, rule: ri });
            }
            _ => {
                kind_by_pred.insert(rule.head.pred, rule.has_next());
            }
        }
    }
    if !info.is_stage_clique {
        return info;
    }

    // Every clique predicate must be an unconflicted stage predicate.
    for p in clique {
        if !stages.stage_arg.contains_key(p) {
            info.stage_stratified = false;
            info.violations.push(StageViolation::NoStageArg { pred: *p });
        }
        for c in &stages.conflicts {
            if c.pred == *p {
                info.stage_stratified = false;
                info.violations.push(StageViolation::StageConflict(c.clone()));
            }
        }
    }

    // Next rules: strictly stage-stratified.
    for &ri in &info.next_rules {
        let rule = &program.rules[ri];
        let cons = Constraints::from_rule(rule);
        let Some(stage_var) = stages.head_stage_var(rule) else {
            info.stage_stratified = false;
            info.violations.push(StageViolation::NextRuleNoHeadStageVar { rule: ri });
            continue;
        };
        for (v, negated) in stages.body_stage_vars(rule) {
            if !cons.lt(v, stage_var) {
                info.stage_stratified = false;
                info.violations.push(StageViolation::BodyStageNotLess {
                    rule: ri,
                    var: v,
                    negated,
                });
            }
        }
        // Extremum groups: a next-rule extremum selects among the
        // current stage's candidates, so its group must be empty (the
        // implicit stage group) or exactly the stage variable. The
        // paper's warning case — least(C, _) — fails here.
        for (li, lit) in rule.body.iter().enumerate() {
            let (group, least) = match lit {
                Literal::Least { group, .. } => (group, true),
                Literal::Most { group, .. } => (group, false),
                _ => continue,
            };
            let ok = group.is_empty()
                || (group.len() == 1 && matches!(&group[0], Term::Var(v) if *v == stage_var));
            if !ok {
                info.stage_stratified = false;
                info.violations.push(StageViolation::BadNextExtremumGroup {
                    rule: ri,
                    literal: li,
                    least,
                });
            }
        }
    }

    // Flat rules: positive clique goals ≤, negated goals <, no extrema
    // over clique predicates.
    for &ri in &info.flat_rules {
        let rule = &program.rules[ri];
        let cons = Constraints::from_rule(rule);
        let head_stage = stages.head_stage_var(rule);
        for (v, negated) in stages.body_stage_vars(rule) {
            let ok = match head_stage {
                Some(h) => {
                    if negated {
                        cons.lt(v, h)
                    } else {
                        v == h || cons.le(v, h)
                    }
                }
                // Constant head stage with stage-carrying body: cannot
                // certify stratification.
                None => false,
            };
            if !ok {
                info.stage_stratified = false;
                info.violations.push(StageViolation::FlatStageNotOrdered {
                    rule: ri,
                    var: v,
                    negated,
                });
            }
        }
        if rule.has_extrema() && mentions_clique(rule, &info.preds) {
            info.stage_stratified = false;
            info.violations.push(StageViolation::ExtremumOverClique { rule: ri });
        }
    }

    // Alternating: flat rules alone must not be recursive.
    let mut flat_graph_edges: Vec<(Symbol, Symbol)> = Vec::new();
    for &ri in &info.flat_rules {
        let rule = &program.rules[ri];
        for l in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = l {
                if info.preds.contains(&a.pred) {
                    flat_graph_edges.push((rule.head.pred, a.pred));
                }
            }
        }
    }
    info.alternating = !has_cycle(&info.preds, &flat_graph_edges);
    info
}

/// The predicate trace of a negation/extrema cycle: `head` has the
/// offending dependency on `from`, and `from` reaches `head` again
/// inside their shared SCC. Returns `[head, from, …]` with the closing
/// edge back to `head` implicit. BFS keeps the trace shortest.
fn cycle_trace(
    graph: &DiGraph,
    preds: &[Symbol],
    comp_of: &[usize],
    from: usize,
    head: usize,
) -> Vec<Symbol> {
    if from == head {
        return vec![preds[head]];
    }
    let comp = comp_of[head];
    let mut prev = vec![usize::MAX; graph.len()];
    prev[from] = from;
    let mut queue = VecDeque::from([from]);
    'bfs: while let Some(v) = queue.pop_front() {
        for &w in graph.successors(v) {
            if comp_of[w] != comp || prev[w] != usize::MAX {
                continue;
            }
            prev[w] = v;
            if w == head {
                break 'bfs;
            }
            queue.push_back(w);
        }
    }
    if prev[head] == usize::MAX {
        // No return path found (defensive: callers only ask within a
        // recursive SCC, where one must exist).
        return vec![preds[head], preds[from]];
    }
    let mut path = vec![head];
    let mut cur = head;
    while cur != from {
        cur = prev[cur];
        path.push(cur);
    }
    // path is head, …, from reversed; the cycle starts at head, takes
    // the negative edge to from, then follows the path back (head
    // itself closes the loop and is not repeated).
    path.reverse();
    let mut cycle = vec![preds[head]];
    cycle.extend(path[..path.len() - 1].iter().map(|&i| preds[i]));
    cycle
}

/// Cycle detection on the flat-rule subgraph (small: clique-sized).
fn has_cycle(preds: &[Symbol], edges: &[(Symbol, Symbol)]) -> bool {
    let idx = |s: Symbol| preds.iter().position(|&p| p == s).expect("clique pred");
    let mut g = DiGraph::new(preds.len());
    for &(a, b) in edges {
        g.add_edge(idx(a), idx(b));
    }
    g.sccs().iter().any(|c| c.len() > 1 || g.has_edge(c[0], c[0]))
}

fn overall_class(
    program: &Program,
    _stages: &StageInfo,
    cliques: &[CliqueInfo],
    graph: &DiGraph,
    preds: &[Symbol],
    pred_ids: &HashMap<Symbol, usize>,
    comp_of: &[usize],
) -> ProgramClass {
    let has_next = program.rules.iter().any(Rule::has_next);
    let has_choice = program.rules.iter().any(Rule::has_choice);
    let has_neg = program.rules.iter().any(Rule::has_negation);
    let has_ext = program.rules.iter().any(Rule::has_extrema);

    if has_next {
        let violations: Vec<StageViolation> = cliques
            .iter()
            .filter(|c| c.is_stage_clique && !c.stage_stratified)
            .flat_map(|c| c.violations.iter().cloned())
            .collect();
        if !violations.is_empty() {
            return ProgramClass::NotStageStratified { violations };
        }
        let alternating = cliques.iter().filter(|c| c.is_stage_clique).all(|c| c.alternating);
        return ProgramClass::StageStratified { alternating };
    }
    if has_choice {
        return ProgramClass::Choice;
    }
    if has_neg || has_ext {
        // Stratification: no negative/extrema dependency within an SCC.
        for r in &program.rules {
            let h = comp_of[pred_ids[&r.head.pred]];
            for l in &r.body {
                let neg_dep = match l {
                    Literal::Neg(a) => Some(a.pred),
                    Literal::Pos(a) if r.has_extrema() => Some(a.pred),
                    _ => None,
                };
                if let Some(p) = neg_dep {
                    if comp_of[pred_ids[&p]] == h
                        && (graph.has_edge(pred_ids[&r.head.pred], pred_ids[&p]))
                    {
                        // Same SCC: recursive only if the SCC is recursive.
                        let scc_recursive = comp_of.iter().filter(|&&c| c == h).count() > 1
                            || graph.has_edge(pred_ids[&r.head.pred], pred_ids[&r.head.pred]);
                        if scc_recursive {
                            let cycle = cycle_trace(
                                graph,
                                preds,
                                comp_of,
                                pred_ids[&p],
                                pred_ids[&r.head.pred],
                            );
                            return ProgramClass::Unstratified { cycle };
                        }
                    }
                }
            }
        }
        return ProgramClass::Stratified;
    }
    ProgramClass::Horn
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_parser::parse_program;

    #[test]
    fn prim_is_alternating_stage_stratified() {
        let p = parse_program(
            "prm(nil, a, 0, 0).
             prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, least(C, I), choice(Y, X).
             new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
        )
        .unwrap();
        let a = classify(&p);
        assert_eq!(a.class, ProgramClass::StageStratified { alternating: true });
        let clique = a.cliques.iter().find(|c| c.is_stage_clique).unwrap();
        assert_eq!(clique.next_rules.len(), 1);
        assert_eq!(clique.flat_rules.len(), 1);
        assert!(clique.violations.is_empty(), "{:?}", clique.violations);
    }

    #[test]
    fn sort_is_stage_stratified() {
        let p = parse_program(
            "sp(nil, 0, 0).
             sp(X, C, I) <- next(I), p(X, C), least(C, I).",
        )
        .unwrap();
        assert_eq!(classify(&p).class, ProgramClass::StageStratified { alternating: true });
    }

    #[test]
    fn huffman_without_subtree_guards_is_stage_stratified() {
        let p = parse_program(
            "h(X, C, 0) <- letter(X, C).
             h(t(X, Y), C, I) <- next(I), feasible(t(X, Y), C, J), J < I, least(C),
                                 choice(X, I), choice(Y, I).
             feasible(t(X, Y), C, I) <- h(X, C1, J), h(Y, C2, K),
                                        I = max(J, K), X != Y, C = C1 + C2.",
        )
        .unwrap();
        let a = classify(&p);
        assert_eq!(a.class, ProgramClass::StageStratified { alternating: true });
    }

    #[test]
    fn the_papers_least_underscore_warning_is_caught() {
        // least(C, G) with G a non-stage variable: "the stage-
        // stratification is lost" (Section 4).
        let p = parse_program(
            "prm(nil, a, 0, 0).
             prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, least(C, X), choice(Y, X).
             new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
        )
        .unwrap();
        let a = classify(&p);
        assert!(matches!(a.class, ProgramClass::NotStageStratified { .. }), "{:?}", a.class);
    }

    #[test]
    fn missing_stage_guard_fails_strictness() {
        // No J < I guard: the body stage variable is unconstrained.
        let p = parse_program(
            "prm(nil, a, 0, 0).
             prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), least(C, I), choice(Y, X).
             new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
        )
        .unwrap();
        assert!(matches!(classify(&p).class, ProgramClass::NotStageStratified { .. }));
    }

    #[test]
    fn kruskal_is_rejected_like_the_paper_says() {
        let p = parse_program(
            "kruskal(X, Y, C, I) <- next(I), g(X, Y, C), last_comp(X, J, I1),
                                    last_comp(Y, K, I1), J != K, I1 < I, least(C).
             last_comp(X, J, I) <- comp(X, J, I), most(I, X).
             comp(X, K, 0) <- comp0(X, K).
             comp(X, K, I) <- kruskal(A, B, C, I), last_comp(A, J, I1),
                              last_comp(B, K, I2), last_comp(X, J, I1).
             comp0(nil, 0).
             comp0(X, K) <- next(K), node(X).",
        )
        .unwrap();
        assert!(matches!(classify(&p).class, ProgramClass::NotStageStratified { .. }));
    }

    #[test]
    fn spanning_tree_without_next_is_choice_class() {
        let p = parse_program(
            "st(nil, a, 0).
             st(X, Y, C) <- st(_, X, _), g(X, Y, C), Y != a, choice(Y, (X, C)).",
        )
        .unwrap();
        assert_eq!(classify(&p).class, ProgramClass::Choice);
    }

    #[test]
    fn plain_programs_classify_as_horn_or_stratified() {
        let horn = parse_program("tc(X, Y) <- e(X, Y). tc(X, Z) <- tc(X, Y), e(Y, Z).").unwrap();
        assert_eq!(classify(&horn).class, ProgramClass::Horn);

        let strat = parse_program(
            "reach(X) <- src(X). reach(Y) <- reach(X), e(X, Y).
             un(X) <- node(X), not reach(X).",
        )
        .unwrap();
        assert_eq!(classify(&strat).class, ProgramClass::Stratified);

        let unstrat = parse_program("win(X) <- move(X, Y), not win(Y).").unwrap();
        assert!(matches!(classify(&unstrat).class, ProgramClass::Unstratified { .. }));
    }

    #[test]
    fn tsp_chain_is_stage_stratified() {
        let p = parse_program(
            "tsp_chain(X, Y, C, 1) <- least_arcs(X, Y, C), choice((), (X, Y)).
             tsp_chain(X, Y, C, I) <- next(I), new_g(X, Y, C, J), I = J + 1,
                                      least(C, I), choice(Y, X).
             new_g(X, Y, C, J) <- tsp_chain(_, X, _, J), g(X, Y, C).
             least_arcs(X, Y, C) <- g(X, Y, C), least(C).",
        )
        .unwrap();
        let a = classify(&p);
        assert_eq!(a.class, ProgramClass::StageStratified { alternating: true });
        let clique = a.cliques.iter().find(|c| c.is_stage_clique).unwrap();
        // The stage-0 rule is an exit rule (no clique predicate in its body).
        assert_eq!(clique.exit_rules.len(), 1);
    }

    #[test]
    fn matching_is_stage_stratified() {
        let p = parse_program(
            "matching(nil, nil, 0, 0).
             matching(X, Y, C, I) <- next(I), g(X, Y, C), least(C, I),
                                     choice(Y, X), choice(X, Y).",
        )
        .unwrap();
        assert_eq!(classify(&p).class, ProgramClass::StageStratified { alternating: true });
    }
}
