//! `rulecheck` — static analysis over parsed rule programs.
//!
//! Rewrite rules are the one hand-written artifact of every update, and
//! a wrong rule either masks a real divergence or turns a correct update
//! into a spurious rollback. This pass finds the statically decidable
//! mistakes *before* the follower is forked:
//!
//! * scope/binding — unbound variables, unused binders, duplicate rule
//!   names, non-linear binder notes (`RC01xx`);
//! * event schema — unknown events and arity/type mismatches against a
//!   declared signature table (`RC02xx`);
//! * builtin calls — unknown functions and arity mismatches against a
//!   [`Builtins`] signature view (`RC03xx`);
//! * abstract evaluation / constant folding over [`Value`] kinds — type
//!   errors, literal division by zero, always-false guards (dead rule),
//!   always-true guards (`RC04xx`);
//! * first-match reachability — an earlier guard-free rule whose
//!   pattern sequence subsumes a later rule's makes the later rule
//!   unreachable (`RC05xx`).
//!
//! The abstract evaluator has no operator semantics of its own: it folds
//! known operands by calling the runtime's operator functions, so a
//! folded value or error is the one replay would see. Only where an
//! operand is unknown does it check kinds. `&&`/`||` short-circuit
//! before the right-hand side is touched, so `false && 1/0 == 0` is as
//! error-free here as it is at replay time.

use std::collections::{HashMap, HashSet};

use crate::ast::{BinOp, Expr, LetLhs, PatArg, Pattern, Program, RuleDef, Template, UnOp};
use crate::diag::{Diagnostic, Diagnostics, Span};
use crate::error::DslError;
use crate::eval::{apply_binary, apply_unary, index_value, Builtins};
use crate::parser::parse_program;
use crate::value::{Kind, Value};

// ---------------------------------------------------------------------
// Event signatures
// ---------------------------------------------------------------------

/// Declared kind of one event argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArgKind {
    Int,
    Str,
    List,
    /// Unconstrained.
    Any,
}

impl ArgKind {
    /// The value kind this declares, if constrained.
    fn kind(self) -> Option<Kind> {
        match self {
            ArgKind::Int => Some(Kind::Int),
            ArgKind::Str => Some(Kind::Str),
            ArgKind::List => Some(Kind::List),
            ArgKind::Any => None,
        }
    }

    fn name(self) -> &'static str {
        self.kind().map_or("any", Kind::name)
    }

    fn admits(self, actual: Kind) -> bool {
        self.kind().is_none_or(|k| k == actual)
    }
}

/// Declared signature of one event: name plus per-argument kinds.
///
/// The MVE layer exports the syscall event vocabulary as a table of
/// these (`mve::event_signatures()`); patterns and templates are checked
/// against it when the analysis context carries one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventSig {
    pub name: String,
    pub args: Vec<ArgKind>,
}

impl EventSig {
    pub fn new(name: &str, args: &[ArgKind]) -> Self {
        EventSig {
            name: name.to_string(),
            args: args.to_vec(),
        }
    }

    pub fn arity(&self) -> usize {
        self.args.len()
    }
}

/// What the analyzer may check a program against. Either table is
/// optional: without event signatures the event-schema pass is skipped,
/// without builtins the call pass is skipped.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalysisContext<'a> {
    pub events: Option<&'a [EventSig]>,
    pub builtins: Option<&'a Builtins>,
}

impl<'a> AnalysisContext<'a> {
    pub fn new() -> Self {
        AnalysisContext::default()
    }

    pub fn with_events(mut self, events: &'a [EventSig]) -> Self {
        self.events = Some(events);
        self
    }

    pub fn with_builtins(mut self, builtins: &'a Builtins) -> Self {
        self.builtins = Some(builtins);
        self
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Promotes a lex/parse/duplicate-name [`DslError`] into diagnostic form.
pub fn parse_diagnostic(e: &DslError) -> Diagnostic {
    let mut d = Diagnostic::error("RC0001", e.message());
    if let (Some(l), Some(c)) = (e.line(), e.col()) {
        d = d.at(Span::new(l, c));
    }
    if let Some(r) = e.rule() {
        d = d.in_rule(r);
    }
    d
}

/// Parses and analyzes `src`. A parse failure yields a single `RC0001`
/// error; otherwise the full analysis runs.
pub fn check_source(src: &str, ctx: &AnalysisContext<'_>) -> Diagnostics {
    match parse_program(src) {
        Ok(program) => analyze_program(&program, ctx),
        Err(e) => {
            let mut ds = Diagnostics::new();
            ds.push(parse_diagnostic(&e));
            ds
        }
    }
}

/// Runs every analysis over a parsed program.
pub fn analyze_program(program: &Program, ctx: &AnalysisContext<'_>) -> Diagnostics {
    let mut a = Analyzer {
        ctx,
        diags: Diagnostics::new(),
    };
    a.duplicate_names(program);
    for rule in &program.rules {
        a.check_rule(rule);
    }
    a.reachability(program);
    a.diags
}

// ---------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------

/// Abstract value: a known constant, a known kind, or anything.
#[derive(Clone, Debug, PartialEq)]
enum Abs {
    Known(Value),
    Kind(Kind),
    Any,
}

impl Abs {
    fn kind(&self) -> Option<Kind> {
        match self {
            Abs::Known(v) => Some(v.kind()),
            Abs::Kind(k) => Some(*k),
            Abs::Any => None,
        }
    }

    fn known(&self) -> Option<&Value> {
        match self {
            Abs::Known(v) => Some(v),
            _ => None,
        }
    }

    /// `Some(b)` when this is a known boolean.
    fn truth(&self) -> Option<bool> {
        match self {
            Abs::Known(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

/// The values of `vals` when every one is known.
fn all_known(vals: &[Abs]) -> Option<Vec<Value>> {
    vals.iter().map(|v| v.known().cloned()).collect()
}

// ---------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------

struct Analyzer<'a> {
    ctx: &'a AnalysisContext<'a>,
    diags: Diagnostics,
}

/// Per-rule evaluation state: the abstract environment plus usage
/// tracking for the unused-binder lint.
struct Scope {
    vars: HashMap<String, Abs>,
    used: HashSet<String>,
    /// Names bound by guard `let`s (not visible in templates).
    let_bound: HashSet<String>,
}

impl Scope {
    fn new() -> Self {
        Scope {
            vars: HashMap::new(),
            used: HashSet::new(),
            let_bound: HashSet::new(),
        }
    }
}

impl<'a> Analyzer<'a> {
    fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    // -- program-level ------------------------------------------------

    fn duplicate_names(&mut self, program: &Program) {
        let mut first: HashMap<&str, Span> = HashMap::new();
        for rule in &program.rules {
            match first.get(rule.name.as_str()) {
                Some(prev) => {
                    let d = Diagnostic::error(
                        "RC0103",
                        format!(
                            "duplicate rule name `{}` (first defined at line {}); \
                             first match wins, this definition is dead",
                            rule.name, prev.line
                        ),
                    )
                    .at(rule.span)
                    .in_rule(&rule.name);
                    self.push(d);
                }
                None => {
                    first.insert(&rule.name, rule.span);
                }
            }
        }
    }

    fn reachability(&mut self, program: &Program) {
        for (j, later) in program.rules.iter().enumerate() {
            for earlier in &program.rules[..j] {
                if earlier.guard.is_some() || earlier.name == later.name {
                    continue;
                }
                if subsumes(&earlier.patterns, &later.patterns) {
                    let d = Diagnostic::error(
                        "RC0501",
                        format!(
                            "rule `{}` is unreachable: every window it matches is \
                             consumed first by rule `{}` (line {})",
                            later.name, earlier.name, earlier.span.line
                        ),
                    )
                    .at(later.span)
                    .in_rule(&later.name);
                    self.push(d);
                    break; // one subsumer is enough
                }
                if later.guard.is_none() && overlaps(&earlier.patterns, &later.patterns) {
                    let d = Diagnostic::warning(
                        "RC0502",
                        format!(
                            "rule `{}` overlaps rule `{}` (line {}): windows matched \
                             by both always go to the earlier rule",
                            later.name, earlier.name, earlier.span.line
                        ),
                    )
                    .at(later.span)
                    .in_rule(&later.name);
                    self.push(d);
                }
            }
        }
    }

    // -- rule-level ---------------------------------------------------

    fn check_rule(&mut self, rule: &RuleDef) {
        let mut scope = Scope::new();
        let mut binder_sites: Vec<(String, Span)> = Vec::new();
        let mut binder_counts: HashMap<String, u32> = HashMap::new();

        for pat in &rule.patterns {
            self.check_pattern(rule, pat);
            let sig = self.event_sig(&pat.event);
            for (i, arg) in pat.args.iter().enumerate() {
                let abs = match arg {
                    PatArg::Wildcard => continue,
                    PatArg::Lit(v) => {
                        // Literal pattern args constrain nothing downstream.
                        let _ = v;
                        continue;
                    }
                    PatArg::Bind(name) => {
                        let count = binder_counts.entry(name.clone()).or_insert(0);
                        *count += 1;
                        if *count == 2 {
                            let d = Diagnostic::note(
                                "RC0104",
                                format!(
                                    "binder `{name}` is repeated; occurrences must \
                                     match equal values (non-linear pattern)"
                                ),
                            )
                            .at(pat.span)
                            .in_rule(&rule.name);
                            self.push(d);
                        }
                        if *count == 1 {
                            binder_sites.push((name.clone(), pat.span));
                        }
                        sig.and_then(|s| s.args.get(i)?.kind())
                            .map_or(Abs::Any, Abs::Kind)
                    }
                };
                if let PatArg::Bind(name) = arg {
                    // First binding wins; a repeat only constrains equality.
                    scope.vars.entry(name.clone()).or_insert(abs);
                }
            }
        }

        // The match environment: a guard `let` may shadow a binder, but
        // templates see the binder's value.
        let binders = scope.vars.clone();
        if let Some(guard) = &rule.guard {
            for (lhs, rhs) in &guard.lets {
                let v = self.abs_expr(rhs, rule, &mut scope);
                self.bind_let(lhs, v, &mut scope);
            }
            let verdict = self.abs_expr(&guard.value, rule, &mut scope);
            match verdict.truth() {
                Some(false) => {
                    let d = Diagnostic::warning(
                        "RC0403",
                        format!("guard of rule `{}` is always false; the rule can never fire (dead rule)", rule.name),
                    )
                    .at(rule.span)
                    .in_rule(&rule.name);
                    self.push(d);
                }
                Some(true) => {
                    let d = Diagnostic::note(
                        "RC0404",
                        format!(
                            "guard of rule `{}` is always true; it can be removed",
                            rule.name
                        ),
                    )
                    .at(rule.span)
                    .in_rule(&rule.name);
                    self.push(d);
                }
                None => match verdict.kind() {
                    Some(k) if k != Kind::Bool => self.rule_error(
                        "RC0401",
                        format!("guard evaluates to {}, expected bool", k.name()),
                        rule,
                    ),
                    _ => {}
                },
            }
        }

        // Templates see the match environment only — guard `let`s are
        // not visible there (mirrors the engine).
        scope.vars = binders;
        for t in &rule.templates {
            self.check_template(rule, t, &mut scope);
        }

        // Unused binders: bound once, never read, not `_`-prefixed.
        for (name, span) in &binder_sites {
            if scope.used.contains(name)
                || name.starts_with('_')
                || binder_counts.get(name).copied().unwrap_or(0) > 1
            {
                continue;
            }
            let d = Diagnostic::warning(
                "RC0102",
                format!("binder `{name}` is never used; replace it with `_`"),
            )
            .at(*span)
            .in_rule(&rule.name);
            self.push(d);
        }
        // Unused guard lets.
        let mut unused_lets: Vec<&String> = scope
            .let_bound
            .iter()
            .filter(|n| !scope.used.contains(*n) && !n.starts_with('_'))
            .collect();
        unused_lets.sort();
        for name in unused_lets {
            let d = Diagnostic::warning("RC0102", format!("`let` binding `{name}` is never used"))
                .at(rule.span)
                .in_rule(&rule.name);
            self.push(d);
        }
    }

    fn event_sig(&self, name: &str) -> Option<&'a EventSig> {
        self.ctx
            .events
            .and_then(|t| t.iter().find(|s| s.name == name))
    }

    fn check_pattern(&mut self, rule: &RuleDef, pat: &Pattern) {
        let Some(table) = self.ctx.events else {
            return;
        };
        let Some(sig) = table.iter().find(|s| s.name == pat.event) else {
            let d = Diagnostic::error(
                "RC0201",
                format!("unknown event `{}` in pattern", pat.event),
            )
            .at(pat.span)
            .in_rule(&rule.name);
            self.push(d);
            return;
        };
        if sig.arity() != pat.args.len() {
            let d = Diagnostic::error(
                "RC0202",
                format!(
                    "event `{}` takes {} argument(s), pattern has {}",
                    pat.event,
                    sig.arity(),
                    pat.args.len()
                ),
            )
            .at(pat.span)
            .in_rule(&rule.name);
            self.push(d);
            return;
        }
        for (i, arg) in pat.args.iter().enumerate() {
            if let PatArg::Lit(v) = arg {
                let declared = sig.args[i];
                if !declared.admits(v.kind()) {
                    let d = Diagnostic::error(
                        "RC0203",
                        format!(
                            "literal {} can never match argument {} of `{}` (declared {})",
                            v.type_name(),
                            i,
                            pat.event,
                            declared.name()
                        ),
                    )
                    .at(pat.span)
                    .in_rule(&rule.name);
                    self.push(d);
                }
            }
        }
    }

    fn check_template(&mut self, rule: &RuleDef, t: &Template, scope: &mut Scope) {
        let sig = if let Some(table) = self.ctx.events {
            match table.iter().find(|s| s.name == t.event) {
                Some(sig) => {
                    if sig.arity() != t.args.len() {
                        let d = Diagnostic::error(
                            "RC0202",
                            format!(
                                "event `{}` takes {} argument(s), template has {}",
                                t.event,
                                sig.arity(),
                                t.args.len()
                            ),
                        )
                        .at(t.span)
                        .in_rule(&rule.name);
                        self.push(d);
                        None
                    } else {
                        Some(sig)
                    }
                }
                None => {
                    let d = Diagnostic::error(
                        "RC0201",
                        format!("unknown event `{}` in template", t.event),
                    )
                    .at(t.span)
                    .in_rule(&rule.name);
                    self.push(d);
                    None
                }
            }
        } else {
            None
        };
        for (i, arg) in t.args.iter().enumerate() {
            let v = self.abs_expr(arg, rule, scope);
            if let (Some(sig), Some(k)) = (sig, v.kind()) {
                let declared = sig.args[i];
                if !declared.admits(k) {
                    let d = Diagnostic::warning(
                        "RC0204",
                        format!(
                            "argument {} of `{}` is {}, declared {}",
                            i,
                            t.event,
                            k.name(),
                            declared.name()
                        ),
                    )
                    .at(t.span)
                    .in_rule(&rule.name);
                    self.push(d);
                }
            }
        }
    }

    fn bind_let(&mut self, lhs: &LetLhs, value: Abs, scope: &mut Scope) {
        match lhs {
            LetLhs::Wildcard => {}
            LetLhs::Var(name) => {
                scope.vars.insert(name.clone(), value);
                scope.let_bound.insert(name.clone());
            }
            LetLhs::Tuple(parts) => {
                let items: Vec<Abs> = match &value {
                    Abs::Known(Value::Tuple(items)) | Abs::Known(Value::List(items))
                        if items.len() == parts.len() =>
                    {
                        items.iter().cloned().map(Abs::Known).collect()
                    }
                    _ => vec![Abs::Any; parts.len()],
                };
                for (part, item) in parts.iter().zip(items) {
                    self.bind_let(part, item, scope);
                }
            }
        }
    }

    // -- abstract evaluation ------------------------------------------

    /// An error about the rule as a whole, at its header.
    fn rule_error(&mut self, code: &'static str, message: String, rule: &RuleDef) {
        let d = Diagnostic::error(code, message)
            .at(rule.span)
            .in_rule(&rule.name);
        self.push(d);
    }

    fn abs_expr(&mut self, e: &Expr, rule: &RuleDef, scope: &mut Scope) -> Abs {
        match e {
            Expr::Lit(v) => Abs::Known(v.clone()),
            Expr::Var(name, span) => match scope.vars.get(name) {
                Some(v) => {
                    let v = v.clone();
                    scope.used.insert(name.clone());
                    v
                }
                // Only in a template: the guard's names are in scope
                // throughout the guard.
                None if scope.let_bound.contains(name) => {
                    let d = Diagnostic::error(
                        "RC0101",
                        format!(
                            "variable `{name}` is bound by a guard `let` and is not \
                             visible in templates; only pattern binders are"
                        ),
                    )
                    .at(*span)
                    .in_rule(&rule.name);
                    self.push(d);
                    scope.used.insert(name.clone());
                    Abs::Any
                }
                None => {
                    let d = Diagnostic::error("RC0101", format!("unknown variable `{name}`"))
                        .at(*span)
                        .in_rule(&rule.name);
                    self.push(d);
                    Abs::Any
                }
            },
            Expr::Unary(op, inner) => {
                let v = self.abs_expr(inner, rule, scope);
                if let Some(v) = v.known() {
                    return self.fold(apply_unary(*op, v), rule);
                }
                let (want, what) = match op {
                    UnOp::Not => (Kind::Bool, "`!`"),
                    UnOp::Neg => (Kind::Int, "`-`"),
                };
                self.expect_kind(&v, want, what, rule);
                Abs::Kind(want)
            }
            Expr::Binary(op, l, r) => {
                let lv = self.abs_expr(l, rule, scope);
                // Like the runtime, a deciding lhs never touches the rhs.
                if matches!(op, BinOp::And | BinOp::Or) && lv.truth() == Some(*op == BinOp::Or) {
                    return lv;
                }
                let rv = self.abs_expr(r, rule, scope);
                self.abs_binary(*op, &lv, &rv, rule)
            }
            Expr::Call(name, args, span) => {
                let sig = match self.ctx.builtins {
                    Some(b) => {
                        if !b.contains(name) {
                            let d =
                                Diagnostic::error("RC0301", format!("unknown builtin `{name}`"))
                                    .at(*span)
                                    .in_rule(&rule.name);
                            self.push(d);
                            None
                        } else {
                            let sig = b.signature(name);
                            if let Some(arity) = sig.and_then(|s| s.arity) {
                                if arity != args.len() {
                                    let d = Diagnostic::error(
                                        "RC0302",
                                        format!(
                                            "builtin `{name}` takes {arity} argument(s), \
                                             call has {}",
                                            args.len()
                                        ),
                                    )
                                    .at(*span)
                                    .in_rule(&rule.name);
                                    self.push(d);
                                }
                            }
                            sig
                        }
                    }
                    None => None,
                };
                let vals: Vec<Abs> = args.iter().map(|a| self.abs_expr(a, rule, scope)).collect();
                // Fold pure stdlib calls over fully known arguments by
                // running the real implementation.
                if let (Some(sig), Some(b), Some(known)) =
                    (sig, self.ctx.builtins, all_known(&vals))
                {
                    if sig.pure && sig.arity == Some(args.len()) {
                        if let Some(f) = b.get(name) {
                            match f(&known) {
                                Ok(v) => return Abs::Known(v),
                                Err(msg) => {
                                    let d = Diagnostic::error(
                                        "RC0401",
                                        format!("call to `{name}` always fails: {msg}"),
                                    )
                                    .at(*span)
                                    .in_rule(&rule.name);
                                    self.push(d);
                                    return Abs::Any;
                                }
                            }
                        }
                    }
                }
                Abs::Any
            }
            Expr::Index(base, index) => {
                let b = self.abs_expr(base, rule, scope);
                let i = self.abs_expr(index, rule, scope);
                if let (Some(b), Some(i)) = (b.known(), i.known()) {
                    return self.fold(index_value(b, i), rule);
                }
                self.expect_kind(&i, Kind::Int, "`[]`", rule);
                Abs::Any
            }
            Expr::Tuple(items) => {
                let vals: Vec<Abs> = items
                    .iter()
                    .map(|i| self.abs_expr(i, rule, scope))
                    .collect();
                all_known(&vals).map_or(Abs::Kind(Kind::Tuple), |v| Abs::Known(Value::Tuple(v)))
            }
            Expr::List(items) => {
                let vals: Vec<Abs> = items
                    .iter()
                    .map(|i| self.abs_expr(i, rule, scope))
                    .collect();
                all_known(&vals).map_or(Abs::Kind(Kind::List), |v| Abs::Known(Value::List(v)))
            }
        }
    }

    /// A folded operator: its value, or RC0401 with the runtime's error.
    fn fold(&mut self, result: Result<Value, DslError>, rule: &RuleDef) -> Abs {
        match result {
            Ok(v) => Abs::Known(v),
            Err(e) => {
                self.rule_error("RC0401", e.message().to_string(), rule);
                Abs::Any
            }
        }
    }

    fn expect_kind(&mut self, v: &Abs, want: Kind, what: &str, rule: &RuleDef) {
        match v.kind() {
            Some(k) if k != want => self.rule_error(
                "RC0401",
                format!(
                    "operand of {what} must be {}, got {}",
                    want.name(),
                    k.name()
                ),
                rule,
            ),
            _ => {}
        }
    }

    /// A binary operator whose lhs did not decide it alone. Known
    /// operands fold through the runtime's [`apply_binary`]; otherwise
    /// only the operand kinds the runtime rejects are checked.
    fn abs_binary(&mut self, op: BinOp, l: &Abs, r: &Abs, rule: &RuleDef) -> Abs {
        if matches!(op, BinOp::Div | BinOp::Rem) && r.known() == Some(&Value::Int(0)) {
            let what = if op == BinOp::Div {
                "division"
            } else {
                "remainder"
            };
            self.rule_error("RC0402", format!("{what} by zero"), rule);
            return Abs::Any;
        }
        if let (Some(a), Some(b)) = (l.known(), r.known()) {
            return self.fold(apply_binary(op, a, b), rule);
        }
        let (want, what) = match op {
            BinOp::Eq | BinOp::Ne => return Abs::Kind(Kind::Bool),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                match (l.kind(), r.kind()) {
                    (Some(a), Some(b))
                        if !matches!((a, b), (Kind::Int, Kind::Int) | (Kind::Str, Kind::Str)) =>
                    {
                        let msg = format!("cannot order {} against {}", a.name(), b.name());
                        self.rule_error("RC0401", msg, rule);
                    }
                    _ => {}
                }
                return Abs::Kind(Kind::Bool);
            }
            BinOp::Add => {
                return match (l.kind(), r.kind()) {
                    (Some(Kind::Str), _) | (_, Some(Kind::Str)) => Abs::Kind(Kind::Str),
                    (Some(a), Some(b)) if a == b && matches!(a, Kind::Int | Kind::List) => {
                        Abs::Kind(a)
                    }
                    (Some(a), Some(b)) => {
                        let msg = format!("cannot add {} and {}", a.name(), b.name());
                        self.rule_error("RC0401", msg, rule);
                        Abs::Any
                    }
                    _ => Abs::Any,
                };
            }
            BinOp::And => (Kind::Bool, "`&&`"),
            BinOp::Or => (Kind::Bool, "`||`"),
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => (Kind::Int, "arithmetic"),
        };
        self.expect_kind(l, want, what, rule);
        self.expect_kind(r, want, what, rule);
        Abs::Kind(want)
    }
}

// ---------------------------------------------------------------------
// Reachability helpers
// ---------------------------------------------------------------------

/// True when every window completing `later`'s pattern sequence is
/// already claimed by `earlier` (which is guard-free at the call site).
///
/// `earlier` must be no longer than `later` and each of its patterns
/// must subsume the corresponding one; a rule with a repeated binder
/// never subsumes (the equality constraint narrows its match set in
/// ways we don't track).
fn subsumes(earlier: &[Pattern], later: &[Pattern]) -> bool {
    if earlier.len() > later.len() || has_repeated_binder(earlier) {
        return false;
    }
    earlier
        .iter()
        .zip(later)
        .all(|(e, l)| pattern_subsumes(e, l))
}

fn pattern_subsumes(e: &Pattern, l: &Pattern) -> bool {
    e.event == l.event
        && e.args.len() == l.args.len()
        && e.args.iter().zip(&l.args).all(|(ea, la)| match ea {
            PatArg::Wildcard | PatArg::Bind(_) => true,
            PatArg::Lit(ev) => matches!(la, PatArg::Lit(lv) if ev == lv),
        })
}

/// True when some window can complete both sequences (so the earlier
/// rule wins it), without the earlier sequence subsuming the later.
fn overlaps(earlier: &[Pattern], later: &[Pattern]) -> bool {
    if earlier.len() > later.len() {
        return false;
    }
    earlier.iter().zip(later).all(|(e, l)| {
        e.event == l.event
            && e.args.len() == l.args.len()
            && e.args.iter().zip(&l.args).all(|(ea, la)| match (ea, la) {
                (PatArg::Lit(ev), PatArg::Lit(lv)) => ev == lv,
                _ => true,
            })
    })
}

fn has_repeated_binder(patterns: &[Pattern]) -> bool {
    let mut seen = HashSet::new();
    for p in patterns {
        for a in &p.args {
            if let PatArg::Bind(name) = a {
                if !seen.insert(name.as_str()) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn sigs() -> Vec<EventSig> {
        vec![
            EventSig::new("read", &[ArgKind::Int, ArgKind::Str, ArgKind::Int]),
            EventSig::new("write", &[ArgKind::Int, ArgKind::Str, ArgKind::Int]),
            EventSig::new("now", &[ArgKind::Int]),
        ]
    }

    fn check(src: &str) -> Diagnostics {
        let events = sigs();
        let builtins = Builtins::standard();
        let ctx = AnalysisContext::new()
            .with_events(&events)
            .with_builtins(&builtins);
        check_source(src, &ctx)
    }

    /// The single diagnostic with `code`, asserting it exists.
    fn only(ds: &Diagnostics, code: &str) -> Diagnostic {
        let hits: Vec<_> = ds.iter().filter(|d| d.code == code).cloned().collect();
        assert_eq!(hits.len(), 1, "expected one {code}, got: {ds}");
        hits.into_iter().next().unwrap()
    }

    #[test]
    fn clean_rule_has_no_diagnostics() {
        let ds = check("rule ok { on read(fd, s, n) when len(s) > 0 => write(fd, s, n) }");
        assert!(ds.is_empty(), "{ds}");
    }

    #[test]
    fn rc0001_parse_error() {
        let ds = check("rule broken {");
        let d = only(&ds, "RC0001");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.span.is_some());
    }

    #[test]
    fn rc0101_unbound_variable_in_guard() {
        let ds = check("rule r { on read(fd, s, n) when missing > 0 => write(fd, s, n) }");
        let d = only(&ds, "RC0101");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(1, 33));
        assert_eq!(d.rule.as_deref(), Some("r"));
    }

    #[test]
    fn rc0101_guard_let_not_visible_in_template() {
        let ds =
            check("rule r { on read(fd, s, n) when { let m = len(s); m > 0 } => write(fd, s, m) }");
        let d = only(&ds, "RC0101");
        assert!(d.message.contains("guard `let`"), "{}", d.message);
        assert_eq!(d.span.unwrap(), Span::new(1, 75));
    }

    #[test]
    fn a_template_name_shadowed_by_a_guard_let_is_the_binder() {
        // The engine instantiates templates in the match environment.
        let ds = check(
            "rule shadow { on read(fd, s, n) when { let n = len(s); n > 0 } => write(fd, s, n) }",
        );
        assert!(ds.is_empty(), "{ds}");
    }

    #[test]
    fn rc0102_unused_binder() {
        let ds = check("rule r { on read(fd, s, n) => write(fd, s, 1) }");
        let d = only(&ds, "RC0102");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains('n'));
        assert_eq!(d.span.unwrap(), Span::new(1, 13));
    }

    #[test]
    fn rc0102_underscore_prefix_suppresses() {
        let ds = check("rule r { on read(fd, s, _n) => write(fd, s, 1) }");
        assert!(ds.is_empty(), "{ds}");
    }

    #[test]
    fn rc0102_unused_let() {
        let ds = check("rule r { on read(fd, s, n) when { let m = n; true } => write(fd, s, n) }");
        let d = only(&ds, "RC0102");
        assert!(d.message.contains("`let` binding `m`"));
        // RC0404 for the always-true guard also fires.
        only(&ds, "RC0404");
    }

    #[test]
    fn rc0103_duplicate_rule_name() {
        let ds = check(
            "rule r { on read(fd, s, n) when n > 0 => write(fd, s, n) }\n\
             rule r { on now(t) => now(t) }",
        );
        let d = only(&ds, "RC0103");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(2, 6));
    }

    #[test]
    fn rc0104_non_linear_binder_note() {
        let ds = check(
            "rule r { on read(fd, s, n), write(fd, s2, m) when n > 0 && m > 0 && len(s) > 0 && len(s2) > 0 => write(fd, s, n) }",
        );
        let d = only(&ds, "RC0104");
        assert_eq!(d.severity, Severity::Note);
        assert_eq!(d.span.unwrap(), Span::new(1, 29));
    }

    #[test]
    fn rc0201_unknown_event() {
        let ds = check("rule r { on frobnicate(x) when x > 0 => now(x) }");
        let d = only(&ds, "RC0201");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(1, 13));
    }

    #[test]
    fn rc0201_unknown_event_in_template() {
        let ds = check("rule r { on now(t) when t > 0 => frobnicate(t) }");
        let d = only(&ds, "RC0201");
        assert!(d.message.contains("template"));
        assert_eq!(d.span.unwrap(), Span::new(1, 34));
    }

    #[test]
    fn rc0202_arity_mismatch() {
        let ds = check("rule r { on read(fd, s) when len(s) > 0 => write(fd, s, 0) }");
        let d = only(&ds, "RC0202");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(1, 13));
    }

    #[test]
    fn rc0203_impossible_literal() {
        let ds = check("rule r { on read(fd, 42, n) when n > 0 => write(fd, \"x\", n) }");
        let d = only(&ds, "RC0203");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(1, 13));
    }

    #[test]
    fn rc0204_template_type_mismatch() {
        let ds = check("rule r { on read(fd, s, n) when n > 0 => write(fd, s, s) }");
        let d = only(&ds, "RC0204");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.unwrap(), Span::new(1, 42));
    }

    #[test]
    fn rc0301_unknown_builtin() {
        let ds = check("rule r { on read(fd, s, n) when frob(s) => write(fd, s, n) }");
        let d = only(&ds, "RC0301");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(1, 33));
    }

    #[test]
    fn rc0302_builtin_arity_mismatch() {
        let ds = check("rule r { on read(fd, s, n) when len(s, n) == 1 => write(fd, s, n) }");
        let d = only(&ds, "RC0302");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(1, 33));
    }

    #[test]
    fn rc0401_guard_type_error() {
        let ds = check("rule r { on read(fd, s, n) when s + n > 0 => write(fd, s, n) }");
        // `s + n` coerces to str (string concatenation), then `> 0`
        // orders str against int: a type error.
        let d = only(&ds, "RC0401");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(1, 6));
    }

    #[test]
    fn rc0402_literal_division_by_zero() {
        let ds = check("rule r { on read(fd, s, n) when n / 0 > 1 => write(fd, s, n) }");
        let d = only(&ds, "RC0402");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(1, 6));
    }

    #[test]
    fn rc0401_constant_overflow_is_an_error_not_a_panic() {
        for guard in [
            "(0 - 9223372036854775807 - 1) / -1 == 0",
            "(0 - 9223372036854775807 - 1) % -1 == 0",
            "-(0 - 9223372036854775807 - 1) == 0",
        ] {
            let ds = check(&format!(
                "rule r {{ on read(_, _, _) when {guard} => nothing }}"
            ));
            let d = only(&ds, "RC0401");
            assert!(d.message.contains("overflow"), "{guard}: {ds}");
        }
    }

    #[test]
    fn short_circuit_shields_rhs_like_the_runtime() {
        // The engine never evaluates the rhs of a false `&&`; neither
        // does the analyzer, so no RC0402 here — only the RC0403 that
        // the guard is always false.
        let ds = check("rule r { on read(fd, s, n) => write(fd, s, n) }\n");
        assert!(ds.is_empty(), "{ds}");
        let ds = check("rule r { on read(_, _, _) when false && 1 / 0 == 0 => nothing }");
        assert!(!ds.iter().any(|d| d.code == "RC0402"), "{ds}");
        only(&ds, "RC0403");
    }

    #[test]
    fn rc0403_always_false_guard() {
        let ds = check("rule r { on read(fd, s, n) when 1 > 2 => write(fd, s, n) }");
        let d = only(&ds, "RC0403");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.unwrap(), Span::new(1, 6));
    }

    #[test]
    fn rc0404_always_true_guard() {
        let ds = check("rule r { on read(fd, s, n) when len(\"x\") == 1 => write(fd, s, n) }");
        let d = only(&ds, "RC0404");
        assert_eq!(d.severity, Severity::Note);
        assert_eq!(d.span.unwrap(), Span::new(1, 6));
    }

    #[test]
    fn rc0501_unreachable_rule() {
        let ds = check(
            "rule catchall { on read(fd, s, n) => read(fd, s, n) }\n\
             rule specific { on read(fd, \"QUIT\", n) when n > 0 => read(fd, s, n) }",
        );
        let d = only(&ds, "RC0501");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.unwrap(), Span::new(2, 6));
        assert!(d.message.contains("catchall"));
    }

    #[test]
    fn rc0502_overlapping_rules() {
        let ds = check(
            "rule first { on read(fd, \"QUIT\", n) => read(fd, \"QUIT\", n) }\n\
             rule second { on read(fd, s, n) => read(fd, s, n) }",
        );
        let d = only(&ds, "RC0502");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.unwrap(), Span::new(2, 6));
    }

    #[test]
    fn guarded_earlier_rule_does_not_shadow() {
        let ds = check(
            "rule first { on read(fd, s, n) when starts_with(s, \"A\") => read(fd, s, n) }\n\
             rule second { on read(fd, s, n) => read(fd, s, n) }",
        );
        assert!(
            !ds.iter().any(|d| d.code == "RC0501" || d.code == "RC0502"),
            "{ds}"
        );
    }

    #[test]
    fn repeated_binder_never_subsumes() {
        // `read(fd), write(fd)` with a shared binder matches fewer
        // windows than the patterns alone suggest; no RC0501.
        let ds = check(
            "rule tied { on read(fd, s, n), write(fd, s2, m) => nothing }\n\
             rule loose { on read(a, b, c), write(d, e, f) => nothing }",
        );
        assert!(!ds.iter().any(|d| d.code == "RC0501"), "{ds}");
    }

    #[test]
    fn skips_event_and_builtin_checks_without_tables() {
        let ctx = AnalysisContext::new();
        let ds = check_source(
            "rule r { on anything(x) when magic(x) => whatever(x) }",
            &ctx,
        );
        assert!(ds.is_empty(), "{ds}");
    }

    #[test]
    fn nothing_template_is_fine() {
        // `nothing` parses to zero templates; binders must still be used.
        let ds = check("rule drop { on now(_) => nothing }");
        assert!(ds.is_empty(), "{ds}");
    }
}
