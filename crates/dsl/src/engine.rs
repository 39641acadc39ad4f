use crate::ast::{Expr, PatArg, Pattern, Program, RuleDef, Template};
use crate::error::DslError;
use crate::eval::{eval_block, eval_expr, Builtins, Env};
use crate::event::Event;
use crate::parser::parse_program;

/// The result of applying a rule set to the front of an event window.
#[derive(Clone, Debug, PartialEq)]
pub struct RuleOutcome {
    /// How many input events were consumed.
    pub consumed: usize,
    /// The replacement events (identical to the input when no rule
    /// fired).
    pub emitted: Vec<Event>,
    /// Name of the rule that fired, if any.
    pub rule: Option<String>,
}

impl RuleOutcome {
    /// One-line summary for logs and flight-recorder events, e.g.
    /// `rule 'coalesce_writes': 2 -> 1` or `passthrough: 1 -> 1`.
    pub fn describe(&self) -> String {
        match &self.rule {
            Some(rule) => format!(
                "rule '{}': {} -> {}",
                rule,
                self.consumed,
                self.emitted.len()
            ),
            None => format!("passthrough: {} -> {}", self.consumed, self.emitted.len()),
        }
    }
}

/// A window of leader events as the engine reads it. Every match
/// attempt needs names and arities; only a rule that tests or computes
/// argument values needs a whole [`Event`], so an implementation may
/// build events lazily and skip the ones no rule asks for.
pub trait EventWindow {
    /// Number of events in the window.
    fn len(&self) -> usize;

    /// True when the window holds no events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Name of the event at `index`.
    fn name(&self, index: usize) -> &str;

    /// Argument count of the event at `index`.
    fn arity(&self, index: usize) -> usize;

    /// The whole event at `index`.
    fn event(&self, index: usize) -> &Event;
}

impl EventWindow for [Event] {
    fn len(&self) -> usize {
        <[Event]>::len(self)
    }

    fn name(&self, index: usize) -> &str {
        &self[index].name
    }

    fn arity(&self, index: usize) -> usize {
        self[index].args.len()
    }

    fn event(&self, index: usize) -> &Event {
        &self[index]
    }
}

/// One event a fired rule emits.
#[derive(Clone, Debug, PartialEq)]
pub enum Emit {
    /// The template copies the window event at this index verbatim, so
    /// the caller may hand on what that event came from, errno included.
    Copy(usize),
    /// A computed event. Templates cannot name an errno, so it has none.
    Event(Event),
}

/// A rule that fired at the front of a window.
#[derive(Clone, Debug, PartialEq)]
pub struct Rewrite<'r> {
    /// Name of the rule.
    pub rule: &'r str,
    /// How many window events it consumed.
    pub consumed: usize,
    /// What it emits in their place.
    pub emitted: Vec<Emit>,
}

/// A rule plus what the engine needs to know about it before matching.
#[derive(Clone, Debug)]
struct Compiled {
    def: RuleDef,
    /// A pattern has a literal or a repeated binder: matching compares
    /// argument values, not just names and arities.
    tests_values: bool,
    /// Per template, the pattern it copies verbatim, if any.
    copies: Vec<Option<usize>>,
    /// Firing needs argument values: `tests_values`, a guard, or a
    /// template that computes its event.
    needs_values: bool,
}

impl Compiled {
    fn new(def: RuleDef) -> Self {
        let mut binders = std::collections::HashSet::new();
        let tests_values = def.patterns.iter().flat_map(|p| &p.args).any(|a| match a {
            PatArg::Lit(_) => true,
            PatArg::Bind(name) => !binders.insert(name.as_str()),
            PatArg::Wildcard => false,
        });
        let copies: Vec<Option<usize>> = def
            .templates
            .iter()
            .map(|t| copied_pattern(t, &def.patterns))
            .collect();
        let needs_values = tests_values || def.guard.is_some() || copies.contains(&None);
        Compiled {
            def,
            tests_values,
            copies,
            needs_values,
        }
    }
}

/// The pattern `t` reproduces argument for argument, if any: same event,
/// and each argument the binder of the same position. A successful match
/// makes such a template equal to the matched event.
fn copied_pattern(t: &Template, patterns: &[Pattern]) -> Option<usize> {
    patterns.iter().position(|p| {
        p.event == t.event
            && p.args.len() == t.args.len()
            && p.args
                .iter()
                .zip(&t.args)
                .all(|(pa, ta)| matches!((pa, ta), (PatArg::Bind(b), Expr::Var(v, _)) if b == v))
    })
}

/// A compiled, ordered set of rewrite rules.
///
/// The engine transforms the *leader's* event stream into the stream the
/// *follower* is expected to produce (paper §3.3: during the
/// outdated-leader stage, rules force the new version to adhere to the
/// old version's behavior; during the updated-leader stage, a reverse
/// rule set does the opposite).
///
/// Application is greedy and ordered: the first rule whose pattern
/// sequence matches the front of the window — and whose guard holds —
/// fires. When none fires, the front event passes through unchanged.
#[derive(Clone, Debug)]
pub struct RuleSet {
    rules: Vec<Compiled>,
}

impl RuleSet {
    /// An empty rule set (identity transformation).
    pub fn empty() -> Self {
        RuleSet { rules: Vec::new() }
    }

    /// Parses rule source text.
    ///
    /// # Errors
    /// Propagates lexer/parser failures and rejects duplicate rule names.
    pub fn parse(src: &str) -> Result<Self, DslError> {
        Self::from_program(parse_program(src)?)
    }

    /// Wraps an already-parsed program.
    ///
    /// # Errors
    /// Rejects duplicate rule names: under first-match-wins the second
    /// definition is dead weight, which is always a mistake.
    pub fn from_program(program: Program) -> Result<Self, DslError> {
        let mut first: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        for rule in &program.rules {
            match first.get(rule.name.as_str()) {
                Some(prev_line) => {
                    return Err(DslError::at(
                        format!(
                            "duplicate rule name `{}` (first defined at line {prev_line})",
                            rule.name
                        ),
                        rule.span.line,
                        rule.span.col,
                    )
                    .in_rule(&rule.name));
                }
                None => {
                    first.insert(&rule.name, rule.span.line);
                }
            }
        }
        drop(first);
        Ok(RuleSet {
            rules: program.rules.into_iter().map(Compiled::new).collect(),
        })
    }

    /// Number of rules (what the paper's Table 1 counts).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are present.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rule names, in application order.
    pub fn names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.def.name.as_str()).collect()
    }

    /// The longest pattern sequence: how many leader events the engine
    /// needs to peek ahead before it can decide.
    pub fn max_window(&self) -> usize {
        self.rules
            .iter()
            .map(|r| r.def.patterns.len())
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// True when some rule *longer* than the current window matches it as
    /// a prefix (ignoring guards): the caller should wait for more leader
    /// events before deciding, instead of letting a shorter rule or the
    /// identity fire prematurely.
    /// A rule whose patterns test no values (no literal, no repeated
    /// binder) decides this from names and arities alone, without
    /// reading a whole event.
    pub fn could_extend<W: EventWindow + ?Sized>(&self, window: &W) -> bool {
        let len = window.len();
        len > 0
            && self.rules.iter().any(|rule| {
                let patterns = &rule.def.patterns;
                patterns.len() > len
                    && shape_matches(&patterns[..len], window, 0)
                    && (!rule.tests_values || bind(&patterns[..len], window, 0).is_some())
            })
    }

    /// Applies the first matching rule to the front of `window`.
    ///
    /// `window` should hold at least [`RuleSet::max_window`] events when
    /// that many are available; a shorter window simply can't match the
    /// longer rules (correct at end-of-stream). A template that copies a
    /// pattern verbatim emits the matched event itself, errno included.
    ///
    /// # Errors
    /// Guard or template evaluation failures (update-spec bugs — the MVE
    /// layer treats them as divergences). An empty window is an error.
    pub fn apply(&self, window: &[Event], builtins: &Builtins) -> Result<RuleOutcome, DslError> {
        Ok(match self.rewrite(window, 0, builtins)? {
            Some(rewrite) => RuleOutcome {
                consumed: rewrite.consumed,
                emitted: rewrite
                    .emitted
                    .into_iter()
                    .map(|emit| match emit {
                        Emit::Copy(index) => window[index].clone(),
                        Emit::Event(event) => event,
                    })
                    .collect(),
                rule: Some(rewrite.rule.to_string()),
            },
            None => RuleOutcome {
                consumed: 1,
                emitted: vec![window[0].clone()],
                rule: None,
            },
        })
    }

    /// [`RuleSet::apply`] at `window[start..]` without building events a
    /// rule does not need: returns the rule that fired, or `None` when
    /// the event at `start` passes through unchanged. [`Emit::Copy`]
    /// indices count from the start of `window`.
    ///
    /// # Errors
    /// As [`RuleSet::apply`]; `start` past the end is an empty window.
    pub fn rewrite<W: EventWindow + ?Sized>(
        &self,
        window: &W,
        start: usize,
        builtins: &Builtins,
    ) -> Result<Option<Rewrite<'_>>, DslError> {
        if start >= window.len() {
            return Err(DslError::new("cannot apply rules to an empty window"));
        }
        for rule in &self.rules {
            let def = &rule.def;
            if def.patterns.len() > window.len() - start
                || !shape_matches(&def.patterns, window, start)
            {
                continue;
            }
            let env = if rule.needs_values {
                let Some(env) = bind(&def.patterns, window, start) else {
                    continue;
                };
                if let Some(guard) = &def.guard {
                    let v = eval_block(guard, &env, builtins).map_err(|e| e.in_rule(&def.name))?;
                    if !v.as_bool().map_err(|e| e.in_rule(&def.name))? {
                        continue;
                    }
                }
                env
            } else {
                Env::new()
            };
            let mut emitted = Vec::with_capacity(def.templates.len());
            for (t, copy) in def.templates.iter().zip(&rule.copies) {
                emitted.push(match copy {
                    Some(pattern) => Emit::Copy(start + pattern),
                    None => Emit::Event(
                        instantiate(t, &env, builtins).map_err(|e| e.in_rule(&def.name))?,
                    ),
                });
            }
            return Ok(Some(Rewrite {
                rule: &def.name,
                consumed: def.patterns.len(),
                emitted,
            }));
        }
        Ok(None)
    }
}

/// Whether `window[start..]` has the patterns' event names and arities.
fn shape_matches<W: EventWindow + ?Sized>(patterns: &[Pattern], window: &W, start: usize) -> bool {
    patterns
        .iter()
        .enumerate()
        .all(|(i, p)| window.name(start + i) == p.event && window.arity(start + i) == p.args.len())
}

/// Matches argument values of `window[start..]` (whose shape already
/// matches) and returns the binders.
fn bind<W: EventWindow + ?Sized>(patterns: &[Pattern], window: &W, start: usize) -> Option<Env> {
    let mut env = Env::new();
    for (i, p) in patterns.iter().enumerate() {
        let e = window.event(start + i);
        for (pa, ev) in p.args.iter().zip(&e.args) {
            match pa {
                PatArg::Wildcard => {}
                PatArg::Lit(lit) => {
                    if lit != ev {
                        return None;
                    }
                }
                PatArg::Bind(name) => match env.get(name) {
                    // Non-linear patterns: a repeated binder must see an
                    // equal value (ties Figure 5's read fd to its write).
                    Some(existing) => {
                        if existing != ev {
                            return None;
                        }
                    }
                    None => env.set(name, ev.clone()),
                },
            }
        }
    }
    Some(env)
}

fn instantiate(t: &Template, env: &Env, builtins: &Builtins) -> Result<Event, DslError> {
    let mut args = Vec::with_capacity(t.args.len());
    for a in &t.args {
        args.push(eval_expr(a, env, builtins)?);
    }
    Ok(Event::new(t.event.clone(), args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn ev(name: &str, args: Vec<Value>) -> Event {
        Event::new(name, args)
    }

    fn kv_builtins() -> Builtins {
        let mut b = Builtins::standard();
        // parse("PUT balance 100")        -> ("PUT", nil, "balance", "100")
        // parse("PUT-number balance 100") -> ("PUT", "number", "balance", "100")
        b.register("parse", |args| {
            let s = match &args[0] {
                Value::Str(s) => s.trim_end(),
                _ => return Err("parse: expected string".into()),
            };
            let mut parts = s.split_whitespace();
            let head = parts.next().unwrap_or("");
            let (cmd, typ) = match head.split_once('-') {
                Some((c, t)) => (c.to_string(), Value::Str(t.to_string())),
                None => (head.to_string(), Value::Nil),
            };
            Ok(Value::Tuple(vec![
                Value::Str(cmd),
                typ,
                parts
                    .next()
                    .map(|p| Value::Str(p.into()))
                    .unwrap_or(Value::Nil),
                parts
                    .next()
                    .map(|p| Value::Str(p.into()))
                    .unwrap_or(Value::Nil),
            ]))
        });
        b
    }

    /// Figure 4, Rule 1: a typed PUT seen by the (old-version) leader is
    /// turned into an invalid command for the (new-version) follower.
    const RULE1: &str = r#"
        rule put_typed_to_bad_cmd {
            on read(fd, s, n)
            when {
                let (cmd, typ, _, _) = parse(s);
                cmd == "PUT" && typ != nil
            }
            => read(fd, "bad-cmd", 7)
        }
    "#;

    /// Figure 4, Rule 2: plain PUT maps to PUT-string (new version
    /// dropped the bare form).
    const RULE2: &str = r#"
        rule put_untyped_to_string {
            on read(fd, s, n)
            when {
                let (cmd, typ, key, val) = parse(s);
                cmd == "PUT" && typ == nil
            }
            => read(fd, "PUT-string " + split(s, " ")[1] + " " + split(s, " ")[2], n + 7)
        }
    "#;

    #[test]
    fn figure4_rule1_rewrites_typed_put() {
        let rules = RuleSet::parse(RULE1).unwrap();
        let b = kv_builtins();
        let input = ev(
            "read",
            vec![
                Value::Int(4),
                Value::Str("PUT-number balance 100".into()),
                Value::Int(22),
            ],
        );
        let out = rules.apply(&[input], &b).unwrap();
        assert_eq!(out.rule.as_deref(), Some("put_typed_to_bad_cmd"));
        assert_eq!(out.consumed, 1);
        assert_eq!(
            out.emitted,
            vec![ev(
                "read",
                vec![Value::Int(4), Value::Str("bad-cmd".into()), Value::Int(7)]
            )]
        );
    }

    #[test]
    fn figure4_rule1_passes_plain_put_through() {
        let rules = RuleSet::parse(RULE1).unwrap();
        let b = kv_builtins();
        let input = ev(
            "read",
            vec![
                Value::Int(4),
                Value::Str("PUT balance 100".into()),
                Value::Int(15),
            ],
        );
        let out = rules.apply(std::slice::from_ref(&input), &b).unwrap();
        assert_eq!(out.rule, None);
        assert_eq!(out.emitted, vec![input]);
    }

    #[test]
    fn figure4_rule2_rewrites_plain_put() {
        let rules = RuleSet::parse(RULE2).unwrap();
        let b = kv_builtins();
        let input = ev(
            "read",
            vec![
                Value::Int(4),
                Value::Str("PUT balance 100".into()),
                Value::Int(15),
            ],
        );
        let out = rules.apply(&[input], &b).unwrap();
        assert_eq!(
            out.emitted[0].args[1],
            Value::Str("PUT-string balance 100".into())
        );
        assert_eq!(out.emitted[0].args[2], Value::Int(22));
    }

    #[test]
    fn figure5_two_event_window() {
        // Vsftpd: any command the leader rejected with 500 maps to a
        // guaranteed-unknown command on the follower.
        let rules = RuleSet::parse(
            r#"
            rule unknown_cmd {
                on read(fd, s, n), write(fd, "500 Unknown command\r\n", m)
                => read(fd, "FOOBAR\r\n", 8), write(fd, "500 Unknown command\r\n", m)
            }
        "#,
        )
        .unwrap();
        assert_eq!(rules.max_window(), 2);
        let b = Builtins::standard();
        let read = ev(
            "read",
            vec![
                Value::Int(7),
                Value::Str("STOU f.txt\r\n".into()),
                Value::Int(12),
            ],
        );
        let write = ev(
            "write",
            vec![
                Value::Int(7),
                Value::Str("500 Unknown command\r\n".into()),
                Value::Int(21),
            ],
        );
        let out = rules.apply(&[read.clone(), write.clone()], &b).unwrap();
        assert_eq!(out.consumed, 2);
        assert_eq!(out.emitted.len(), 2);
        assert_eq!(out.emitted[0].args[1], Value::Str("FOOBAR\r\n".into()));
        assert_eq!(out.emitted[1], write);
    }

    #[test]
    fn nonlinear_binder_requires_equal_fds() {
        let rules = RuleSet::parse(
            r#"
            rule same_fd {
                on a(fd), b(fd)
                => c(fd)
            }
        "#,
        )
        .unwrap();
        let b = Builtins::standard();
        // Different fds: no match, identity on the first event.
        let out = rules
            .apply(
                &[ev("a", vec![Value::Int(1)]), ev("b", vec![Value::Int(2)])],
                &b,
            )
            .unwrap();
        assert_eq!(out.rule, None);
        assert_eq!(out.consumed, 1);
        // Equal fds: rule fires.
        let out = rules
            .apply(
                &[ev("a", vec![Value::Int(1)]), ev("b", vec![Value::Int(1)])],
                &b,
            )
            .unwrap();
        assert_eq!(out.rule.as_deref(), Some("same_fd"));
        assert_eq!(out.emitted, vec![ev("c", vec![Value::Int(1)])]);
    }

    #[test]
    fn short_window_cannot_match_long_rule() {
        let rules = RuleSet::parse("rule two { on a(), b() => nothing }").unwrap();
        let b = Builtins::standard();
        let out = rules.apply(&[ev("a", vec![])], &b).unwrap();
        assert_eq!(out.rule, None, "window too short, identity applies");
    }

    #[test]
    fn could_extend_detects_longer_prefix_matches() {
        let rules = RuleSet::parse(
            r#"
            rule pair { on read(fd, s), write(fd, "500", n) => nothing }
        "#,
        )
        .unwrap();
        let read = ev("read", vec![Value::Int(1), Value::Str("x".into())]);
        assert!(
            rules.could_extend(std::slice::from_ref(&read)),
            "pair could complete"
        );
        let other = ev("close", vec![Value::Int(1)]);
        assert!(
            !rules.could_extend(&[other][..]),
            "no rule starts with close"
        );
        let write = ev(
            "write",
            vec![Value::Int(1), Value::Str("500".into()), Value::Int(3)],
        );
        assert!(
            !rules.could_extend(&[read, write][..]),
            "window already at max length"
        );
        assert!(!rules.could_extend(&[] as &[Event]));
    }

    #[test]
    fn nothing_template_deletes_events() {
        let rules = RuleSet::parse("rule del { on noise() => nothing }").unwrap();
        let out = rules
            .apply(&[ev("noise", vec![])], &Builtins::standard())
            .unwrap();
        assert_eq!(out.consumed, 1);
        assert!(out.emitted.is_empty());
    }

    #[test]
    fn rules_apply_in_order() {
        let rules = RuleSet::parse(
            r#"
            rule first  { on f(x) => g(x) }
            rule second { on f(x) => h(x) }
        "#,
        )
        .unwrap();
        let out = rules
            .apply(&[ev("f", vec![Value::Int(1)])], &Builtins::standard())
            .unwrap();
        assert_eq!(out.rule.as_deref(), Some("first"));
        assert_eq!(rules.names(), vec!["first", "second"]);
    }

    #[test]
    fn guard_failure_falls_through_to_next_rule() {
        let rules = RuleSet::parse(
            r#"
            rule only_big { on f(x) when x > 100 => big(x) }
            rule rest     { on f(x) => small(x) }
        "#,
        )
        .unwrap();
        let out = rules
            .apply(&[ev("f", vec![Value::Int(5)])], &Builtins::standard())
            .unwrap();
        assert_eq!(out.rule.as_deref(), Some("rest"));
    }

    #[test]
    fn arity_mismatch_does_not_match() {
        let rules = RuleSet::parse("rule r { on f(x, y) => g(x) }").unwrap();
        let out = rules
            .apply(&[ev("f", vec![Value::Int(1)])], &Builtins::standard())
            .unwrap();
        assert_eq!(out.rule, None);
    }

    #[test]
    fn literal_pattern_arguments_filter() {
        let rules = RuleSet::parse(r#"rule r { on f("magic", x) => g(x) }"#).unwrap();
        let b = Builtins::standard();
        let hit = rules
            .apply(
                &[ev("f", vec![Value::Str("magic".into()), Value::Int(2)])],
                &b,
            )
            .unwrap();
        assert_eq!(hit.rule.as_deref(), Some("r"));
        let miss = rules
            .apply(
                &[ev("f", vec![Value::Str("other".into()), Value::Int(2)])],
                &b,
            )
            .unwrap();
        assert_eq!(miss.rule, None);
    }

    #[test]
    fn guard_error_is_reported_with_rule_name() {
        let rules = RuleSet::parse("rule broken { on f(x) when x / 0 == 1 => f(x) }").unwrap();
        let err = rules
            .apply(&[ev("f", vec![Value::Int(1)])], &Builtins::standard())
            .unwrap_err();
        assert_eq!(err.rule(), Some("broken"));
    }

    #[test]
    fn empty_window_is_an_error() {
        let rules = RuleSet::empty();
        assert!(rules.apply(&[], &Builtins::standard()).is_err());
    }

    #[test]
    fn empty_ruleset_is_identity() {
        let rules = RuleSet::empty();
        assert!(rules.is_empty());
        assert_eq!(rules.len(), 0);
        assert_eq!(rules.max_window(), 1);
        let e = ev("f", vec![Value::Int(9)]);
        let out = rules
            .apply(std::slice::from_ref(&e), &Builtins::standard())
            .unwrap();
        assert_eq!(out.emitted, vec![e]);
    }

    #[test]
    fn describe_names_the_fired_rule() {
        let rules = RuleSet::parse("rule r { on g() => h() }").unwrap();
        let fired = rules
            .apply(&[ev("g", vec![])], &Builtins::standard())
            .unwrap();
        assert_eq!(fired.describe(), "rule 'r': 1 -> 1");
        let passed = rules
            .apply(&[ev("q", vec![])], &Builtins::standard())
            .unwrap();
        assert_eq!(passed.describe(), "passthrough: 1 -> 1");
    }

    const REORDER: &str = "rule reorder { on write(fd, s, n), now(t) => now(t), write(fd, s, n) }";

    /// A window that knows names and arities only: reading a whole
    /// event fails the test.
    struct Shapes(Vec<(&'static str, usize)>);

    impl EventWindow for Shapes {
        fn len(&self) -> usize {
            self.0.len()
        }

        fn name(&self, index: usize) -> &str {
            self.0[index].0
        }

        fn arity(&self, index: usize) -> usize {
            self.0[index].1
        }

        fn event(&self, index: usize) -> &Event {
            panic!("event {index} was read")
        }
    }

    #[test]
    fn verbatim_templates_emit_the_matched_events_errno_included() {
        let rules = RuleSet::parse(REORDER).unwrap();
        let write = Event::with_error(
            "write",
            vec![Value::Int(5), Value::Str("+OK\r\n".into()), Value::Int(-1)],
            "connection reset by peer",
        );
        let now = ev("now", vec![Value::Int(42)]);
        let window = [write.clone(), now.clone()];
        let out = rules.apply(&window, &Builtins::standard()).unwrap();
        assert_eq!(out.emitted, vec![now, write]);
        let rewrite = rules
            .rewrite(&window[..], 0, &Builtins::standard())
            .unwrap()
            .unwrap();
        assert_eq!(rewrite.emitted, vec![Emit::Copy(1), Emit::Copy(0)]);
    }

    #[test]
    fn shape_only_rules_never_read_whole_events() {
        let rules = RuleSet::parse(REORDER).unwrap();
        let b = Builtins::standard();
        let write_now = Shapes(vec![("read", 3), ("write", 3), ("now", 1)]);
        assert_eq!(rules.rewrite(&write_now, 0, &b).unwrap(), None);
        let fired = rules.rewrite(&write_now, 1, &b).unwrap().unwrap();
        assert_eq!(fired.rule, "reorder");
        assert_eq!(fired.emitted, vec![Emit::Copy(2), Emit::Copy(1)]);
        assert!(rules.could_extend(&Shapes(vec![("write", 3)])));
        assert!(!rules.could_extend(&Shapes(vec![("write", 2)])));
        assert!(!rules.could_extend(&Shapes(vec![("now", 1)])));
    }

    #[test]
    fn rules_that_test_or_compute_values_read_events() {
        let b = Builtins::standard();
        let window = Shapes(vec![("f", 1)]);
        for src in [
            "rule lit { on f(1) => f(1) }",
            "rule guard { on f(x) when x > 0 => f(x) }",
            "rule computed { on f(x) => f(x + 1) }",
            "rule twice { on f(x), f(x) => f(x) }",
        ] {
            let rules = RuleSet::parse(src).unwrap();
            let reads = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = rules.rewrite(&window, 0, &b);
                let _ = rules.could_extend(&window);
            }));
            assert!(reads.is_err(), "{src} must read the event");
        }
    }

    #[test]
    fn computed_templates_carry_no_errno() {
        let rules = RuleSet::parse("rule r { on f(x) => f(x + 0) }").unwrap();
        let failed = Event::with_error("f", vec![Value::Int(1)], "timed out");
        let out = rules
            .apply(std::slice::from_ref(&failed), &Builtins::standard())
            .unwrap();
        assert_eq!(out.emitted, vec![ev("f", vec![Value::Int(1)])]);
    }

    #[test]
    fn error_events_pass_through_identity() {
        let rules = RuleSet::parse("rule r { on g() => h() }").unwrap();
        let e = Event::with_error("read", vec![Value::Int(1)], "timed out");
        let out = rules
            .apply(std::slice::from_ref(&e), &Builtins::standard())
            .unwrap();
        assert_eq!(out.emitted, vec![e]);
    }
}
