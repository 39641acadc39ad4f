//! Property tests for the DSL pipeline: total (never panics) on
//! arbitrary input, identity semantics for empty rule sets,
//! faithfulness of pass-through rules, and an analyzer whose constant
//! folding agrees with the runtime.

use dsl::{tokenize, Builtins, Event, RuleSet, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Nil),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[a-zA-Z0-9 _.-]{0,20}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec(inner, 0..4).prop_map(Value::Tuple),
        ]
    })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        "[a-z][a-z_]{0,8}",
        proptest::collection::vec(arb_value(), 0..4),
    )
        .prop_map(|(name, args)| Event::new(name, args))
}

proptest! {
    /// The lexer is total: it returns Ok or Err but never panics, on any
    /// input bytes that form a string.
    #[test]
    fn lexer_never_panics(src in ".{0,200}") {
        let _ = tokenize(&src);
    }

    /// The parser is total on arbitrary ASCII soup.
    #[test]
    fn parser_never_panics(src in "[ -~]{0,200}") {
        let _ = RuleSet::parse(&src);
    }

    /// An empty rule set is the identity transformation on any window.
    #[test]
    fn empty_ruleset_is_identity(events in proptest::collection::vec(arb_event(), 1..6)) {
        let rules = RuleSet::empty();
        let out = rules.apply(&events, &Builtins::standard()).unwrap();
        prop_assert_eq!(out.consumed, 1);
        prop_assert_eq!(out.emitted, vec![events[0].clone()]);
        prop_assert_eq!(out.rule, None);
    }

    /// A syntactic pass-through rule emits exactly what it matched.
    #[test]
    fn passthrough_rule_is_faithful(fd in any::<i64>(), payload in "[a-zA-Z0-9 ]{0,30}") {
        let rules = RuleSet::parse("rule pass { on read(fd, s) => read(fd, s) }").unwrap();
        let input = Event::new("read", vec![Value::Int(fd), Value::Str(payload)]);
        let out = rules.apply(std::slice::from_ref(&input), &Builtins::standard()).unwrap();
        prop_assert_eq!(out.rule.as_deref(), Some("pass"));
        prop_assert_eq!(out.emitted, vec![input]);
    }

    /// Guards are pure: applying the same rule set twice to the same
    /// window yields the same outcome.
    #[test]
    fn application_is_deterministic(events in proptest::collection::vec(arb_event(), 1..4)) {
        let rules = RuleSet::parse(r#"
            rule swallow { on noise() => nothing }
            rule tag { on read(fd, s) when len(s) > 3 => read(fd, s + "!") }
        "#).unwrap();
        let b = Builtins::standard();
        let a = rules.apply(&events, &b);
        let c = rules.apply(&events, &b);
        prop_assert_eq!(format!("{a:?}"), format!("{c:?}"));
    }

    /// `consumed` never exceeds the window length and `max_window` bounds
    /// the lookahead needed.
    #[test]
    fn consumed_is_bounded(events in proptest::collection::vec(arb_event(), 1..5)) {
        let rules = RuleSet::parse(r#"
            rule pair { on a(), b() => c() }
            rule one { on a() => nothing }
        "#).unwrap();
        prop_assert_eq!(rules.max_window(), 2);
        if let Ok(out) = rules.apply(&events, &Builtins::standard()) {
            prop_assert!(out.consumed >= 1);
            prop_assert!(out.consumed <= events.len());
            prop_assert!(out.consumed <= rules.max_window());
        }
    }
}

// ---------------------------------------------------------------------
// Generative parse <-> print round-trip over random ASTs.
// ---------------------------------------------------------------------

use dsl::{
    analyze_program, parse_program, print_program, AnalysisContext, Block, Diagnostics, DslError,
    Expr, LetLhs, PatArg, Pattern, Program, RuleDef, Span, Template, UnOp,
};

fn arb_ident() -> impl Strategy<Value = String> {
    // Avoid the parser's keywords.
    "[a-eg-mo-z][a-z0-9_]{0,6}".prop_filter("keyword", |s| {
        !matches!(
            s.as_str(),
            "on" | "when" | "let" | "rule" | "nothing" | "true" | "false" | "nil"
        )
    })
}

fn arb_str_lit() -> impl Strategy<Value = String> {
    // ASCII printable plus the escapable controls the lexer understands.
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range(' ', '~'),
            Just('\r'),
            Just('\n'),
            Just('\t'),
            Just('"'),
            Just('\\'),
        ],
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_lit() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Nil),
        any::<bool>().prop_map(Value::Bool),
        (0i64..1_000_000).prop_map(Value::Int), // negatives parse as unary neg
        arb_str_lit().prop_map(Value::Str),
    ]
}

/// The standard library's functions with their declared arities.
const STD_FNS: [(&str, usize); 14] = [
    ("len", 1),
    ("str", 1),
    ("int", 1),
    ("substr", 3),
    ("starts_with", 2),
    ("ends_with", 2),
    ("contains", 2),
    ("split", 2),
    ("join", 2),
    ("trim", 1),
    ("upper", 1),
    ("lower", 1),
    ("replace", 3),
    ("nth", 2),
];

/// A function name outside the standard library.
fn arb_fn_name() -> impl Strategy<Value = String> {
    arb_ident().prop_filter("standard name", |s| {
        !STD_FNS.iter().any(|(name, _)| name == s)
    })
}

/// Ints at the edges of `i64`. `-1` and `i64::MIN` are built by
/// subtraction, as source writes them: a negative literal prints as
/// unary minus.
fn arb_edge_int() -> impl Strategy<Value = Expr> {
    fn int(n: i64) -> Expr {
        Expr::Lit(Value::Int(n))
    }
    fn sub(l: Expr, r: Expr) -> Expr {
        Expr::Binary(dsl::BinOp::Sub, Box::new(l), Box::new(r))
    }
    prop_oneof![
        Just(int(0)),
        Just(int(1)),
        Just(sub(int(0), int(1))),
        Just(int(i64::MAX)),
        Just(sub(sub(int(0), int(i64::MAX)), int(1))),
    ]
}

/// Expressions over `leaf`: every operator, index, tuple and list, and
/// calls to unknown functions and to the standard library. Standard
/// calls take their declared arity: RC0302 rejects any other count,
/// though the runtime ignores extra arguments.
fn arb_expr_over(leaf: BoxedStrategy<Expr>) -> BoxedStrategy<Expr> {
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_binop()).prop_map(|(l, r, op)| Expr::Binary(
                op,
                Box::new(l),
                Box::new(r)
            )),
            (inner.clone(), prop_oneof![Just(UnOp::Not), Just(UnOp::Neg)])
                .prop_map(|(e, op)| Expr::Unary(op, Box::new(e))),
            (
                arb_fn_name(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(name, args)| Expr::Call(name, args, Span::none())),
            (
                0..STD_FNS.len(),
                proptest::collection::vec(inner.clone(), 3)
            )
                .prop_map(|(i, mut args)| {
                    let (name, arity) = STD_FNS[i];
                    args.truncate(arity);
                    Expr::Call(name.to_string(), args, Span::none())
                }),
            (inner.clone(), inner.clone()).prop_map(|(b, i)| Expr::Index(Box::new(b), Box::new(i))),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::Tuple),
            proptest::collection::vec(inner, 0..3).prop_map(Expr::List),
        ]
    })
}

fn arb_expr() -> BoxedStrategy<Expr> {
    arb_expr_over(
        prop_oneof![
            arb_lit().prop_map(Expr::Lit),
            arb_edge_int(),
            arb_ident().prop_map(|name| Expr::Var(name, Span::none())),
        ]
        .boxed(),
    )
}

/// Expressions without variables.
fn arb_closed_expr() -> BoxedStrategy<Expr> {
    arb_expr_over(prop_oneof![arb_lit().prop_map(Expr::Lit), arb_edge_int()].boxed())
}

fn arb_binop() -> impl Strategy<Value = dsl::BinOp> {
    use dsl::BinOp::*;
    prop_oneof![
        Just(Or),
        Just(And),
        Just(Eq),
        Just(Ne),
        Just(Lt),
        Just(Le),
        Just(Gt),
        Just(Ge),
        Just(Add),
        Just(Sub),
        Just(Mul),
        Just(Div),
        Just(Rem),
    ]
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (
        arb_ident(),
        proptest::collection::vec(
            prop_oneof![
                Just(PatArg::Wildcard),
                arb_ident().prop_map(PatArg::Bind),
                arb_lit().prop_map(PatArg::Lit),
                (1i64..1000).prop_map(|n| PatArg::Lit(Value::Int(-n))),
            ],
            0..4,
        ),
    )
        .prop_map(|(event, args)| Pattern {
            event,
            args,
            span: Span::none(),
        })
}

fn arb_rule() -> impl Strategy<Value = RuleDef> {
    (
        arb_ident(),
        proptest::collection::vec(arb_pattern(), 1..3),
        proptest::option::of((
            proptest::collection::vec(
                (
                    prop_oneof![
                        Just(LetLhs::Wildcard),
                        arb_ident().prop_map(LetLhs::Var),
                        proptest::collection::vec(
                            prop_oneof![Just(LetLhs::Wildcard), arb_ident().prop_map(LetLhs::Var)],
                            1..3,
                        )
                        .prop_map(LetLhs::Tuple),
                    ],
                    arb_expr(),
                ),
                0..2,
            ),
            arb_expr(),
        )),
        proptest::collection::vec(
            (arb_ident(), proptest::collection::vec(arb_expr(), 0..3)),
            0..3,
        ),
    )
        .prop_map(|(name, patterns, guard, templates)| RuleDef {
            name,
            patterns,
            guard: guard.map(|(lets, value)| Block { lets, value }),
            templates: templates
                .into_iter()
                .map(|(event, args)| Template {
                    event,
                    args,
                    span: Span::none(),
                })
                .collect(),
            span: Span::none(),
        })
}

fn strip(mut p: Program) -> Program {
    fn fix(e: &mut Expr) {
        match e {
            Expr::Var(_, span) => *span = Span::none(),
            Expr::Call(_, args, span) => {
                *span = Span::none();
                args.iter_mut().for_each(fix);
            }
            Expr::Unary(_, inner) => fix(inner),
            Expr::Binary(_, l, r) => {
                fix(l);
                fix(r);
            }
            Expr::Index(b, i) => {
                fix(b);
                fix(i);
            }
            Expr::Tuple(items) | Expr::List(items) => items.iter_mut().for_each(fix),
            Expr::Lit(_) => {}
        }
    }
    for rule in &mut p.rules {
        rule.span = Span::none();
        rule.patterns
            .iter_mut()
            .for_each(|pat| pat.span = Span::none());
        if let Some(g) = &mut rule.guard {
            g.lets.iter_mut().for_each(|(_, rhs)| fix(rhs));
            fix(&mut g.value);
        }
        for t in &mut rule.templates {
            t.span = Span::none();
            t.args.iter_mut().for_each(fix);
        }
    }
    p
}

proptest! {
    /// print(parse(print(ast))) is the identity: printing any AST yields
    /// source that reparses to the same AST.
    #[test]
    fn print_parse_round_trip(rules in proptest::collection::vec(arb_rule(), 0..4)) {
        let program = Program { rules };
        let printed = print_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n{printed}"));
        prop_assert_eq!(strip(program), strip(reparsed), "{}", printed);
    }

    /// Source-level round trip: for any parseable source, `parse →
    /// print_program → parse` yields an *identical* `Program` — spans
    /// included, because printing is a fixpoint (`print(parse(print(p)))
    /// == print(p)`).
    #[test]
    fn parse_print_parse_is_identity(rules in proptest::collection::vec(arb_rule(), 0..4)) {
        let src = print_program(&Program { rules });
        let first = parse_program(&src)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n{src}"));
        let printed = print_program(&first);
        prop_assert_eq!(&printed, &src, "printing is not a fixpoint");
        let second = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reprinted program failed to parse: {e}\n{printed}"));
        prop_assert_eq!(first, second, "{}", printed);
    }
}

// ---------------------------------------------------------------------
// Differential: the analyzer's constant folding against the runtime.
// ---------------------------------------------------------------------

/// `rule r { on now(_) when guard => templates }`.
fn one_rule(guard: Option<Expr>, templates: Vec<Template>) -> Program {
    Program {
        rules: vec![RuleDef {
            name: "r".into(),
            patterns: vec![Pattern {
                event: "now".into(),
                args: vec![PatArg::Wildcard],
                span: Span::none(),
            }],
            guard: guard.map(|value| Block {
                lets: Vec::new(),
                value,
            }),
            templates,
            span: Span::none(),
        }],
    }
}

/// The runtime's value of `e`, evaluated as a template argument.
fn run(e: &Expr) -> Result<Value, DslError> {
    let template = Template {
        event: "now".into(),
        args: vec![e.clone()],
        span: Span::none(),
    };
    let rules = RuleSet::from_program(one_rule(None, vec![template]))?;
    let out = rules.apply(
        &[Event::new("now", vec![Value::Int(0)])],
        &Builtins::standard(),
    )?;
    Ok(out.emitted[0].args[0].clone())
}

/// The analyzer's findings on the guard `e == expect`. It is always true
/// (RC0404) exactly when the analyzer folds `e` to `expect`, and always
/// false (RC0403) when it folds `e` to another value.
fn analyze(e: &Expr, expect: Value) -> (Diagnostics, String) {
    let guard = Expr::Binary(
        dsl::BinOp::Eq,
        Box::new(e.clone()),
        Box::new(Expr::Lit(expect)),
    );
    let program = one_rule(Some(guard), Vec::new());
    let builtins = Builtins::standard();
    let ds = analyze_program(&program, &AnalysisContext::new().with_builtins(&builtins));
    (ds, print_program(&program))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Over closed expressions the analyzer folds `e` to `v` exactly
    /// when the runtime evaluates it to `Ok(v)`, and reports an error
    /// exactly when the runtime fails. Neither side panics.
    #[test]
    fn analyzer_folds_like_the_runtime(e in arb_closed_expr()) {
        let has = |ds: &Diagnostics, code: &str| ds.iter().any(|d| d.code == code);
        match run(&e) {
            Ok(v) => {
                let (ds, src) = analyze(&e, v.clone());
                prop_assert!(
                    has(&ds, "RC0404") && !ds.has_errors(),
                    "the runtime evaluates to {v}; the analyzer does not fold to it:\n{src}\n{ds}"
                );
            }
            Err(err) => {
                let (ds, src) = analyze(&e, Value::Nil);
                prop_assert!(
                    ds.has_errors() && !has(&ds, "RC0403") && !has(&ds, "RC0404"),
                    "the runtime fails ({err}); the analyzer does not report it:\n{src}\n{ds}"
                );
            }
        }
    }
}
