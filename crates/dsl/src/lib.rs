//! The rewrite-rule DSL that reconciles expected divergences between
//! program versions.
//!
//! MVE declares any difference between the leader's and the follower's
//! system-call sequences a divergence. After a dynamic update that is too
//! strict: the new version legitimately behaves differently (new
//! commands, reordered calls, changed banners). The paper (§3.3,
//! Figures 4 and 5) solves this with programmer-written *rewrite rules*
//! that map the leader's event sequence into the sequence the follower is
//! expected to produce. This crate is a from-scratch implementation of
//! that DSL: a lexer, a recursive-descent parser, a small expression
//! interpreter, and a sequence-pattern engine.
//!
//! The crate is deliberately independent of the syscall layer: it
//! operates on generic [`Event`]s (a name plus a list of [`Value`]s).
//! The MVE layer projects syscall records into events and back.
//!
//! # Syntax
//!
//! ```text
//! rule put_typed_to_bad_cmd {
//!     on read(fd, s, n)
//!     when {
//!         let (cmd, typ, _, _) = parse(s);
//!         cmd == "PUT" && typ != nil
//!     }
//!     => read(fd, "bad-cmd\r\n", 9)
//! }
//! ```
//!
//! * `on` introduces a sequence of one or more event patterns; arguments
//!   are binders, `_` wildcards, or literals.
//! * `when` (optional) guards the rule with an expression or a block whose
//!   last expression is the guard value; `let` statements may destructure
//!   tuples.
//! * `=>` lists the replacement events (or `nothing` to delete the
//!   matched events). Replacement arguments are full expressions over the
//!   bound variables.
//!
//! Functions like `parse` are *builtins*: the host registers them per
//! application via [`Builtins::register`], mirroring how the paper's
//! rules call an application-specific `parse`.
//!
//! # Example
//!
//! ```
//! use dsl::{Builtins, Event, RuleSet, Value};
//!
//! let rules = RuleSet::parse(r#"
//!     rule double { on ping(x) => ping(x + x) }
//! "#)?;
//! let builtins = Builtins::standard();
//! let out = rules.apply(&[Event::new("ping", vec![Value::Int(21)])], &builtins)?;
//! assert_eq!(out.consumed, 1);
//! assert_eq!(out.emitted[0].args[0], Value::Int(42));
//! # Ok::<(), dsl::DslError>(())
//! ```

pub mod analyze;
mod ast;
pub mod diag;
mod engine;
mod error;
mod eval;
mod event;
mod parser;
mod printer;
mod token;
mod value;

pub use analyze::{
    analyze_program, check_source, parse_diagnostic, AnalysisContext, ArgKind, EventSig,
};
pub use ast::{BinOp, Block, Expr, LetLhs, PatArg, Pattern, Program, RuleDef, Template, UnOp};
pub use diag::{Diagnostic, Diagnostics, Severity, Span};
pub use engine::{Emit, EventWindow, Rewrite, RuleOutcome, RuleSet};
pub use error::DslError;
pub use eval::{BuiltinSig, Builtins, Env};
pub use event::Event;
pub use parser::parse_program;
pub use printer::print_program;
pub use token::{tokenize, Token, TokenKind};
pub use value::Value;
