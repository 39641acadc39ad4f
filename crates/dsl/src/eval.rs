use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::{BinOp, Block, Expr, LetLhs, UnOp};
use crate::error::DslError;
use crate::value::Value;

/// Signature of a host-registered function callable from rules.
pub type BuiltinFn = Arc<dyn Fn(&[Value]) -> Result<Value, String> + Send + Sync>;

/// Static metadata about a builtin, for the rule checker.
///
/// Functions registered through [`Builtins::register`] have no declared
/// signature (`arity: None`) — the analyzer can then only check that the
/// name exists. The standard library declares exact arities and purity
/// (pure builtins may be constant-folded over literal arguments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuiltinSig {
    /// Exact argument count, if declared.
    pub arity: Option<usize>,
    /// True when the function is deterministic and side-effect free.
    pub pure: bool,
}

#[derive(Clone)]
struct BuiltinEntry {
    f: BuiltinFn,
    sig: BuiltinSig,
}

/// The function namespace visible to rules.
///
/// Ships a standard library of string/collection helpers; applications
/// register domain functions on top — most importantly `parse`, which the
/// paper's rules use to split a protocol line into a command tuple.
#[derive(Clone)]
pub struct Builtins {
    fns: HashMap<String, BuiltinEntry>,
}

impl fmt::Debug for Builtins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.fns.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("Builtins").field("fns", &names).finish()
    }
}

fn arg<'a>(args: &'a [Value], i: usize, f: &str) -> Result<&'a Value, String> {
    args.get(i)
        .ok_or_else(|| format!("{f}: missing argument {i}"))
}

fn str_arg<'a>(args: &'a [Value], i: usize, f: &str) -> Result<&'a str, String> {
    match arg(args, i, f)? {
        Value::Str(s) => Ok(s),
        other => Err(format!(
            "{f}: argument {i} must be a string, got {}",
            other.type_name()
        )),
    }
}

fn int_arg(args: &[Value], i: usize, f: &str) -> Result<i64, String> {
    match arg(args, i, f)? {
        Value::Int(n) => Ok(*n),
        other => Err(format!(
            "{f}: argument {i} must be an int, got {}",
            other.type_name()
        )),
    }
}

impl Builtins {
    /// An empty namespace (rules can then only use operators).
    pub fn new() -> Self {
        Builtins {
            fns: HashMap::new(),
        }
    }

    /// The standard library: `len`, `str`, `int`, `substr`,
    /// `starts_with`, `ends_with`, `contains`, `split`, `join`, `trim`,
    /// `upper`, `lower`, `replace`, `nth`.
    pub fn standard() -> Self {
        let mut b = Builtins::new();
        b.register_std("len", 1, |args| {
            Ok(Value::Int(match arg(args, 0, "len")? {
                Value::Str(s) => s.len() as i64,
                Value::List(l) => l.len() as i64,
                Value::Tuple(t) => t.len() as i64,
                other => return Err(format!("len: unsupported type {}", other.type_name())),
            }))
        });
        b.register_std("str", 1, |args| {
            Ok(Value::Str(arg(args, 0, "str")?.to_display_string()))
        });
        b.register_std("int", 1, |args| {
            Ok(match arg(args, 0, "int")? {
                Value::Int(n) => Value::Int(*n),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .unwrap_or(Value::Nil),
                _ => Value::Nil,
            })
        });
        b.register_std("substr", 3, |args| {
            let s = str_arg(args, 0, "substr")?;
            let start = int_arg(args, 1, "substr")?.max(0) as usize;
            let end = (int_arg(args, 2, "substr")?.max(0) as usize).min(s.len());
            if start >= end {
                return Ok(Value::Str(String::new()));
            }
            Ok(Value::Str(s[start..end].to_string()))
        });
        b.register_std("starts_with", 2, |args| {
            Ok(Value::Bool(
                str_arg(args, 0, "starts_with")?.starts_with(str_arg(args, 1, "starts_with")?),
            ))
        });
        b.register_std("ends_with", 2, |args| {
            Ok(Value::Bool(
                str_arg(args, 0, "ends_with")?.ends_with(str_arg(args, 1, "ends_with")?),
            ))
        });
        b.register_std("contains", 2, |args| {
            Ok(Value::Bool(
                str_arg(args, 0, "contains")?.contains(str_arg(args, 1, "contains")?),
            ))
        });
        b.register_std("split", 2, |args| {
            let s = str_arg(args, 0, "split")?;
            let sep = str_arg(args, 1, "split")?;
            let parts: Vec<Value> = if sep.is_empty() {
                s.split_whitespace()
                    .map(|p| Value::Str(p.to_string()))
                    .collect()
            } else {
                s.split(sep).map(|p| Value::Str(p.to_string())).collect()
            };
            Ok(Value::List(parts))
        });
        b.register_std("join", 2, |args| {
            let list = match arg(args, 0, "join")? {
                Value::List(l) => l,
                other => return Err(format!("join: expected list, got {}", other.type_name())),
            };
            let sep = str_arg(args, 1, "join")?;
            Ok(Value::Str(
                list.iter()
                    .map(Value::to_display_string)
                    .collect::<Vec<_>>()
                    .join(sep),
            ))
        });
        b.register_std("trim", 1, |args| {
            Ok(Value::Str(str_arg(args, 0, "trim")?.trim().to_string()))
        });
        b.register_std("upper", 1, |args| {
            Ok(Value::Str(str_arg(args, 0, "upper")?.to_uppercase()))
        });
        b.register_std("lower", 1, |args| {
            Ok(Value::Str(str_arg(args, 0, "lower")?.to_lowercase()))
        });
        b.register_std("replace", 3, |args| {
            Ok(Value::Str(str_arg(args, 0, "replace")?.replace(
                str_arg(args, 1, "replace")?,
                str_arg(args, 2, "replace")?,
            )))
        });
        b.register_std("nth", 2, |args| {
            let i = int_arg(args, 1, "nth")?;
            let items = match arg(args, 0, "nth")? {
                Value::List(l) => l,
                Value::Tuple(t) => t,
                other => return Err(format!("nth: expected list, got {}", other.type_name())),
            };
            Ok(if i < 0 {
                Value::Nil
            } else {
                items.get(i as usize).cloned().unwrap_or(Value::Nil)
            })
        });
        b
    }

    /// Registers (or replaces) a function with no declared signature:
    /// the analyzer can only check that calls name an existing function.
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value, String> + Send + Sync + 'static,
    ) {
        self.fns.insert(
            name.to_string(),
            BuiltinEntry {
                f: Arc::new(f),
                sig: BuiltinSig {
                    arity: None,
                    pure: false,
                },
            },
        );
    }

    /// Registers a pure function with an exact arity (standard library).
    fn register_std(
        &mut self,
        name: &str,
        arity: usize,
        f: impl Fn(&[Value]) -> Result<Value, String> + Send + Sync + 'static,
    ) {
        self.fns.insert(
            name.to_string(),
            BuiltinEntry {
                f: Arc::new(f),
                sig: BuiltinSig {
                    arity: Some(arity),
                    pure: true,
                },
            },
        );
    }

    /// Looks up a function by name.
    pub fn get(&self, name: &str) -> Option<&BuiltinFn> {
        self.fns.get(name).map(|e| &e.f)
    }

    /// Static signature metadata for a function, if registered.
    pub fn signature(&self, name: &str) -> Option<BuiltinSig> {
        self.fns.get(name).map(|e| e.sig)
    }

    /// True when `name` names a registered function.
    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }
}

impl Default for Builtins {
    fn default() -> Self {
        Builtins::standard()
    }
}

/// A variable scope. Pattern matching populates it; guard `let`s extend
/// it; template expressions read from it.
#[derive(Clone, Debug, Default)]
pub struct Env {
    vars: HashMap<String, Value>,
}

impl Env {
    /// An empty scope.
    pub fn new() -> Self {
        Env::default()
    }

    /// Binds (or shadows) a variable.
    pub fn set(&mut self, name: &str, value: Value) {
        self.vars.insert(name.to_string(), value);
    }

    /// Reads a variable.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Destructures `value` against a `let` left-hand side.
    ///
    /// # Errors
    /// Fails when a tuple pattern meets a non-sequence or the arity
    /// differs.
    pub fn bind(&mut self, lhs: &LetLhs, value: Value) -> Result<(), DslError> {
        match lhs {
            LetLhs::Wildcard => Ok(()),
            LetLhs::Var(name) => {
                self.set(name, value);
                Ok(())
            }
            LetLhs::Tuple(parts) => {
                let items = match value {
                    Value::Tuple(items) | Value::List(items) => items,
                    other => {
                        return Err(DslError::new(format!(
                            "cannot destructure {} into a tuple pattern",
                            other.type_name()
                        )))
                    }
                };
                if items.len() != parts.len() {
                    return Err(DslError::new(format!(
                        "tuple pattern arity {} does not match value arity {}",
                        parts.len(),
                        items.len()
                    )));
                }
                for (part, item) in parts.iter().zip(items) {
                    self.bind(part, item)?;
                }
                Ok(())
            }
        }
    }
}

/// Evaluates an expression.
///
/// # Errors
/// Type errors, unknown variables/functions, division by zero, integer
/// overflow, and builtin failures all surface as [`DslError`].
pub fn eval_expr(expr: &Expr, env: &Env, builtins: &Builtins) -> Result<Value, DslError> {
    let eval_all = |items: &[Expr]| -> Result<Vec<Value>, DslError> {
        items.iter().map(|e| eval_expr(e, env, builtins)).collect()
    };
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Var(name, span) => env
            .get(name)
            .cloned()
            .ok_or_else(|| DslError::at(format!("unknown variable `{name}`"), span.line, span.col)),
        Expr::Unary(op, inner) => apply_unary(*op, &eval_expr(inner, env, builtins)?),
        Expr::Binary(op, lhs, rhs) => {
            let l = eval_expr(lhs, env, builtins)?;
            // `false && _` and `true || _` never evaluate their rhs.
            if matches!(op, BinOp::And | BinOp::Or) && l.as_bool()? == (*op == BinOp::Or) {
                return Ok(l);
            }
            apply_binary(*op, &l, &eval_expr(rhs, env, builtins)?)
        }
        Expr::Call(name, args, span) => {
            let f = builtins.get(name).ok_or_else(|| {
                DslError::at(format!("unknown function `{name}`"), span.line, span.col)
            })?;
            f(&eval_all(args)?).map_err(DslError::new)
        }
        Expr::Index(base, index) => index_value(
            &eval_expr(base, env, builtins)?,
            &eval_expr(index, env, builtins)?,
        ),
        Expr::Tuple(items) => Ok(Value::Tuple(eval_all(items)?)),
        Expr::List(items) => Ok(Value::List(eval_all(items)?)),
    }
}

/// `base[index]`: `nil` when the index is out of range or `base` is not
/// a sequence.
pub(crate) fn index_value(base: &Value, index: &Value) -> Result<Value, DslError> {
    let Ok(i) = usize::try_from(index.as_int()?) else {
        return Ok(Value::Nil);
    };
    Ok(match base {
        Value::List(items) | Value::Tuple(items) => items.get(i).cloned().unwrap_or(Value::Nil),
        Value::Str(s) => s
            .get(i..i + 1)
            .map(|c| Value::Str(c.to_string()))
            .unwrap_or(Value::Nil),
        _ => Value::Nil,
    })
}

/// The value of a unary operator. The analyzer folds constants with this
/// same function.
pub(crate) fn apply_unary(op: UnOp, v: &Value) -> Result<Value, DslError> {
    Ok(match op {
        UnOp::Not => Value::Bool(!v.as_bool()?),
        UnOp::Neg => Value::Int(
            v.as_int()?
                .checked_neg()
                .ok_or_else(|| DslError::new("integer overflow in `-`"))?,
        ),
    })
}

/// The value of a binary operator over both operands. The evaluator
/// skips the rhs of `&&` and `||` when the lhs decides. The analyzer
/// folds constants with this same function.
pub(crate) fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value, DslError> {
    let int = |f: fn(i64, i64) -> Option<i64>| {
        f(l.as_int()?, r.as_int()?)
            .map(Value::Int)
            .ok_or_else(|| DslError::new(format!("integer overflow in `{op}`")))
    };
    let ord = || match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
        (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
        _ => Err(DslError::new(format!(
            "cannot order {} against {}",
            l.type_name(),
            r.type_name()
        ))),
    };
    Ok(match op {
        BinOp::And => Value::Bool(l.as_bool()? && r.as_bool()?),
        BinOp::Or => Value::Bool(l.as_bool()? || r.as_bool()?),
        BinOp::Eq => Value::Bool(l == r),
        BinOp::Ne => Value::Bool(l != r),
        BinOp::Lt => Value::Bool(ord()?.is_lt()),
        BinOp::Le => Value::Bool(ord()?.is_le()),
        BinOp::Gt => Value::Bool(ord()?.is_gt()),
        BinOp::Ge => Value::Bool(ord()?.is_ge()),
        BinOp::Add => match (l, r) {
            (Value::Int(_), Value::Int(_)) => int(i64::checked_add)?,
            (Value::List(a), Value::List(b)) => Value::List([a.as_slice(), b].concat()),
            (Value::Str(_), _) | (_, Value::Str(_)) => {
                Value::Str(l.to_display_string() + &r.to_display_string())
            }
            _ => {
                return Err(DslError::new(format!(
                    "cannot add {} and {}",
                    l.type_name(),
                    r.type_name()
                )))
            }
        },
        BinOp::Sub => int(i64::checked_sub)?,
        BinOp::Mul => int(i64::checked_mul)?,
        BinOp::Div if r.as_int()? == 0 => return Err(DslError::new("division by zero")),
        BinOp::Rem if r.as_int()? == 0 => return Err(DslError::new("remainder by zero")),
        BinOp::Div => int(i64::checked_div)?,
        BinOp::Rem => int(i64::checked_rem)?,
    })
}

/// Evaluates a block: runs its `let`s in order, then the value
/// expression, in a child scope.
///
/// # Errors
/// Propagates any evaluation or destructuring failure.
pub fn eval_block(block: &Block, env: &Env, builtins: &Builtins) -> Result<Value, DslError> {
    let mut scope = env.clone();
    for (lhs, rhs) in &block.lets {
        let v = eval_expr(rhs, &scope, builtins)?;
        scope.bind(lhs, v)?;
    }
    eval_expr(&block.value, &scope, builtins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn eval_guard(src_guard: &str, env: &Env) -> Result<Value, DslError> {
        let src = format!("rule t {{ on f() when {src_guard} => nothing }}");
        let prog = parse_program(&src).unwrap();
        eval_block(
            prog.rules[0].guard.as_ref().unwrap(),
            env,
            &Builtins::standard(),
        )
    }

    #[test]
    fn arithmetic_and_precedence() {
        let env = Env::new();
        assert_eq!(
            eval_guard("1 + 2 * 3 == 7", &env).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_guard("(10 - 4) / 3 == 2", &env).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_guard("7 % 3 == 1", &env).unwrap(), Value::Bool(true));
    }

    #[test]
    fn string_concat_coerces() {
        let mut env = Env::new();
        env.set("k", Value::Str("key".into()));
        env.set("n", Value::Int(5));
        assert_eq!(
            eval_guard(r#""PUT " + k + " " + n == "PUT key 5""#, &env).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(eval_guard("1 / 0 == 0", &Env::new()).is_err());
        assert!(eval_guard("1 % 0 == 0", &Env::new()).is_err());
    }

    #[test]
    fn short_circuit_avoids_rhs_error() {
        // `1/0` on the rhs must not evaluate when the lhs decides.
        assert_eq!(
            eval_guard("false && 1 / 0 == 0", &Env::new()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_guard("true || 1 / 0 == 0", &Env::new()).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn comparisons_on_strings() {
        assert_eq!(
            eval_guard(r#""abc" < "abd""#, &Env::new()).unwrap(),
            Value::Bool(true)
        );
        assert!(eval_guard(r#""abc" < 3"#, &Env::new()).is_err());
    }

    #[test]
    fn equality_across_types_is_false_not_error() {
        assert_eq!(
            eval_guard(r#"1 == "1""#, &Env::new()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_guard("nil == nil", &Env::new()).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn let_destructuring_binds_tuples() {
        let mut env = Env::new();
        env.set("s", Value::Str("PUT balance 100".into()));
        let v = eval_guard(
            r#"{ let parts = split(s, " "); let (cmd, key, val) = parts; cmd == "PUT" && key == "balance" && int(val) == 100 }"#,
            &env,
        )
        .unwrap();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn destructuring_arity_mismatch_errors() {
        let mut env = Env::new();
        env.set("s", Value::Str("a b".into()));
        assert!(eval_guard(r#"{ let (x, y, z) = split(s, " "); true }"#, &env).is_err());
    }

    #[test]
    fn indexing_lists_and_strings() {
        let env = Env::new();
        assert_eq!(
            eval_guard(r#"[10, 20, 30][1] == 20"#, &env).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_guard(r#""abc"[0] == "a""#, &env).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_guard(r#"[1][5] == nil"#, &env).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn stdlib_string_functions() {
        let env = Env::new();
        for (expr, expect) in [
            (r#"len("abcd") == 4"#, true),
            (r#"starts_with("PUT-number", "PUT-")"#, true),
            (r#"ends_with("cmd\r\n", "\r\n")"#, true),
            (r#"contains("hello world", "lo wo")"#, true),
            (r#"trim("  x  ") == "x""#, true),
            (r#"upper("ab") == "AB""#, true),
            (r#"lower("AB") == "ab""#, true),
            (r#"replace("a-b-c", "-", "+") == "a+b+c""#, true),
            (r#"substr("abcdef", 1, 3) == "bc""#, true),
            (r#"substr("ab", 1, 99) == "b""#, true),
            (r#"join(["a", "b"], ",") == "a,b""#, true),
            (r#"nth([4, 5], 1) == 5"#, true),
            (r#"nth([4, 5], 9) == nil"#, true),
            (r#"int("42") == 42"#, true),
            (r#"int("4x2") == nil"#, true),
            (r#"str(42) == "42""#, true),
        ] {
            assert_eq!(
                eval_guard(expr, &env).unwrap(),
                Value::Bool(expect),
                "{expr}"
            );
        }
    }

    #[test]
    fn split_on_empty_separator_is_whitespace_split() {
        let env = Env::new();
        assert_eq!(
            eval_guard(r#"len(split("a  b   c", "")) == 3"#, &env).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn unknown_variable_and_function_error() {
        assert!(eval_guard("mystery == 1", &Env::new()).is_err());
        assert!(eval_guard("mystery(1) == 1", &Env::new()).is_err());
    }

    #[test]
    fn custom_builtin_is_callable() {
        let mut b = Builtins::standard();
        b.register("parse", |args| {
            let s = match &args[0] {
                Value::Str(s) => s,
                _ => return Err("parse: expected string".into()),
            };
            let parts: Vec<&str> = s.split_whitespace().collect();
            Ok(Value::Tuple(vec![
                parts
                    .first()
                    .map(|p| Value::Str(p.to_string()))
                    .unwrap_or(Value::Nil),
                parts
                    .get(1)
                    .map(|p| Value::Str(p.to_string()))
                    .unwrap_or(Value::Nil),
            ]))
        });
        let prog = parse_program(
            r#"rule t { on f() when { let (cmd, _) = parse("GET k"); cmd == "GET" } => nothing }"#,
        )
        .unwrap();
        let v = eval_block(prog.rules[0].guard.as_ref().unwrap(), &Env::new(), &b).unwrap();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn overflow_is_reported() {
        let mut env = Env::new();
        env.set("big", Value::Int(i64::MAX));
        env.set("min", Value::Int(i64::MIN));
        for guard in [
            "big + 1 == 0",
            "big * 2 == 0",
            "min - 1 == 0",
            "min / -1 == 0",
            "min % -1 == 0",
            "-min == 0",
        ] {
            let err = eval_guard(guard, &env).unwrap_err();
            assert!(err.message().contains("overflow"), "{guard}: {err}");
        }
    }

    #[test]
    fn builtins_debug_lists_names() {
        let b = Builtins::standard();
        let dbg = format!("{b:?}");
        assert!(dbg.contains("split"), "{dbg}");
    }
}
