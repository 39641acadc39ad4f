use std::fmt;

use crate::error::DslError;

/// Runtime values of the rule language.
///
/// The language is dynamically typed with a small universe: enough to
/// express every rule in the paper (string surgery over protocol lines,
/// integer length arithmetic, tuple destructuring of parsed commands).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Absence of a value; `nil` in source. `parse` returns `nil`
    /// components for missing fields, as in Figure 4's `typ != NULL`.
    Nil,
    Bool(bool),
    Int(i64),
    Str(String),
    /// Homogeneous-ish sequence, `[a, b, c]` in source.
    List(Vec<Value>),
    /// Fixed-shape sequence, `(a, b, c)` in source; what `let (x, y) = e`
    /// destructures.
    Tuple(Vec<Value>),
}

/// The type of a [`Value`] without its contents; the analyzer's coarse
/// abstract domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Nil,
    Bool,
    Int,
    Str,
    List,
    Tuple,
}

impl Kind {
    /// The type's name in error messages, the runtime's and the
    /// analyzer's alike.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kind::Nil => "nil",
            Kind::Bool => "bool",
            Kind::Int => "int",
            Kind::Str => "string",
            Kind::List => "list",
            Kind::Tuple => "tuple",
        }
    }
}

impl Value {
    pub(crate) fn kind(&self) -> Kind {
        match self {
            Value::Nil => Kind::Nil,
            Value::Bool(_) => Kind::Bool,
            Value::Int(_) => Kind::Int,
            Value::Str(_) => Kind::Str,
            Value::List(_) => Kind::List,
            Value::Tuple(_) => Kind::Tuple,
        }
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        self.kind().name()
    }

    /// Extracts a boolean, failing on any other type (guards must be
    /// boolean — no implicit truthiness, to keep rules predictable).
    pub fn as_bool(&self) -> Result<bool, DslError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(DslError::new(format!(
                "expected bool, found {}",
                other.type_name()
            ))),
        }
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> Result<i64, DslError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(DslError::new(format!(
                "expected int, found {}",
                other.type_name()
            ))),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str, DslError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DslError::new(format!(
                "expected string, found {}",
                other.type_name()
            ))),
        }
    }

    /// Renders the value the way `+`-concatenation and `str()` see it:
    /// strings are unquoted, everything else as in [`fmt::Display`].
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::Nil.type_name(), "nil");
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(Value::List(vec![]).type_name(), "list");
    }

    #[test]
    fn as_bool_rejects_non_bool() {
        assert!(Value::Bool(true).as_bool().unwrap());
        assert!(Value::Int(1).as_bool().is_err());
    }

    #[test]
    fn display_quotes_strings_inside_containers() {
        let v = Value::Tuple(vec![Value::Str("a".into()), Value::Int(2)]);
        assert_eq!(v.to_string(), "(\"a\", 2)");
        let l = Value::List(vec![Value::Nil, Value::Bool(false)]);
        assert_eq!(l.to_string(), "[nil, false]");
    }

    #[test]
    fn display_string_is_unquoted_for_concat() {
        assert_eq!(Value::Str("hi".into()).to_display_string(), "hi");
        assert_eq!(Value::Int(7).to_display_string(), "7");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }
}
