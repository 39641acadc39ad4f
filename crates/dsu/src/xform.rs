use std::sync::Arc;

use crate::error::UpdateError;
use crate::state::AppState;

/// Migrates an old-version state snapshot into the new version's
/// representation.
///
/// Transformation cost is *real work* in this reproduction: the Redis
/// transformer walks every entry, which is what makes Figure 7's
/// large-state update pause emerge naturally rather than being simulated
/// with sleeps.
pub trait StateTransformer: Send + Sync {
    /// Performs the migration.
    ///
    /// # Errors
    /// [`UpdateError::XformFailed`] (or `StateTypeMismatch`) when the
    /// snapshot cannot be migrated — a *state transformation error* in
    /// the paper's taxonomy.
    fn transform(&self, old: AppState) -> Result<AppState, UpdateError>;

    /// Human-readable description, for logs and the experiment index.
    fn describe(&self) -> &str {
        "state transformer"
    }
}

/// The identity transformation, for updates whose state representation
/// did not change (most of the Vsftpd pairs).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityTransformer;

impl StateTransformer for IdentityTransformer {
    fn transform(&self, old: AppState) -> Result<AppState, UpdateError> {
        Ok(old)
    }

    fn describe(&self) -> &str {
        "identity (state representation unchanged)"
    }
}

/// Adapts a closure into a [`StateTransformer`].
pub struct FnTransformer {
    name: String,
    f: Arc<dyn Fn(AppState) -> Result<AppState, UpdateError> + Send + Sync>,
}

impl FnTransformer {
    /// Wraps `f` with a description used in logs.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(AppState) -> Result<AppState, UpdateError> + Send + Sync + 'static,
    ) -> Self {
        FnTransformer {
            name: name.into(),
            f: Arc::new(f),
        }
    }
}

impl StateTransformer for FnTransformer {
    fn transform(&self, old: AppState) -> Result<AppState, UpdateError> {
        (self.f)(old)
    }

    fn describe(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for FnTransformer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnTransformer({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_state_through() {
        let s = AppState::new(5u8);
        let out = IdentityTransformer.transform(s).unwrap();
        assert_eq!(out.downcast::<u8>().unwrap(), 5);
    }

    #[test]
    fn fn_transformer_migrates_representation() {
        // v1 state: Vec<(String, String)>; v2 adds a type tag.
        let t = FnTransformer::new("add type tags", |old| {
            let v1: Vec<(String, String)> =
                old.downcast().map_err(|_| UpdateError::StateTypeMismatch)?;
            let v2: Vec<(String, String, &'static str)> =
                v1.into_iter().map(|(k, v)| (k, v, "string")).collect();
            Ok(AppState::new(v2))
        });
        assert_eq!(t.describe(), "add type tags");
        let out = t
            .transform(AppState::new(vec![("k".to_string(), "v".to_string())]))
            .unwrap();
        let v2: Vec<(String, String, &'static str)> = out.downcast().unwrap();
        assert_eq!(v2, vec![("k".to_string(), "v".to_string(), "string")]);
    }

    #[test]
    fn fn_transformer_reports_type_mismatch() {
        let t = FnTransformer::new("expects u8", |old| {
            old.downcast::<u8>()
                .map(AppState::new)
                .map_err(|_| UpdateError::StateTypeMismatch)
        });
        assert_eq!(
            t.transform(AppState::new("wrong".to_string())).unwrap_err(),
            UpdateError::StateTypeMismatch
        );
    }

    #[test]
    fn transformers_are_object_safe_and_shareable() {
        let t: Arc<dyn StateTransformer> = Arc::new(IdentityTransformer);
        let t2 = t.clone();
        std::thread::spawn(move || {
            let _ = t2.transform(AppState::new(1u8));
        })
        .join()
        .unwrap();
        assert!(t.describe().contains("identity"));
    }
}
