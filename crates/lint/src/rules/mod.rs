//! The rule set. Each rule lives in its own module; [`default_rules`]
//! is the registry the engine and CLI instantiate.

pub mod atomic_order;
pub mod lock_order;
pub mod panic_path;

pub use atomic_order::AtomicOrderRule;
pub use lock_order::LockOrderRule;
pub use panic_path::PanicPathRule;

use crate::Rule;

/// Instantiates every built-in rule, in stable order.
///
/// Adding a rule = adding a module with a [`Rule`] impl and listing it
/// here (plus a `[rule.<CODE>]` section in `lint.toml` if it needs a
/// scope or allowlist).
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(LockOrderRule::default()),
        Box::new(AtomicOrderRule),
        Box::new(PanicPathRule),
    ]
}
