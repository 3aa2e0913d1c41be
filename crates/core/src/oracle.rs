//! Runtime changeset augmentation over the live object graph.
//!
//! Implements `flor-analysis`'s [`TypeOracle`] against the program's live
//! bindings, read through the executor boundary ([`Bindings`]): "This
//! changeset augmentation is done at runtime rather than statically, so
//! Flor has an opportunity to check whether any object in the changeset
//! is an instance of a PyTorch optimizer or learning rate scheduler"
//! (paper §5.2.1).
//!
//! The two encoded library facts become pointer-chasing over `Rc`
//! identities: an optimizer's model field is matched back to whichever
//! bound name holds that same allocation.

use crate::value::{Obj, Value};
use crate::vm::Bindings;
use flor_analysis::TypeOracle;
use std::cell::RefCell;
use std::rc::Rc;

/// A [`TypeOracle`] over a program's live bindings.
pub struct EnvOracle<'a> {
    bindings: Bindings<'a>,
}

impl<'a> EnvOracle<'a> {
    /// Oracle view of `bindings`.
    pub fn new(bindings: Bindings<'a>) -> Self {
        EnvOracle { bindings }
    }

    /// Finds the name bound to exactly this object allocation (the first
    /// in sorted order, so resolution is deterministic).
    fn name_of(&self, target: &Rc<RefCell<Obj>>) -> Option<String> {
        for name in self.bindings.names() {
            if let Some(Value::Obj(rc)) = self.bindings.get(name) {
                if Rc::ptr_eq(rc, target) {
                    return Some(name.to_string());
                }
            }
        }
        None
    }
}

impl TypeOracle for EnvOracle<'_> {
    fn reaches(&self, name: &str) -> Vec<String> {
        let Some(Value::Obj(rc)) = self.bindings.get(name) else {
            return Vec::new();
        };
        let obj = rc.borrow();
        let reached = match &*obj {
            // Fact (a): the model may be updated via the optimizer.
            Obj::Optim { model, .. } => self.name_of(model),
            // Fact (b): the optimizer may be updated via the LR schedule.
            Obj::Sched { optimizer, .. } => self.name_of(optimizer),
            // A loader mutates nothing beyond itself (its dataset is
            // immutable).
            _ => None,
        };
        reached.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use flor_analysis::augment_changeset;
    use flor_ml::models::mlp;
    use flor_ml::{Sgd, StepLr};
    use flor_tensor::Pcg64;

    fn env_with_training_objects() -> Env {
        let mut env = Env::new();
        let mut rng = Pcg64::seeded(1);
        let model = Rc::new(RefCell::new(Obj::Model(mlp(4, 8, 2, 1, &mut rng))));
        env.set("net", Value::Obj(model.clone()));
        let optim = Rc::new(RefCell::new(Obj::Optim {
            inner: Box::new(Sgd::new(0.1, 0.9, 0.0)),
            model,
        }));
        env.set("optimizer", Value::Obj(optim.clone()));
        let sched = Rc::new(RefCell::new(Obj::Sched {
            inner: Box::new(StepLr::new(0.1, 2, 0.5)),
            optimizer: optim,
        }));
        env.set("scheduler", Value::Obj(sched));
        env
    }

    #[test]
    fn optimizer_reaches_its_model_by_name() {
        let env = env_with_training_objects();
        let oracle = EnvOracle::new(Bindings::new(&env, None));
        assert_eq!(oracle.reaches("optimizer"), vec!["net".to_string()]);
    }

    #[test]
    fn scheduler_reaches_its_optimizer() {
        let env = env_with_training_objects();
        let oracle = EnvOracle::new(Bindings::new(&env, None));
        assert_eq!(oracle.reaches("scheduler"), vec!["optimizer".to_string()]);
    }

    #[test]
    fn figure6_augmentation_end_to_end() {
        // The paper's Figure 6 final step: {optimizer} → {optimizer, net}.
        let env = env_with_training_objects();
        let oracle = EnvOracle::new(Bindings::new(&env, None));
        let augmented = augment_changeset(&["optimizer".to_string()], &oracle);
        assert_eq!(augmented, vec!["optimizer".to_string(), "net".to_string()]);
    }

    #[test]
    fn scheduler_chain_closes_to_model() {
        let env = env_with_training_objects();
        let oracle = EnvOracle::new(Bindings::new(&env, None));
        let augmented = augment_changeset(&["scheduler".to_string()], &oracle);
        assert_eq!(
            augmented,
            vec![
                "scheduler".to_string(),
                "optimizer".to_string(),
                "net".to_string()
            ]
        );
    }

    #[test]
    fn plain_names_reach_nothing() {
        let mut env = env_with_training_objects();
        env.set("lr", Value::Float(0.1));
        let oracle = EnvOracle::new(Bindings::new(&env, None));
        assert!(oracle.reaches("lr").is_empty());
        assert!(oracle.reaches("undefined").is_empty());
        assert!(oracle.reaches("net").is_empty());
    }

    #[test]
    fn unbound_model_reference_yields_nothing() {
        // Optimizer whose model was never bound to a name: augmentation
        // cannot name it (and the checkpoint would be flagged by deferred
        // checks if that mattered).
        let mut env = Env::new();
        let mut rng = Pcg64::seeded(2);
        let anon_model = Rc::new(RefCell::new(Obj::Model(mlp(4, 8, 2, 1, &mut rng))));
        env.set(
            "optimizer",
            Value::obj(Obj::Optim {
                inner: Box::new(Sgd::new(0.1, 0.0, 0.0)),
                model: anon_model,
            }),
        );
        let oracle = EnvOracle::new(Bindings::new(&env, None));
        assert!(oracle.reaches("optimizer").is_empty());
    }
}
