//! The reference tree-walker: the differential oracle for the VM.
//!
//! Production runs every mode on the bytecode VM ([`crate::vm`]). This
//! module keeps the original AST-walking evaluator as a second,
//! independent implementation of the language so tests (and the
//! interpreter bench) can check the VM against it. It is reachable only
//! through [`Interp::run_reference`] and only in [`Mode::Vanilla`]: the
//! main loop is a plain loop with section bookkeeping, and skipblocks
//! just run their body.
//!
//! Value-level semantics (operators, subscripts, builtins, methods, log
//! formatting) come from the shared helpers in [`crate::interp`], so the
//! two executors differ only in how they walk the program.

use crate::error::{rt, FlorError};
use crate::interp::{
    bin_op_values, index_value, items_of, store_attr_value, store_index_value, unary_op_value,
    unpack_values, CallArgs, Interp, Mode,
};
use crate::logstream::Section;
use crate::value::Value;
use flor_lang::ast::{Arg, BinOp, Expr, Program, Stmt};

impl Interp {
    /// Runs a whole program on the reference tree-walker. Vanilla mode
    /// only: record and replay execute on the VM through [`Interp::run`].
    pub fn run_reference(&mut self, prog: &Program) -> Result<(), FlorError> {
        if !matches!(self.mode, Mode::Vanilla) {
            return Err(rt(
                "the reference tree-walker runs vanilla mode only; record and replay run on the VM",
            ));
        }
        self.exec_body(&prog.body)
    }

    fn exec_body(&mut self, body: &[Stmt]) -> Result<(), FlorError> {
        for stmt in body {
            self.exec_stmt(stmt)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<(), FlorError> {
        match stmt {
            Stmt::Import { .. } | Stmt::Pass => Ok(()),
            Stmt::Assign { targets, value } => {
                let v = self.eval(value)?;
                self.assign(targets, v)
            }
            Stmt::ExprStmt { expr } => {
                self.eval(expr)?;
                Ok(())
            }
            Stmt::If { cond, then, orelse } => {
                if self.eval(cond)?.truthy() {
                    self.exec_body(then)
                } else {
                    self.exec_body(orelse)
                }
            }
            Stmt::SkipBlock { body, .. } => self.exec_body(body),
            Stmt::For { var, iter, body } => {
                // The main loop: `for v in flor.partition(inner):`.
                if let Expr::Call { func, args } = iter {
                    if let Expr::Attr { obj, name } = func.as_ref() {
                        if name == "partition" && obj.as_name() == Some("flor") && args.len() == 1 {
                            return self.exec_main_loop(var, &args[0].value, body);
                        }
                    }
                }
                let items = self.eval_to_items(iter)?;
                for item in items {
                    self.env.set(var.clone(), item);
                    self.exec_body(body)?;
                }
                Ok(())
            }
        }
    }

    fn eval_to_items(&mut self, iter: &Expr) -> Result<Vec<Value>, FlorError> {
        let v = self.eval(iter)?;
        items_of(v)
    }

    /// The partition-wrapped main loop: a plain loop whose iterations
    /// tag their log entries `Iter(g)`, followed by the `Post` section.
    fn exec_main_loop(&mut self, var: &str, inner: &Expr, body: &[Stmt]) -> Result<(), FlorError> {
        let items = self.eval_to_items(inner)?;
        for (g, item) in items.into_iter().enumerate() {
            self.log.set_section(Section::Iter(g as u64));
            self.env.set(var, item);
            self.exec_body(body)?;
        }
        self.log.set_section(Section::Post);
        Ok(())
    }

    fn assign(&mut self, targets: &[Expr], value: Value) -> Result<(), FlorError> {
        if targets.len() == 1 {
            return self.assign_one(&targets[0], value);
        }
        let items = unpack_values(value, targets.len())?;
        for (t, v) in targets.iter().zip(items) {
            self.assign_one(t, v)?;
        }
        Ok(())
    }

    fn assign_one(&mut self, target: &Expr, value: Value) -> Result<(), FlorError> {
        match target {
            Expr::Name(n) => {
                self.env.set(n.clone(), value);
                Ok(())
            }
            Expr::Attr { obj, name } => {
                let recv = self.eval(obj)?;
                store_attr_value(recv, name, value)
            }
            Expr::Subscript { obj, index } => {
                let recv = self.eval(obj)?;
                let idx = self.eval(index)?;
                store_index_value(recv, idx, value)
            }
            other => Err(rt(format!("invalid assignment target {other}"))),
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, FlorError> {
        match expr {
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Float(x) => Ok(Value::Float(*x)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::NoneLit => Ok(Value::None),
            Expr::Name(n) => {
                if n == "flor" {
                    // `flor` resolves as a pseudo-module; only flor.log /
                    // flor.partition are meaningful and both are handled at
                    // their call sites.
                    return Ok(Value::Str("<module flor>".into()));
                }
                self.env.get(n).cloned()
            }
            Expr::List(items) => Ok(Value::list(
                items
                    .iter()
                    .map(|e| self.eval(e))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Tuple(items) => Ok(Value::Tuple(
                items
                    .iter()
                    .map(|e| self.eval(e))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Unary { op, expr } => {
                let v = self.eval(expr)?;
                unary_op_value(*op, v)
            }
            Expr::Bin { op, lhs, rhs } => self.eval_bin(*op, lhs, rhs),
            Expr::Subscript { obj, index } => {
                let recv = self.eval(obj)?;
                let idx = self.eval(index)?;
                index_value(recv, idx)
            }
            Expr::Attr { obj, name } => {
                let recv = self.eval(obj)?;
                self.read_attr(recv, name)
            }
            Expr::Call { func, args } => self.eval_call(func, args),
        }
    }

    fn eval_bin(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value, FlorError> {
        // Short-circuit boolean ops.
        match op {
            BinOp::And => {
                let l = self.eval(lhs)?;
                return if l.truthy() { self.eval(rhs) } else { Ok(l) };
            }
            BinOp::Or => {
                let l = self.eval(lhs)?;
                return if l.truthy() { Ok(l) } else { self.eval(rhs) };
            }
            _ => {}
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        bin_op_values(op, l, r)
    }

    fn eval_call(&mut self, func: &Expr, args: &[Arg]) -> Result<Value, FlorError> {
        // flor.log / log: the logging primitive.
        let is_flor_attr = |target: &str| -> bool {
            matches!(func, Expr::Attr { obj, name } if name == target && obj.as_name() == Some("flor"))
        };
        if matches!(func, Expr::Name(n) if n == "log") || is_flor_attr("log") {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(self.eval(&a.value)?);
            }
            return self.log_values(vals);
        }
        if is_flor_attr("partition") {
            // Outside a For header, partition is the identity (record) —
            // evaluate its argument.
            return self.eval(&args[0].value);
        }
        match func {
            Expr::Name(n) => {
                let call_args = self.eval_args(args)?;
                self.call_builtin(n, call_args)
            }
            Expr::Attr { obj, name } => {
                let recv = self.eval(obj)?;
                let call_args = self.eval_args(args)?;
                self.call_method(recv, name, call_args)
            }
            other => Err(rt(format!("cannot call {other}"))),
        }
    }

    fn eval_args(&mut self, args: &[Arg]) -> Result<CallArgs, FlorError> {
        let mut pos = Vec::new();
        let mut kw = Vec::new();
        for a in args {
            let v = self.eval(&a.value)?;
            match &a.name {
                Some(n) => kw.push((n.clone(), v)),
                None => pos.push(v),
            }
        }
        Ok(CallArgs::new(pos, kw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skipblock::tests::{replay_ctx, tmproot};
    use flor_lang::parse;

    #[test]
    fn reference_runs_vanilla_only() {
        let prog = parse("x = 1\n").unwrap();
        let mut interp = Interp::new(Mode::Vanilla);
        interp.run_reference(&prog).unwrap();
        assert_eq!(interp.env.get("x").unwrap().as_i64().unwrap(), 1);

        let store = flor_chkpt::CheckpointStore::open(tmproot("reference-mode")).unwrap();
        let mut replay = Interp::new(replay_ctx(std::sync::Arc::new(store), &[]));
        let err = replay.run_reference(&prog).unwrap_err();
        assert!(matches!(err, FlorError::Runtime(_)), "{err:?}");
        assert!(err.to_string().contains("vanilla"), "{err}");
        assert!(replay.env.try_get("x").is_none(), "nothing executed");
    }
}
