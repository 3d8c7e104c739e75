//! Static analysis utilities over PyLite ASTs.
//!
//! These are shared by the fault-operator site scanner (`nfi-sfi`), the
//! NLP engine's code-context analysis (`nfi-nlp`), and the patching tool
//! (`nfi-inject`).

use crate::ast::*;
use std::collections::BTreeSet;

/// Summary of a function definition found in a module.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionInfo {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Number of statements in the body (all nesting levels).
    pub body_stmts: usize,
    /// Names of functions called from the body.
    pub calls: Vec<String>,
    /// Whether the body contains a `try` statement.
    pub has_try: bool,
    /// Whether the body contains a loop.
    pub has_loop: bool,
    /// Whether the body raises.
    pub has_raise: bool,
    /// `NodeId` of the `def` statement.
    pub id: NodeId,
    /// Source line of the `def`.
    pub line: u32,
}

/// A symbol table for a module: functions, global names, call sites.
#[derive(Debug, Clone, Default)]
pub struct ModuleIndex {
    /// Top-level function definitions, in source order.
    pub functions: Vec<FunctionInfo>,
    /// Global variable names assigned at module level.
    pub globals: Vec<String>,
    /// All distinct names referenced anywhere.
    pub referenced: BTreeSet<String>,
}

impl ModuleIndex {
    /// Builds the index for a module.
    pub fn build(module: &Module) -> Self {
        let mut index = ModuleIndex::default();
        for stmt in &module.body {
            match &stmt.kind {
                StmtKind::Def {
                    name, params, body, ..
                } => {
                    let mut calls = Vec::new();
                    let mut has_try = false;
                    let mut has_loop = false;
                    let mut has_raise = false;
                    let mut count = 0usize;
                    for s in body {
                        walk_count(s, &mut count, &mut has_try, &mut has_loop, &mut has_raise);
                    }
                    collect_calls_block(body, &mut calls);
                    calls.dedup();
                    index.functions.push(FunctionInfo {
                        name: name.clone(),
                        params: params.clone(),
                        body_stmts: count,
                        calls,
                        has_try,
                        has_loop,
                        has_raise,
                        id: stmt.id,
                        line: stmt.span.line,
                    });
                }
                StmtKind::Assign {
                    target: Target::Name(n),
                    ..
                } if !index.globals.contains(n) => {
                    index.globals.push(n.clone());
                }
                _ => {}
            }
        }
        module.walk_stmts(&mut |s| collect_names_stmt(s, &mut index.referenced));
        index
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&FunctionInfo> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Names of all functions.
    pub fn function_names(&self) -> Vec<&str> {
        self.functions.iter().map(|f| f.name.as_str()).collect()
    }

    /// Functions whose names start with `test_` (the harness convention).
    pub fn test_functions(&self) -> Vec<&str> {
        self.functions
            .iter()
            .filter(|f| f.name.starts_with("test_"))
            .map(|f| f.name.as_str())
            .collect()
    }
}

fn walk_count(
    stmt: &Stmt,
    count: &mut usize,
    has_try: &mut bool,
    has_loop: &mut bool,
    has_raise: &mut bool,
) {
    *count += 1;
    match &stmt.kind {
        StmtKind::Try { .. } => *has_try = true,
        StmtKind::While { .. } | StmtKind::For { .. } => *has_loop = true,
        StmtKind::Raise(_) => *has_raise = true,
        _ => {}
    }
    for block in stmt_blocks(stmt) {
        for s in block {
            walk_count(s, count, has_try, has_loop, has_raise);
        }
    }
}

fn collect_calls_block(body: &[Stmt], out: &mut Vec<String>) {
    for s in body {
        collect_calls_stmt(s, out);
    }
}

fn collect_calls_stmt(stmt: &Stmt, out: &mut Vec<String>) {
    visit_exprs_stmt(stmt, &mut |e| {
        if let ExprKind::Call { func, .. } = &e.kind {
            if let ExprKind::Name(n) = &func.kind {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
        }
    });
    for block in stmt_blocks(stmt) {
        for s in block {
            collect_calls_stmt(s, out);
        }
    }
}

fn collect_names_stmt(stmt: &Stmt, out: &mut BTreeSet<String>) {
    visit_exprs_stmt(stmt, &mut |e| {
        if let ExprKind::Name(n) = &e.kind {
            out.insert(n.clone());
        }
    });
}

/// Invokes `f` on every expression directly contained in a statement
/// (without descending into child statement blocks).
pub fn visit_exprs_stmt(stmt: &Stmt, f: &mut dyn FnMut(&Expr)) {
    match &stmt.kind {
        StmtKind::Expr(e) => visit_expr(e, f),
        StmtKind::Assign { target, value } => {
            visit_target(target, f);
            visit_expr(value, f);
        }
        StmtKind::AugAssign { target, value, .. } => {
            visit_target(target, f);
            visit_expr(value, f);
        }
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => visit_expr(cond, f),
        StmtKind::For { iter, .. } => visit_expr(iter, f),
        StmtKind::Def { defaults, .. } => {
            for d in defaults {
                visit_expr(d, f);
            }
        }
        StmtKind::Return(Some(e)) | StmtKind::Raise(Some(e)) => visit_expr(e, f),
        StmtKind::Assert { cond, msg } => {
            visit_expr(cond, f);
            if let Some(m) = msg {
                visit_expr(m, f);
            }
        }
        _ => {}
    }
}

fn visit_target(t: &Target, f: &mut dyn FnMut(&Expr)) {
    if let Target::Index { obj, index } = t {
        visit_expr(obj, f);
        visit_expr(index, f);
    }
}

/// Invokes `f` on an expression and all of its sub-expressions.
pub fn visit_expr(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Const(_) | ExprKind::Name(_) => {}
        ExprKind::Bin { left, right, .. }
        | ExprKind::Bool { left, right, .. }
        | ExprKind::Cmp { left, right, .. } => {
            visit_expr(left, f);
            visit_expr(right, f);
        }
        ExprKind::Unary { operand, .. } => visit_expr(operand, f),
        ExprKind::Call { func, args } => {
            visit_expr(func, f);
            for a in args {
                visit_expr(a, f);
            }
        }
        ExprKind::MethodCall { obj, args, .. } => {
            visit_expr(obj, f);
            for a in args {
                visit_expr(a, f);
            }
        }
        ExprKind::Index { obj, index } => {
            visit_expr(obj, f);
            visit_expr(index, f);
        }
        ExprKind::List(items) | ExprKind::Tuple(items) => {
            for i in items {
                visit_expr(i, f);
            }
        }
        ExprKind::Dict(pairs) => {
            for (k, v) in pairs {
                visit_expr(k, f);
                visit_expr(v, f);
            }
        }
        ExprKind::Ternary { cond, then, orelse } => {
            visit_expr(cond, f);
            visit_expr(then, f);
            visit_expr(orelse, f);
        }
    }
}

/// Mutable variant of [`visit_exprs_stmt`]: invokes `f` on every
/// expression directly contained in a statement.
pub fn visit_exprs_stmt_mut(stmt: &mut Stmt, f: &mut dyn FnMut(&mut Expr)) {
    match &mut stmt.kind {
        StmtKind::Expr(e) => visit_expr_mut(e, f),
        StmtKind::Assign { target, value } => {
            visit_target_mut(target, f);
            visit_expr_mut(value, f);
        }
        StmtKind::AugAssign { target, value, .. } => {
            visit_target_mut(target, f);
            visit_expr_mut(value, f);
        }
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => visit_expr_mut(cond, f),
        StmtKind::For { iter, .. } => visit_expr_mut(iter, f),
        StmtKind::Def { defaults, .. } => {
            for d in defaults {
                visit_expr_mut(d, f);
            }
        }
        StmtKind::Return(Some(e)) | StmtKind::Raise(Some(e)) => visit_expr_mut(e, f),
        StmtKind::Assert { cond, msg } => {
            visit_expr_mut(cond, f);
            if let Some(m) = msg {
                visit_expr_mut(m, f);
            }
        }
        _ => {}
    }
}

fn visit_target_mut(t: &mut Target, f: &mut dyn FnMut(&mut Expr)) {
    if let Target::Index { obj, index } = t {
        visit_expr_mut(obj, f);
        visit_expr_mut(index, f);
    }
}

/// Mutable variant of [`visit_expr`].
pub fn visit_expr_mut(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    f(e);
    match &mut e.kind {
        ExprKind::Const(_) | ExprKind::Name(_) => {}
        ExprKind::Bin { left, right, .. }
        | ExprKind::Bool { left, right, .. }
        | ExprKind::Cmp { left, right, .. } => {
            visit_expr_mut(left, f);
            visit_expr_mut(right, f);
        }
        ExprKind::Unary { operand, .. } => visit_expr_mut(operand, f),
        ExprKind::Call { func, args } => {
            visit_expr_mut(func, f);
            for a in args {
                visit_expr_mut(a, f);
            }
        }
        ExprKind::MethodCall { obj, args, .. } => {
            visit_expr_mut(obj, f);
            for a in args {
                visit_expr_mut(a, f);
            }
        }
        ExprKind::Index { obj, index } => {
            visit_expr_mut(obj, f);
            visit_expr_mut(index, f);
        }
        ExprKind::List(items) | ExprKind::Tuple(items) => {
            for i in items {
                visit_expr_mut(i, f);
            }
        }
        ExprKind::Dict(pairs) => {
            for (k, v) in pairs {
                visit_expr_mut(k, f);
                visit_expr_mut(v, f);
            }
        }
        ExprKind::Ternary { cond, then, orelse } => {
            visit_expr_mut(cond, f);
            visit_expr_mut(then, f);
            visit_expr_mut(orelse, f);
        }
    }
}

/// Invokes `f` on every statement block in the module (the module body and
/// every nested suite), innermost blocks last. `f` may insert or remove
/// statements; callers should renumber afterwards.
pub fn rewrite_blocks(module: &mut Module, f: &mut dyn FnMut(&mut Vec<Stmt>)) {
    fn rec(block: &mut Vec<Stmt>, f: &mut dyn FnMut(&mut Vec<Stmt>)) {
        f(block);
        for stmt in block {
            match &mut stmt.kind {
                StmtKind::If { then, orelse, .. } => {
                    rec(then, f);
                    rec(orelse, f);
                }
                StmtKind::While { body, .. }
                | StmtKind::For { body, .. }
                | StmtKind::Def { body, .. } => rec(body, f),
                StmtKind::Try {
                    body,
                    handlers,
                    finally,
                } => {
                    rec(body, f);
                    for h in handlers {
                        rec(&mut h.body, f);
                    }
                    rec(finally, f);
                }
                _ => {}
            }
        }
    }
    rec(&mut module.body, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = "\
inventory = {}
def add_item(name, qty):
    if qty < 0:
        raise ValueError(\"negative\")
    inventory[name] = qty

def total():
    t = 0
    for k, v in inventory.items():
        t += v
    return t

def test_add():
    add_item(\"a\", 3)
    assert total() == 3
";

    #[test]
    fn index_finds_functions_and_globals() {
        let m = parse(SRC).unwrap();
        let idx = ModuleIndex::build(&m);
        assert_eq!(idx.function_names(), vec!["add_item", "total", "test_add"]);
        assert!(idx.globals.contains(&"inventory".to_string()));
    }

    #[test]
    fn function_info_captures_structure() {
        let m = parse(SRC).unwrap();
        let idx = ModuleIndex::build(&m);
        let add = idx.function("add_item").unwrap();
        assert_eq!(add.params, vec!["name", "qty"]);
        assert!(add.has_raise);
        assert!(!add.has_loop);
        let total = idx.function("total").unwrap();
        assert!(total.has_loop);
        assert!(!total.has_raise);
    }

    #[test]
    fn call_graph_edges() {
        let m = parse(SRC).unwrap();
        let idx = ModuleIndex::build(&m);
        let t = idx.function("test_add").unwrap();
        assert!(t.calls.contains(&"add_item".to_string()));
        assert!(t.calls.contains(&"total".to_string()));
    }

    #[test]
    fn test_functions_by_convention() {
        let m = parse(SRC).unwrap();
        let idx = ModuleIndex::build(&m);
        assert_eq!(idx.test_functions(), vec!["test_add"]);
    }

    #[test]
    fn referenced_names_include_globals_and_params() {
        let m = parse(SRC).unwrap();
        let idx = ModuleIndex::build(&m);
        assert!(idx.referenced.contains("inventory"));
        assert!(idx.referenced.contains("qty"));
    }
}
