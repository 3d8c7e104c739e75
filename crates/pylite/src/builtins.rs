//! Built-in functions and methods of the PyLite runtime.
//!
//! Builtins are dispatched by name. Functions that interact with the
//! scheduler (`sleep`, `join`, `lock.acquire`) return
//! [`BuiltinFlow::Block`] and are resumed by the machine's wake-up logic.

use crate::machine::{BuiltinFlow, Machine, Wait};
use crate::value::{BufferObj, ExcObj, HandleObj, IterObj, TaskId, Value};
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Exception kinds exposed as global constructors.
pub const EXCEPTION_KINDS: &[&str] = &[
    "Exception",
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "RuntimeError",
    "TimeoutError",
    "ZeroDivisionError",
    "AssertionError",
    "ConnectionError",
    "IOError",
    "OverflowError",
    "BufferOverflowError",
    "NameError",
    "UnboundLocalError",
    "RecursionError",
    "StopIteration",
    "NotImplementedError",
    "PermissionError",
];

/// Names of all builtin functions (used by code analysis to distinguish
/// calls into user code from calls into the runtime).
pub const BUILTIN_FUNCTIONS: &[&str] = &[
    "print",
    "len",
    "range",
    "str",
    "int",
    "float",
    "bool",
    "abs",
    "min",
    "max",
    "sum",
    "sorted",
    "enumerate",
    "type",
    "repr",
    "sleep",
    "now",
    "spawn",
    "join",
    "lock",
    "open_handle",
    "make_buffer",
    "rand_int",
    "rand_float",
];

/// Resolves a global name against the builtin namespace.
pub(crate) fn lookup(name: &str) -> Option<Value> {
    if let Some(kind) = EXCEPTION_KINDS.iter().find(|k| **k == name) {
        return Some(Value::ExcCtor(Rc::from(*kind)));
    }
    BUILTIN_FUNCTIONS
        .iter()
        .find(|f| **f == name)
        .map(|f| Value::Builtin(f))
}

fn raise(kind: &str, msg: impl Into<String>) -> BuiltinFlow {
    BuiltinFlow::Raise(Value::exc(kind, msg))
}

fn arity_error(name: &str, expect: &str, got: usize) -> BuiltinFlow {
    raise(
        "TypeError",
        format!("{name}() expects {expect} arguments, got {got}"),
    )
}

/// Invokes a builtin function.
pub(crate) fn call(m: &mut Machine, tid: TaskId, name: &str, args: Vec<Value>) -> BuiltinFlow {
    match name {
        "print" => {
            let line: Vec<String> = args.iter().map(|a| a.py_str()).collect();
            m.print_line(&line.join(" "));
            BuiltinFlow::Value(Value::None)
        }
        "len" => match args.first().and_then(|v| v.py_len()) {
            Some(n) if args.len() == 1 => BuiltinFlow::Value(Value::Int(n as i64)),
            _ if args.len() != 1 => arity_error("len", "1", args.len()),
            _ => raise(
                "TypeError",
                format!("object of type {} has no len()", args[0].type_name()),
            ),
        },
        "range" => {
            let ints: Option<Vec<i64>> = args
                .iter()
                .map(|a| match a {
                    Value::Int(i) => Some(*i),
                    _ => None,
                })
                .collect();
            let Some(ints) = ints else {
                return raise("TypeError", "range() arguments must be integers");
            };
            let (start, stop, step) = match ints.as_slice() {
                [stop] => (0, *stop, 1),
                [start, stop] => (*start, *stop, 1),
                [start, stop, step] => (*start, *stop, *step),
                _ => return arity_error("range", "1..3", args.len()),
            };
            if step == 0 {
                return raise("ValueError", "range() step must not be zero");
            }
            BuiltinFlow::Value(Value::Iter(Rc::new(RefCell::new(IterObj::Range {
                next: start,
                stop,
                step,
            }))))
        }
        "str" => match args.len() {
            0 => BuiltinFlow::Value(Value::str("")),
            1 => BuiltinFlow::Value(Value::str(args[0].py_str())),
            n => arity_error("str", "0..1", n),
        },
        "repr" => match args.len() {
            1 => BuiltinFlow::Value(Value::str(args[0].repr())),
            n => arity_error("repr", "1", n),
        },
        "int" => match args.as_slice() {
            [Value::Int(i)] => BuiltinFlow::Value(Value::Int(*i)),
            [Value::Float(f)] => BuiltinFlow::Value(Value::Int(*f as i64)),
            [Value::Bool(b)] => BuiltinFlow::Value(Value::Int(*b as i64)),
            [Value::Str(s)] => match s.trim().parse::<i64>() {
                Ok(i) => BuiltinFlow::Value(Value::Int(i)),
                Err(_) => raise(
                    "ValueError",
                    format!("invalid literal for int(): {:?}", s.as_ref()),
                ),
            },
            [other] => raise(
                "TypeError",
                format!(
                    "int() argument must be numeric or string, not {}",
                    other.type_name()
                ),
            ),
            _ => arity_error("int", "1", args.len()),
        },
        "float" => match args.as_slice() {
            [Value::Int(i)] => BuiltinFlow::Value(Value::Float(*i as f64)),
            [Value::Float(f)] => BuiltinFlow::Value(Value::Float(*f)),
            [Value::Bool(b)] => BuiltinFlow::Value(Value::Float(*b as i64 as f64)),
            [Value::Str(s)] => match s.trim().parse::<f64>() {
                Ok(f) => BuiltinFlow::Value(Value::Float(f)),
                Err(_) => raise(
                    "ValueError",
                    format!("could not convert string to float: {:?}", s.as_ref()),
                ),
            },
            [other] => raise(
                "TypeError",
                format!(
                    "float() argument must be numeric or string, not {}",
                    other.type_name()
                ),
            ),
            _ => arity_error("float", "1", args.len()),
        },
        "bool" => match args.as_slice() {
            [v] => BuiltinFlow::Value(Value::Bool(v.truthy())),
            _ => arity_error("bool", "1", args.len()),
        },
        "abs" => match args.as_slice() {
            [Value::Int(i)] => BuiltinFlow::Value(Value::Int(i.abs())),
            [Value::Float(f)] => BuiltinFlow::Value(Value::Float(f.abs())),
            [other] => raise(
                "TypeError",
                format!("bad operand type for abs(): {}", other.type_name()),
            ),
            _ => arity_error("abs", "1", args.len()),
        },
        "min" | "max" => {
            let want_min = name == "min";
            let items: Vec<Value> = match args.as_slice() {
                [Value::List(l)] => l.borrow().clone(),
                [Value::Tuple(t)] => t.as_ref().clone(),
                [] => return arity_error(name, "1+", 0),
                _ => args,
            };
            if items.is_empty() {
                return raise("ValueError", format!("{name}() of empty sequence"));
            }
            let mut best = items[0].clone();
            for v in &items[1..] {
                match v.py_cmp(&best) {
                    Some(ord) => {
                        if (want_min && ord.is_lt()) || (!want_min && ord.is_gt()) {
                            best = v.clone();
                        }
                    }
                    None => return raise("TypeError", format!("{name}() got incomparable values")),
                }
            }
            BuiltinFlow::Value(best)
        }
        "sum" => {
            let items: Vec<Value> = match args.as_slice() {
                [Value::List(l)] => l.borrow().clone(),
                [Value::Tuple(t)] => t.as_ref().clone(),
                _ => return raise("TypeError", "sum() expects a list or tuple"),
            };
            let mut acc = Value::Int(0);
            for v in items {
                match crate::ops::binary(crate::ast::BinOp::Add, &acc, &v) {
                    Ok(r) => acc = r,
                    Err(e) => return BuiltinFlow::Raise(e),
                }
            }
            BuiltinFlow::Value(acc)
        }
        "sorted" => {
            let mut items: Vec<Value> = match args.as_slice() {
                [Value::List(l)] => l.borrow().clone(),
                [Value::Tuple(t)] => t.as_ref().clone(),
                _ => return raise("TypeError", "sorted() expects a list or tuple"),
            };
            let mut fail = false;
            items.sort_by(|a, b| {
                a.py_cmp(b).unwrap_or_else(|| {
                    fail = true;
                    std::cmp::Ordering::Equal
                })
            });
            if fail {
                return raise("TypeError", "sorted() got incomparable values");
            }
            BuiltinFlow::Value(Value::list(items))
        }
        "enumerate" => {
            let items: Vec<Value> = match args.as_slice() {
                [Value::List(l)] => l.borrow().clone(),
                [Value::Tuple(t)] => t.as_ref().clone(),
                _ => return raise("TypeError", "enumerate() expects a list or tuple"),
            };
            let pairs: Vec<Value> = items
                .into_iter()
                .enumerate()
                .map(|(i, v)| Value::Tuple(Rc::new(vec![Value::Int(i as i64), v])))
                .collect();
            BuiltinFlow::Value(Value::list(pairs))
        }
        "type" => match args.as_slice() {
            [v] => BuiltinFlow::Value(Value::str(v.type_name())),
            _ => arity_error("type", "1", args.len()),
        },
        "sleep" => {
            let secs = match args.as_slice() {
                [Value::Int(i)] => *i as f64,
                [Value::Float(f)] => *f,
                _ => return raise("TypeError", "sleep() expects a number of seconds"),
            };
            if secs < 0.0 {
                return raise("ValueError", "sleep() duration must be non-negative");
            }
            let wake_at = m.clock + secs;
            m.note_sleep(secs, wake_at);
            BuiltinFlow::Block(Wait::Sleep { wake_at })
        }
        "now" => {
            m.note_effect();
            BuiltinFlow::Value(Value::Float(m.clock))
        }
        "spawn" => {
            let mut args = args;
            if args.is_empty() {
                return arity_error("spawn", "1+", 0);
            }
            let func = args.remove(0);
            match func {
                Value::Func(f) => match m.spawn_task(f, args) {
                    Ok(id) => BuiltinFlow::Value(Value::Task(id)),
                    Err(e) => BuiltinFlow::Raise(e),
                },
                other => raise(
                    "TypeError",
                    format!(
                        "spawn() first argument must be a function, not {}",
                        other.type_name()
                    ),
                ),
            }
        }
        "join" => match args.as_slice() {
            [Value::Task(t)] => {
                if *t == tid {
                    return raise("RuntimeError", "a task cannot join itself");
                }
                if !m.task_exists(*t) {
                    return raise("ValueError", "join() of unknown task");
                }
                BuiltinFlow::Block(Wait::Join(*t))
            }
            _ => raise("TypeError", "join() expects a task handle"),
        },
        "lock" => BuiltinFlow::Value(Value::Lock(m.new_lock())),
        "open_handle" => {
            let name = match args.as_slice() {
                [Value::Str(s)] => s.to_string(),
                _ => return raise("TypeError", "open_handle() expects a name string"),
            };
            m.note_effect();
            let id = m.next_handle;
            m.next_handle += 1;
            let h = Rc::new(HandleObj {
                id,
                name,
                closed: std::cell::Cell::new(false),
                written: RefCell::new(Vec::new()),
            });
            m.handles.push(h.clone());
            BuiltinFlow::Value(Value::Handle(h))
        }
        "make_buffer" => {
            let cap = match args.as_slice() {
                [Value::Int(i)] if *i >= 0 => *i as usize,
                _ => {
                    return raise(
                        "ValueError",
                        "make_buffer() expects a non-negative capacity",
                    )
                }
            };
            BuiltinFlow::Value(Value::Buffer(Rc::new(RefCell::new(BufferObj {
                data: Vec::new(),
                capacity: cap,
            }))))
        }
        "rand_int" => match args.as_slice() {
            [Value::Int(lo), Value::Int(hi)] if lo < hi => {
                m.note_effect();
                let v = m.rng.gen_range(*lo..*hi);
                BuiltinFlow::Value(Value::Int(v))
            }
            _ => raise("ValueError", "rand_int(lo, hi) requires lo < hi"),
        },
        "rand_float" => {
            m.note_effect();
            let v: f64 = m.rng.gen();
            BuiltinFlow::Value(Value::Float(v))
        }
        other => raise("NameError", format!("unknown builtin `{other}`")),
    }
}

/// Writes `value` at `index` in a bounded buffer, recording an overflow
/// report and raising `BufferOverflowError` when the write is past
/// capacity.
pub(crate) fn buffer_write(
    m: &mut Machine,
    buf: &Rc<RefCell<BufferObj>>,
    index: &Value,
    value: Value,
) -> Result<(), Value> {
    let i = match index {
        Value::Int(i) => *i,
        _ => return Err(Value::exc("TypeError", "buffer index must be an integer")),
    };
    let mut b = buf.borrow_mut();
    if i < 0 || i as usize >= b.capacity {
        let cap = b.capacity;
        drop(b);
        m.note_overflow(i, cap);
        return Err(Value::exc(
            "BufferOverflowError",
            format!("write at index {i} beyond buffer capacity {cap}"),
        ));
    }
    let i = i as usize;
    if i >= b.data.len() {
        b.data.resize(i + 1, Value::None);
    }
    b.data[i] = value;
    Ok(())
}

/// Produces the iterator protocol value for `for` loops.
pub(crate) fn make_iter(v: &Value) -> Result<Value, Value> {
    let it = match v {
        Value::Iter(it) => return Ok(Value::Iter(it.clone())),
        Value::List(l) => IterObj::Items {
            items: l.borrow().clone(),
            index: 0,
        },
        Value::Tuple(t) => IterObj::Items {
            items: t.as_ref().clone(),
            index: 0,
        },
        Value::Dict(d) => IterObj::Items {
            items: d.borrow().iter().map(|(k, _)| k.clone()).collect(),
            index: 0,
        },
        Value::Str(s) => IterObj::Chars {
            chars: s.chars().collect(),
            index: 0,
        },
        other => {
            return Err(Value::exc(
                "TypeError",
                format!("{} is not iterable", other.type_name()),
            ))
        }
    };
    Ok(Value::Iter(Rc::new(RefCell::new(it))))
}

/// Invokes a method on a receiver value.
pub(crate) fn call_method(
    m: &mut Machine,
    tid: TaskId,
    recv: &Value,
    method: &str,
    args: Vec<Value>,
) -> BuiltinFlow {
    match recv {
        Value::List(l) => list_method(m, tid, recv, l, method, args),
        Value::Dict(d) => dict_method(m, tid, recv, d, method, args),
        Value::Str(s) => str_method(s, method, args),
        Value::Buffer(b) => buffer_method(m, tid, recv, b, method, args),
        Value::Handle(h) => handle_method(h, method, args),
        Value::Lock(id) => lock_method(m, tid, *id, method, args),
        Value::Exc(e) => exc_method(e, method, args),
        other => raise(
            "TypeError",
            format!("{} has no method `{method}`", other.type_name()),
        ),
    }
}

fn list_method(
    m: &mut Machine,
    tid: TaskId,
    recv: &Value,
    l: &Rc<RefCell<Vec<Value>>>,
    method: &str,
    args: Vec<Value>,
) -> BuiltinFlow {
    let write = matches!(
        method,
        "append" | "pop" | "insert" | "remove" | "extend" | "sort" | "reverse" | "clear"
    );
    m.record_object_access(tid, recv, write);
    match (method, args.as_slice()) {
        ("append", [v]) => {
            l.borrow_mut().push(v.clone());
            BuiltinFlow::Value(Value::None)
        }
        ("pop", []) => match l.borrow_mut().pop() {
            Some(v) => BuiltinFlow::Value(v),
            None => raise("IndexError", "pop from empty list"),
        },
        ("pop", [Value::Int(i)]) => {
            let mut list = l.borrow_mut();
            let len = list.len() as i64;
            let idx = if *i < 0 { i + len } else { *i };
            if idx < 0 || idx >= len {
                drop(list);
                raise("IndexError", format!("pop index {i} out of range"))
            } else {
                BuiltinFlow::Value(list.remove(idx as usize))
            }
        }
        ("insert", [Value::Int(i), v]) => {
            let mut list = l.borrow_mut();
            let idx = (*i).clamp(0, list.len() as i64) as usize;
            list.insert(idx, v.clone());
            BuiltinFlow::Value(Value::None)
        }
        ("remove", [v]) => {
            let mut list = l.borrow_mut();
            match list.iter().position(|x| x.py_eq(v)) {
                Some(i) => {
                    list.remove(i);
                    BuiltinFlow::Value(Value::None)
                }
                None => {
                    drop(list);
                    raise("ValueError", "list.remove(x): x not in list")
                }
            }
        }
        ("extend", [Value::List(other)]) => {
            let extra = other.borrow().clone();
            l.borrow_mut().extend(extra);
            BuiltinFlow::Value(Value::None)
        }
        ("index", [v]) => match l.borrow().iter().position(|x| x.py_eq(v)) {
            Some(i) => BuiltinFlow::Value(Value::Int(i as i64)),
            None => raise("ValueError", "value not in list"),
        },
        ("count", [v]) => {
            let n = l.borrow().iter().filter(|x| x.py_eq(v)).count();
            BuiltinFlow::Value(Value::Int(n as i64))
        }
        ("sort", []) => {
            let mut fail = false;
            l.borrow_mut().sort_by(|a, b| {
                a.py_cmp(b).unwrap_or_else(|| {
                    fail = true;
                    std::cmp::Ordering::Equal
                })
            });
            if fail {
                raise("TypeError", "sort() got incomparable values")
            } else {
                BuiltinFlow::Value(Value::None)
            }
        }
        ("reverse", []) => {
            l.borrow_mut().reverse();
            BuiltinFlow::Value(Value::None)
        }
        ("clear", []) => {
            l.borrow_mut().clear();
            BuiltinFlow::Value(Value::None)
        }
        ("copy", []) => BuiltinFlow::Value(Value::list(l.borrow().clone())),
        _ => raise(
            "TypeError",
            format!(
                "list has no method `{method}` with {} arguments",
                args.len()
            ),
        ),
    }
}

fn dict_method(
    m: &mut Machine,
    tid: TaskId,
    recv: &Value,
    d: &Rc<RefCell<Vec<(Value, Value)>>>,
    method: &str,
    args: Vec<Value>,
) -> BuiltinFlow {
    let write = matches!(method, "pop" | "clear" | "update" | "setdefault");
    m.record_object_access(tid, recv, write);
    match (method, args.as_slice()) {
        ("get", [k]) => {
            let d = d.borrow();
            let v = d
                .iter()
                .find(|(ek, _)| ek.py_eq(k))
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::None);
            BuiltinFlow::Value(v)
        }
        ("get", [k, default]) => {
            let d = d.borrow();
            let v = d
                .iter()
                .find(|(ek, _)| ek.py_eq(k))
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| default.clone());
            BuiltinFlow::Value(v)
        }
        ("keys", []) => BuiltinFlow::Value(Value::list(
            d.borrow().iter().map(|(k, _)| k.clone()).collect(),
        )),
        ("values", []) => BuiltinFlow::Value(Value::list(
            d.borrow().iter().map(|(_, v)| v.clone()).collect(),
        )),
        ("items", []) => BuiltinFlow::Value(Value::list(
            d.borrow()
                .iter()
                .map(|(k, v)| Value::Tuple(Rc::new(vec![k.clone(), v.clone()])))
                .collect(),
        )),
        ("pop", [k]) => {
            let mut dict = d.borrow_mut();
            match dict.iter().position(|(ek, _)| ek.py_eq(k)) {
                Some(i) => BuiltinFlow::Value(dict.remove(i).1),
                None => {
                    drop(dict);
                    raise("KeyError", k.repr())
                }
            }
        }
        ("pop", [k, default]) => {
            let mut dict = d.borrow_mut();
            match dict.iter().position(|(ek, _)| ek.py_eq(k)) {
                Some(i) => BuiltinFlow::Value(dict.remove(i).1),
                None => BuiltinFlow::Value(default.clone()),
            }
        }
        ("clear", []) => {
            d.borrow_mut().clear();
            BuiltinFlow::Value(Value::None)
        }
        ("update", [Value::Dict(other)]) => {
            let pairs = other.borrow().clone();
            let mut dict = d.borrow_mut();
            for (k, v) in pairs {
                if let Some(slot) = dict.iter_mut().find(|(ek, _)| ek.py_eq(&k)) {
                    slot.1 = v;
                } else {
                    dict.push((k, v));
                }
            }
            BuiltinFlow::Value(Value::None)
        }
        ("setdefault", [k, default]) => {
            let mut dict = d.borrow_mut();
            if let Some((_, v)) = dict.iter().find(|(ek, _)| ek.py_eq(k)) {
                BuiltinFlow::Value(v.clone())
            } else {
                dict.push((k.clone(), default.clone()));
                BuiltinFlow::Value(default.clone())
            }
        }
        _ => raise(
            "TypeError",
            format!(
                "dict has no method `{method}` with {} arguments",
                args.len()
            ),
        ),
    }
}

fn str_method(s: &Rc<str>, method: &str, args: Vec<Value>) -> BuiltinFlow {
    match (method, args.as_slice()) {
        ("split", []) => {
            BuiltinFlow::Value(Value::list(s.split_whitespace().map(Value::str).collect()))
        }
        ("split", [Value::Str(sep)]) => {
            BuiltinFlow::Value(Value::list(s.split(sep.as_ref()).map(Value::str).collect()))
        }
        ("join", [Value::List(items)]) => {
            let mut parts = Vec::new();
            for v in items.borrow().iter() {
                match v {
                    Value::Str(p) => parts.push(p.to_string()),
                    other => {
                        return raise(
                            "TypeError",
                            format!("join() requires strings, got {}", other.type_name()),
                        )
                    }
                }
            }
            BuiltinFlow::Value(Value::str(parts.join(s)))
        }
        ("upper", []) => BuiltinFlow::Value(Value::str(s.to_uppercase())),
        ("lower", []) => BuiltinFlow::Value(Value::str(s.to_lowercase())),
        ("strip", []) => BuiltinFlow::Value(Value::str(s.trim())),
        ("startswith", [Value::Str(p)]) => {
            BuiltinFlow::Value(Value::Bool(s.starts_with(p.as_ref())))
        }
        ("endswith", [Value::Str(p)]) => BuiltinFlow::Value(Value::Bool(s.ends_with(p.as_ref()))),
        ("replace", [Value::Str(from), Value::Str(to)]) => {
            BuiltinFlow::Value(Value::str(s.replace(from.as_ref(), to.as_ref())))
        }
        ("find", [Value::Str(sub)]) => {
            let idx = s.find(sub.as_ref()).map(|i| i as i64).unwrap_or(-1);
            BuiltinFlow::Value(Value::Int(idx))
        }
        ("count", [Value::Str(sub)]) => {
            let n = if sub.is_empty() {
                0
            } else {
                s.matches(sub.as_ref()).count()
            };
            BuiltinFlow::Value(Value::Int(n as i64))
        }
        ("isdigit", []) => BuiltinFlow::Value(Value::Bool(
            !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()),
        )),
        _ => raise(
            "TypeError",
            format!("str has no method `{method}` with {} arguments", args.len()),
        ),
    }
}

fn buffer_method(
    m: &mut Machine,
    tid: TaskId,
    recv: &Value,
    b: &Rc<RefCell<BufferObj>>,
    method: &str,
    args: Vec<Value>,
) -> BuiltinFlow {
    let write = matches!(method, "append" | "write" | "clear");
    m.record_object_access(tid, recv, write);
    match (method, args.as_slice()) {
        ("append", [v]) => {
            let (len, cap) = {
                let b = b.borrow();
                (b.data.len(), b.capacity)
            };
            if len >= cap {
                m.note_overflow(len as i64, cap);
                raise(
                    "BufferOverflowError",
                    format!("append beyond buffer capacity {cap}"),
                )
            } else {
                b.borrow_mut().data.push(v.clone());
                BuiltinFlow::Value(Value::None)
            }
        }
        ("write", [index, v]) => match buffer_write(m, b, index, v.clone()) {
            Ok(()) => BuiltinFlow::Value(Value::None),
            Err(e) => BuiltinFlow::Raise(e),
        },
        ("read", [Value::Int(i)]) => {
            let b = b.borrow();
            if *i < 0 || *i as usize >= b.data.len() {
                let msg = format!("buffer read index {i} out of range (len {})", b.data.len());
                drop(b);
                raise("IndexError", msg)
            } else {
                BuiltinFlow::Value(b.data[*i as usize].clone())
            }
        }
        ("size", []) => BuiltinFlow::Value(Value::Int(b.borrow().data.len() as i64)),
        ("capacity", []) => BuiltinFlow::Value(Value::Int(b.borrow().capacity as i64)),
        ("clear", []) => {
            b.borrow_mut().data.clear();
            BuiltinFlow::Value(Value::None)
        }
        _ => raise(
            "TypeError",
            format!(
                "buffer has no method `{method}` with {} arguments",
                args.len()
            ),
        ),
    }
}

fn handle_method(h: &Rc<HandleObj>, method: &str, args: Vec<Value>) -> BuiltinFlow {
    match (method, args.as_slice()) {
        ("close", []) => {
            h.closed.set(true);
            BuiltinFlow::Value(Value::None)
        }
        ("is_closed", []) => BuiltinFlow::Value(Value::Bool(h.closed.get())),
        ("name", []) => BuiltinFlow::Value(Value::str(h.name.as_str())),
        ("write", [v]) => {
            if h.closed.get() {
                raise("IOError", format!("write to closed handle `{}`", h.name))
            } else {
                h.written.borrow_mut().push(v.clone());
                BuiltinFlow::Value(Value::None)
            }
        }
        ("read_all", []) => BuiltinFlow::Value(Value::list(h.written.borrow().clone())),
        _ => raise(
            "TypeError",
            format!(
                "handle has no method `{method}` with {} arguments",
                args.len()
            ),
        ),
    }
}

fn lock_method(
    m: &mut Machine,
    tid: TaskId,
    lock: crate::value::LockId,
    method: &str,
    args: Vec<Value>,
) -> BuiltinFlow {
    if !m.lock_exists(lock) {
        return raise("RuntimeError", "unknown lock");
    }
    match (method, args.as_slice()) {
        ("acquire", []) => {
            if m.try_acquire(tid, lock) {
                BuiltinFlow::Value(Value::Bool(true))
            } else {
                BuiltinFlow::Block(Wait::Lock(lock))
            }
        }
        ("release", []) => match m.release_lock(tid, lock) {
            Ok(()) => BuiltinFlow::Value(Value::None),
            Err(e) => BuiltinFlow::Raise(e),
        },
        ("locked", []) => BuiltinFlow::Value(Value::Bool(!m.try_peek_free(lock))),
        _ => raise(
            "TypeError",
            format!(
                "lock has no method `{method}` with {} arguments",
                args.len()
            ),
        ),
    }
}

fn exc_method(e: &Rc<ExcObj>, method: &str, args: Vec<Value>) -> BuiltinFlow {
    match (method, args.as_slice()) {
        ("kind", []) => BuiltinFlow::Value(Value::str(e.kind.as_str())),
        ("message", []) => BuiltinFlow::Value(Value::str(e.message.as_str())),
        _ => raise(
            "TypeError",
            format!(
                "exception has no method `{method}` with {} arguments",
                args.len()
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};

    #[test]
    fn lookup_finds_builtins_and_exceptions() {
        assert!(matches!(lookup("print"), Some(Value::Builtin("print"))));
        assert!(matches!(lookup("TimeoutError"), Some(Value::ExcCtor(_))));
        assert!(lookup("definitely_not_a_builtin").is_none());
    }

    #[test]
    fn builtin_type_and_conversions() {
        let mut m = Machine::new(MachineConfig::default());
        let out = m
            .run_source("print(type(1), type(\"s\"), type([]))\nprint(int(\"42\") + 1)\nprint(float(\"2.5\"))\nprint(bool(0), bool(\"x\"))\n")
            .unwrap();
        assert_eq!(out.output, "int str list\n43\n2.5\nFalse True\n");
    }

    #[test]
    fn min_max_sum_sorted() {
        let mut m = Machine::new(MachineConfig::default());
        let out = m
            .run_source("l = [3, 1, 2]\nprint(min(l), max(l), sum(l))\nprint(sorted(l))\nprint(min(4, 2, 8))\n")
            .unwrap();
        assert_eq!(out.output, "1 3 6\n[1, 2, 3]\n2\n");
    }

    #[test]
    fn int_parse_error_raises_value_error() {
        let mut m = Machine::new(MachineConfig::default());
        let out = m
            .run_source("try:\n    int(\"abc\")\nexcept ValueError:\n    print(\"bad int\")\n")
            .unwrap();
        assert_eq!(out.output, "bad int\n");
    }

    #[test]
    fn range_with_step() {
        let mut m = Machine::new(MachineConfig::default());
        let out = m
            .run_source("v = []\nfor i in range(10, 0, -3):\n    v.append(i)\nprint(v)\n")
            .unwrap();
        assert_eq!(out.output, "[10, 7, 4, 1]\n");
    }

    #[test]
    fn enumerate_pairs() {
        let mut m = Machine::new(MachineConfig::default());
        let out = m
            .run_source("for i, v in enumerate([\"a\", \"b\"]):\n    print(i, v)\n")
            .unwrap();
        assert_eq!(out.output, "0 a\n1 b\n");
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let run = |seed| {
            let mut m = Machine::new(MachineConfig {
                seed,
                ..MachineConfig::default()
            });
            m.run_source("print(rand_int(0, 1000))\n").unwrap().output
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn handle_write_after_close_raises() {
        let mut m = Machine::new(MachineConfig::default());
        let out = m
            .run_source("h = open_handle(\"f\")\nh.close()\ntry:\n    h.write(1)\nexcept IOError:\n    print(\"closed\")\n")
            .unwrap();
        assert_eq!(out.output, "closed\n");
    }

    #[test]
    fn str_methods() {
        let mut m = Machine::new(MachineConfig::default());
        let out = m
            .run_source("print(\"ab-cd\".replace(\"-\", \"+\"))\nprint(\"abc\".upper(), \"ABC\".lower())\nprint(\"hello\".find(\"ll\"), \"hello\".find(\"zz\"))\nprint(\"a b  c\".split())\nprint(\"123\".isdigit(), \"12a\".isdigit())\n")
            .unwrap();
        assert_eq!(
            out.output,
            "ab+cd\nABC abc\n2 -1\n[\"a\", \"b\", \"c\"]\nTrue False\n"
        );
    }
}
