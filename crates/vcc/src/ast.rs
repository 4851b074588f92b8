//! Abstract syntax for mini-C, the language of the virtine extensions.
//!
//! Mini-C is the subset of C the paper's clang/LLVM toolchain consumes,
//! reduced to what the virtine runtime and workloads need: `int` (64-bit),
//! `char`, pointers, arrays, structs, functions, the usual statements and
//! operators, string literals, `sizeof`, casts — plus the paper's function
//! annotations `virtine`, `virtine_permissive` and `virtine_config(name)`
//! (§5.3).

use std::collections::HashMap;
use std::fmt;

/// A mini-C type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// 8-bit byte (zero-extended on load).
    Char,
    /// No value (function returns, `void*` pointee).
    Void,
    /// Pointer to a pointee type.
    Ptr(Box<Type>),
    /// Fixed-size array.
    Array(Box<Type>, usize),
    /// A named struct.
    Struct(String),
}

impl Type {
    /// Pointer-to-self convenience.
    pub fn ptr(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// Whether values of this type occupy one byte in memory.
    pub fn is_byte(&self) -> bool {
        matches!(self, Type::Char)
    }

    /// Whether this behaves as a pointer in arithmetic (pointer or array).
    pub fn is_pointer_like(&self) -> bool {
        matches!(self, Type::Ptr(_) | Type::Array(..))
    }

    /// The pointee/element type for pointers and arrays.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            Type::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Size in bytes; structs are resolved through `structs`.
    ///
    /// # Panics
    ///
    /// Panics if a named struct is undefined (the parser guarantees
    /// definitions exist before use in sizeofs and declarations).
    pub fn size(&self, structs: &StructTable) -> u64 {
        match self {
            Type::Int | Type::Ptr(_) => 8,
            Type::Char => 1,
            Type::Void => 1, // As in GCC: void* arithmetic steps by 1.
            Type::Array(t, n) => t.size(structs) * *n as u64,
            Type::Struct(name) => {
                structs
                    .get(name)
                    .unwrap_or_else(|| panic!("undefined struct `{name}`"))
                    .size
            }
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Char => write!(f, "char"),
            Type::Void => write!(f, "void"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
            Type::Struct(n) => write!(f, "struct {n}"),
        }
    }
}

/// A struct definition with computed field offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Fields in declaration order: name, type, byte offset.
    pub fields: Vec<(String, Type, u64)>,
    /// Total size (8-byte aligned).
    pub size: u64,
}

impl StructDef {
    /// Looks up a field.
    pub fn field(&self, name: &str) -> Option<(&Type, u64)> {
        self.fields
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, t, off)| (t, *off))
    }
}

/// All struct definitions of a translation unit.
pub type StructTable = HashMap<String, StructDef>;

/// The virtine annotations of §5.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Annotation {
    /// Plain function.
    None,
    /// `virtine`: run in an isolated context, default-deny hypercalls.
    Virtine,
    /// `virtine_permissive`: all hypercalls allowed.
    VirtinePermissive,
    /// `virtine_config(name)`: policy supplied by the client under `name`.
    VirtineConfig(String),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    BitNot,
    /// Logical not.
    LogNot,
    /// Dereference.
    Deref,
    /// Address-of.
    AddrOf,
}

/// Expressions. Every node carries the 1-based source line for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer or character literal.
    Int(i64),
    /// String literal (becomes an interned read-only global).
    Str(Vec<u8>),
    /// Variable reference.
    Ident(String, usize),
    /// Unary operation.
    Unary(UnOp, Box<Expr>, usize),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>, usize),
    /// Assignment `lhs = rhs`.
    Assign(Box<Expr>, Box<Expr>, usize),
    /// Function call.
    Call(String, Vec<Expr>, usize),
    /// Array/pointer index `base[idx]`.
    Index(Box<Expr>, Box<Expr>, usize),
    /// Member access `base.field` (`arrow = false`) or `base->field`.
    Member(Box<Expr>, String, bool, usize),
    /// `sizeof(type)`.
    SizeofType(Type),
    /// Cast `(type)expr` (bit-identical; retypes the value).
    Cast(Type, Box<Expr>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local declaration with optional initializer.
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializer expression.
        init: Option<Expr>,
        /// Source line.
        line: usize,
    },
    /// Expression statement.
    Expr(Expr),
    /// `if`/`else`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then: Vec<Stmt>,
        /// Else-branch.
        els: Vec<Stmt>,
    },
    /// `while` loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `for` loop.
    For {
        /// Initializer (declaration or expression).
        init: Option<Box<Stmt>>,
        /// Condition (empty = true).
        cond: Option<Expr>,
        /// Post-iteration expression.
        post: Option<Expr>,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `return` with optional value.
    Return(Option<Expr>, usize),
    /// `break`.
    Break(usize),
    /// `continue`.
    Continue(usize),
    /// Braced block.
    Block(Vec<Stmt>),
}

/// Global variable initializer.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInit {
    /// Zero-initialized.
    Zero,
    /// Constant integer.
    Int(i64),
    /// String contents (for `char name[] = "..."`-style globals).
    Str(Vec<u8>),
    /// Brace-list of integer constants (for table globals like S-boxes).
    List(Vec<i64>),
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Initializer.
    pub init: GlobalInit,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters (name, type).
    pub params: Vec<(String, Type)>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Virtine annotation.
    pub annotation: Annotation,
    /// Source line of the definition.
    pub line: usize,
}

/// A function prototype (e.g. the `hypercall` assembly trampoline).
#[derive(Debug, Clone, PartialEq)]
pub struct Proto {
    /// Name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameter types.
    pub params: Vec<Type>,
}

/// A parsed translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Struct definitions.
    pub structs: StructTable,
    /// Global variables.
    pub globals: Vec<Global>,
    /// Function definitions.
    pub funcs: Vec<Func>,
    /// Prototypes without bodies.
    pub protos: Vec<Proto>,
}

impl Program {
    /// Finds a function definition by name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Names of all `virtine`-annotated functions.
    pub fn virtine_roots(&self) -> Vec<&Func> {
        self.funcs
            .iter()
            .filter(|f| f.annotation != Annotation::None)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(def: StructDef) -> StructTable {
        let mut t = StructTable::new();
        t.insert(def.name.clone(), def);
        t
    }

    #[test]
    fn scalar_sizes() {
        let t = StructTable::new();
        assert_eq!(Type::Int.size(&t), 8);
        assert_eq!(Type::Char.size(&t), 1);
        assert_eq!(Type::Int.ptr().size(&t), 8);
        assert_eq!(Type::Array(Box::new(Type::Char), 10).size(&t), 10);
        assert_eq!(Type::Array(Box::new(Type::Int), 4).size(&t), 32);
    }

    #[test]
    fn struct_sizes_resolve() {
        let def = StructDef {
            name: "pair".into(),
            fields: vec![("a".into(), Type::Int, 0), ("b".into(), Type::Int, 8)],
            size: 16,
        };
        let t = table_with(def);
        assert_eq!(Type::Struct("pair".into()).size(&t), 16);
        assert_eq!(Type::Struct("pair".into()).ptr().size(&t), 8);
    }

    #[test]
    fn field_lookup() {
        let def = StructDef {
            name: "s".into(),
            fields: vec![("x".into(), Type::Char, 0), ("y".into(), Type::Int, 8)],
            size: 16,
        };
        assert_eq!(def.field("y"), Some((&Type::Int, 8)));
        assert_eq!(def.field("z"), None);
    }

    #[test]
    fn pointer_classification() {
        assert!(Type::Int.ptr().is_pointer_like());
        assert!(Type::Array(Box::new(Type::Int), 3).is_pointer_like());
        assert!(!Type::Int.is_pointer_like());
        assert_eq!(Type::Char.ptr().pointee(), Some(&Type::Char));
    }
}
