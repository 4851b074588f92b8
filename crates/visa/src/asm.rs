//! Two-pass assembler from VISA assembly text to binary images.
//!
//! The toolchain-generated binary a virtine runs is "a statically compiled
//! binar\[y\] containing all required software" (§2). This assembler is the
//! bottom of that toolchain: the `vcc` mini-C compiler emits assembly text,
//! and hand-written runtime stubs (boot code, `vlibc` primitives) are written
//! directly in it.
//!
//! # Syntax
//!
//! ```text
//! ; comment (also '#')
//! .org 0x8000            ; image base / load address
//! .equ PORT, 0x1         ; named constant
//! start:                 ; global label
//!     mov r1, 20
//!     call fib
//!     out PORT, r0
//!     hlt
//! fib:
//!     cmp r1, 2
//!     jl .base           ; ".name" is local to the enclosing global label
//!     ...
//! .base:
//!     mov r0, r1
//!     ret
//! msg: .asciz "hello"
//! tbl: .dq fib, start    ; labels allowed in .dq
//!     .space 64
//!     .align 8
//! ```
//!
//! Registers are `r0`–`r15`, with aliases `sp` (= `r15`) and `fp` (= `r14`).
//! Memory operands are `[base]`, `[base + off]` or `[base - off]` as in
//! `load.q r1, [r2 + 8]` and `store.b [r3], r4`.

use std::collections::HashMap;
use std::fmt;

use crate::inst::{Alu, Cond, CrReg, Inst, JmpMode, Reg, Width};

/// A fully assembled binary image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Guest address the image must be loaded at (`.org`).
    pub base: u64,
    /// Raw bytes of the image.
    pub bytes: Vec<u8>,
    /// Entry point (defaults to `base`).
    pub entry: u64,
    /// Every global label and its guest address.
    pub labels: HashMap<String, u64>,
}

impl Image {
    /// Address of a label.
    pub fn label(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Total image size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Pads the image with zero bytes up to `size` (used by the Figure 12
    /// image-size experiment, which "synthetically increase\[s\] image size by
    /// padding a minimal virtine image with zeroes").
    pub fn pad_to(&mut self, size: usize) {
        if size > self.bytes.len() {
            self.bytes.resize(size, 0);
        }
    }
}

/// An assembly diagnostic with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number the error was found on (0 for global errors).
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asm error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        msg: msg.into(),
    })
}

/// One operand as parsed from source.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    Reg(Reg),
    /// Numeric or symbolic expression (resolved in pass 2).
    Expr(Expr),
    /// `[base + off]`.
    Mem(Reg, Expr),
    /// `cr0` / `cr3` / `cr4`.
    Cr(CrReg),
}

/// A constant expression: sum of terms, where a term is a literal or symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expr {
    terms: Vec<(i64, Term)>, // (sign, term)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    Lit(i64),
    Sym(String),
}

impl Expr {
    fn lit(v: i64) -> Expr {
        Expr {
            terms: vec![(1, Term::Lit(v))],
        }
    }

    /// Evaluates against a symbol table; `None` if a symbol is undefined.
    fn eval(&self, syms: &HashMap<String, i64>) -> Option<i64> {
        let mut acc: i64 = 0;
        for (sign, term) in &self.terms {
            let v = match term {
                Term::Lit(v) => *v,
                Term::Sym(s) => *syms.get(s)?,
            };
            acc = acc.wrapping_add(sign.wrapping_mul(v));
        }
        Some(acc)
    }

    /// Name of the first unresolved symbol, for diagnostics.
    fn first_symbol(&self) -> Option<&str> {
        self.terms.iter().find_map(|(_, t)| match t {
            Term::Sym(s) => Some(s.as_str()),
            Term::Lit(_) => None,
        })
    }
}

/// One source statement after parsing.
#[derive(Debug, Clone, PartialEq)]
enum Stmt {
    /// Instruction mnemonic plus operands; encoded in pass 2.
    Inst {
        line: usize,
        mnemonic: String,
        operands: Vec<Operand>,
    },
    Data {
        line: usize,
        width: Width,
        values: Vec<Expr>,
    },
    Space {
        line: usize,
        bytes: u64,
    },
    Ascii {
        line: usize,
        bytes: Vec<u8>,
    },
    Align {
        line: usize,
        to: u64,
    },
}

/// Assembles VISA assembly source into an [`Image`].
///
/// # Examples
///
/// ```
/// let img = visa::asm::assemble(
///     ".org 0x8000\nstart: mov r0, 42\n hlt\n",
/// ).unwrap();
/// assert_eq!(img.base, 0x8000);
/// assert_eq!(img.label("start"), Some(0x8000));
/// ```
pub fn assemble(src: &str) -> Result<Image, AsmError> {
    let mut base: Option<u64> = None;
    let mut entry_label: Option<(usize, String)> = None;
    let mut equs: HashMap<String, i64> = HashMap::new();
    let mut stmts: Vec<(u64, Stmt)> = Vec::new(); // (address, stmt)
    let mut labels: HashMap<String, u64> = HashMap::new();
    let mut cursor: u64 = 0;
    let mut have_org = false;
    let mut current_global = String::new();

    // Pass 1: tokenize/parse every line, lay out addresses, collect labels.
    for (idx, raw_line) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line);
        let mut toks = tokenize(line, line_no)?;
        if toks.is_empty() {
            continue;
        }

        // Leading labels (possibly several on one line).
        while toks.len() >= 2 && matches!(toks[1], Tok::Colon) {
            let name = match &toks[0] {
                Tok::Ident(n) => n.clone(),
                other => return err(line_no, format!("bad label {other:?}")),
            };
            let full = qualify(&name, &current_global, line_no)?;
            if !name.starts_with('.') {
                current_global = name.clone();
            }
            if labels.insert(full.clone(), cursor).is_some() {
                return err(line_no, format!("duplicate label `{full}`"));
            }
            toks.drain(..2);
        }
        if toks.is_empty() {
            continue;
        }

        let head = match &toks[0] {
            Tok::Ident(n) => n.clone(),
            other => return err(line_no, format!("expected mnemonic, got {other:?}")),
        };
        let rest = &toks[1..];

        match head.as_str() {
            ".org" => {
                let v = parse_expr_tokens(rest, line_no)?
                    .eval(&equs)
                    .ok_or_else(|| AsmError {
                        line: line_no,
                        msg: ".org requires a constant expression".into(),
                    })?;
                if have_org {
                    return err(line_no, "duplicate .org");
                }
                have_org = true;
                base = Some(v as u64);
                cursor = v as u64;
            }
            ".entry" => {
                let name = expect_single_ident(rest, line_no)?;
                entry_label = Some((line_no, name));
            }
            ".equ" => {
                // .equ NAME, expr
                if rest.len() < 3 || !matches!(rest[1], Tok::Comma) {
                    return err(line_no, ".equ requires `NAME, value`");
                }
                let name = match &rest[0] {
                    Tok::Ident(n) => n.clone(),
                    other => return err(line_no, format!("bad .equ name {other:?}")),
                };
                let v = parse_expr_tokens(&rest[2..], line_no)?
                    .eval(&equs)
                    .ok_or_else(|| AsmError {
                        line: line_no,
                        msg: ".equ requires a constant expression".into(),
                    })?;
                equs.insert(name, v);
            }
            ".db" | ".dw" | ".dd" | ".dq" => {
                let width = match head.as_str() {
                    ".db" => Width::B,
                    ".dw" => Width::W,
                    ".dd" => Width::D,
                    _ => Width::Q,
                };
                let values = parse_expr_list(rest, line_no, &current_global)?;
                cursor += width.bytes() * values.len() as u64;
                stmts.push((
                    cursor - width.bytes() * values.len() as u64,
                    Stmt::Data {
                        line: line_no,
                        width,
                        values,
                    },
                ));
            }
            ".space" => {
                let v = parse_expr_tokens(rest, line_no)?
                    .eval(&equs)
                    .ok_or_else(|| AsmError {
                        line: line_no,
                        msg: ".space requires a constant expression".into(),
                    })?;
                if v < 0 {
                    return err(line_no, ".space size must be non-negative");
                }
                stmts.push((
                    cursor,
                    Stmt::Space {
                        line: line_no,
                        bytes: v as u64,
                    },
                ));
                cursor += v as u64;
            }
            ".ascii" | ".asciz" => {
                let mut bytes = match rest {
                    [Tok::Str(s)] => s.clone(),
                    _ => return err(line_no, format!("{head} requires one string literal")),
                };
                if head == ".asciz" {
                    bytes.push(0);
                }
                cursor += bytes.len() as u64;
                stmts.push((
                    cursor - bytes.len() as u64,
                    Stmt::Ascii {
                        line: line_no,
                        bytes,
                    },
                ));
            }
            ".align" => {
                let v = parse_expr_tokens(rest, line_no)?
                    .eval(&equs)
                    .ok_or_else(|| AsmError {
                        line: line_no,
                        msg: ".align requires a constant expression".into(),
                    })?;
                if v <= 0 || (v & (v - 1)) != 0 {
                    return err(line_no, ".align requires a positive power of two");
                }
                let to = v as u64;
                let aligned = cursor.div_ceil(to) * to;
                stmts.push((
                    cursor,
                    Stmt::Align {
                        line: line_no,
                        to: aligned - cursor,
                    },
                ));
                cursor = aligned;
            }
            _ if head.starts_with('.') => {
                return err(line_no, format!("unknown directive `{head}`"));
            }
            _ => {
                let operands = parse_operands(rest, line_no, &current_global)?;
                let size = encode_inst(&head, &operands, 0, &|_| Ok(0), line_no)?.len();
                stmts.push((
                    cursor,
                    Stmt::Inst {
                        line: line_no,
                        mnemonic: head,
                        operands,
                    },
                ));
                cursor += size;
            }
        }
    }

    let base = base.unwrap_or(0);

    // Merge labels and .equ constants into a single symbol table.
    let mut syms: HashMap<String, i64> = equs;
    for (name, addr) in &labels {
        if syms.insert(name.clone(), *addr as i64).is_some() {
            return err(0, format!("symbol `{name}` defined as both label and .equ"));
        }
    }

    // Pass 2: encode.
    let total = (cursor - base) as usize;
    let mut bytes = vec![0u8; total];
    for (addr, stmt) in &stmts {
        let off = (*addr - base) as usize;
        match stmt {
            Stmt::Inst {
                line,
                mnemonic,
                operands,
            } => {
                let resolve = |e: &Expr| eval_or_err(e, &syms, *line);
                let inst = encode_inst(mnemonic, operands, *addr, &resolve, *line)?;
                let mut buf = Vec::with_capacity(10);
                inst.encode(&mut buf);
                bytes[off..off + buf.len()].copy_from_slice(&buf);
            }
            Stmt::Data {
                line,
                width,
                values,
            } => {
                let mut o = off;
                for v in values {
                    let val = eval_or_err(v, &syms, *line)? as u64;
                    let le = val.to_le_bytes();
                    let n = width.bytes() as usize;
                    bytes[o..o + n].copy_from_slice(&le[..n]);
                    o += n;
                }
            }
            Stmt::Space { .. } | Stmt::Align { .. } => {} // Already zeroed.
            Stmt::Ascii { bytes: b, .. } => {
                bytes[off..off + b.len()].copy_from_slice(b);
            }
        }
    }

    let entry = match entry_label {
        Some((line, name)) => match labels.get(&name) {
            Some(a) => *a,
            None => return err(line, format!(".entry label `{name}` is undefined")),
        },
        None => base,
    };

    Ok(Image {
        base,
        bytes,
        entry,
        labels,
    })
}

fn eval_or_err(e: &Expr, syms: &HashMap<String, i64>, line: usize) -> Result<i64, AsmError> {
    e.eval(syms).ok_or_else(|| AsmError {
        line,
        msg: format!(
            "undefined symbol `{}`",
            e.first_symbol().unwrap_or("<expr>")
        ),
    })
}

/// Expands a local label (`.name`) into `global.name`.
fn qualify(name: &str, current_global: &str, line: usize) -> Result<String, AsmError> {
    if let Some(local) = name.strip_prefix('.') {
        if current_global.is_empty() {
            return err(
                line,
                format!("local label `.{local}` before any global label"),
            );
        }
        Ok(format!("{current_global}.{local}"))
    } else {
        Ok(name.to_string())
    }
}

// ---------------------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num(i64),
    Str(Vec<u8>),
    Comma,
    Colon,
    LBracket,
    RBracket,
    Plus,
    Minus,
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ';' | '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn tokenize(line: &str, line_no: usize) -> Result<Vec<Tok>, AsmError> {
    let mut toks = Vec::new();
    let b = line.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '"' => {
                let mut s = Vec::new();
                i += 1;
                loop {
                    if i >= b.len() {
                        return err(line_no, "unterminated string literal");
                    }
                    match b[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' => {
                            i += 1;
                            if i >= b.len() {
                                return err(line_no, "bad escape at end of line");
                            }
                            s.push(unescape(b[i], line_no)?);
                            i += 1;
                        }
                        other => {
                            s.push(other);
                            i += 1;
                        }
                    }
                }
                toks.push(Tok::Str(s));
            }
            '\'' => {
                // Character literal: 'a' or '\n'.
                i += 1;
                if i >= b.len() {
                    return err(line_no, "unterminated char literal");
                }
                let v = if b[i] == b'\\' {
                    i += 1;
                    if i >= b.len() {
                        return err(line_no, "bad escape in char literal");
                    }
                    unescape(b[i], line_no)?
                } else {
                    b[i]
                };
                i += 1;
                if i >= b.len() || b[i] != b'\'' {
                    return err(line_no, "unterminated char literal");
                }
                i += 1;
                toks.push(Tok::Num(v as i64));
            }
            '0'..='9' => {
                let start = i;
                if c == '0' && i + 1 < b.len() && (b[i + 1] == b'x' || b[i + 1] == b'X') {
                    i += 2;
                    while i < b.len() && (b[i] as char).is_ascii_hexdigit() {
                        i += 1;
                    }
                    let text = &line[start + 2..i];
                    let v = u64::from_str_radix(text, 16).map_err(|_| AsmError {
                        line: line_no,
                        msg: format!("bad hex literal `{text}`"),
                    })?;
                    toks.push(Tok::Num(v as i64));
                } else {
                    while i < b.len() && (b[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                    let text = &line[start..i];
                    let v: i64 = text.parse().map_err(|_| AsmError {
                        line: line_no,
                        msg: format!("bad decimal literal `{text}`"),
                    })?;
                    toks.push(Tok::Num(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '.' => {
                let start = i;
                i += 1;
                while i < b.len() {
                    let ch = b[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' || ch == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(line[start..i].to_string()));
            }
            other => return err(line_no, format!("unexpected character `{other}`")),
        }
    }
    Ok(toks)
}

fn unescape(c: u8, line_no: usize) -> Result<u8, AsmError> {
    Ok(match c {
        b'n' => b'\n',
        b'r' => b'\r',
        b't' => b'\t',
        b'0' => 0,
        b'\\' => b'\\',
        b'"' => b'"',
        b'\'' => b'\'',
        other => return err(line_no, format!("unknown escape `\\{}`", other as char)),
    })
}

// ---------------------------------------------------------------------------
// Operand parsing.
// ---------------------------------------------------------------------------

fn reg_name(name: &str) -> Option<Reg> {
    match name {
        "sp" => Some(Reg::SP),
        "fp" => Some(Reg::FP),
        _ => {
            let rest = name.strip_prefix('r')?;
            let idx: u8 = rest.parse().ok()?;
            if (idx as usize) < Reg::COUNT {
                Some(Reg(idx))
            } else {
                None
            }
        }
    }
}

fn cr_name(name: &str) -> Option<CrReg> {
    match name {
        "cr0" => Some(CrReg::Cr0),
        "cr3" => Some(CrReg::Cr3),
        "cr4" => Some(CrReg::Cr4),
        _ => None,
    }
}

fn parse_expr_tokens(toks: &[Tok], line: usize) -> Result<Expr, AsmError> {
    let (expr, used) = parse_expr_prefix(toks, line, "")?;
    if used != toks.len() {
        return err(line, "trailing tokens after expression");
    }
    Ok(expr)
}

/// Parses an expression at the start of `toks`; returns it and the number of
/// tokens consumed. Local symbols (`.x`) are qualified against `global`.
fn parse_expr_prefix(toks: &[Tok], line: usize, global: &str) -> Result<(Expr, usize), AsmError> {
    let mut terms = Vec::new();
    let mut i = 0;
    let mut sign: i64 = 1;
    // Optional leading sign.
    loop {
        match toks.get(i) {
            Some(Tok::Minus) => {
                sign = -sign;
                i += 1;
            }
            Some(Tok::Plus) => i += 1,
            _ => break,
        }
    }
    loop {
        match toks.get(i) {
            Some(Tok::Num(v)) => {
                terms.push((sign, Term::Lit(*v)));
                i += 1;
            }
            Some(Tok::Ident(name)) => {
                let qualified = qualify(name, global, line)?;
                terms.push((sign, Term::Sym(qualified)));
                i += 1;
            }
            other => return err(line, format!("expected expression, got {other:?}")),
        }
        match toks.get(i) {
            Some(Tok::Plus) => {
                sign = 1;
                i += 1;
            }
            Some(Tok::Minus) => {
                sign = -1;
                i += 1;
            }
            _ => break,
        }
    }
    Ok((Expr { terms }, i))
}

fn parse_expr_list(toks: &[Tok], line: usize, global: &str) -> Result<Vec<Expr>, AsmError> {
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        let (e, used) = parse_expr_prefix(&toks[i..], line, global)?;
        out.push(e);
        i += used;
        match toks.get(i) {
            None => break,
            Some(Tok::Comma) => i += 1,
            other => return err(line, format!("expected `,`, got {other:?}")),
        }
    }
    Ok(out)
}

fn expect_single_ident(toks: &[Tok], line: usize) -> Result<String, AsmError> {
    match toks {
        [Tok::Ident(n)] => Ok(n.clone()),
        _ => err(line, "expected a single identifier"),
    }
}

fn parse_operands(toks: &[Tok], line: usize, global: &str) -> Result<Vec<Operand>, AsmError> {
    let mut out = Vec::new();
    let mut i = 0;
    if toks.is_empty() {
        return Ok(out);
    }
    loop {
        match toks.get(i) {
            Some(Tok::Ident(name)) if reg_name(name).is_some() => {
                out.push(Operand::Reg(reg_name(name).expect("checked")));
                i += 1;
            }
            Some(Tok::Ident(name)) if cr_name(name).is_some() => {
                out.push(Operand::Cr(cr_name(name).expect("checked")));
                i += 1;
            }
            Some(Tok::LBracket) => {
                i += 1;
                let base = match toks.get(i) {
                    Some(Tok::Ident(n)) if reg_name(n).is_some() => reg_name(n).expect("checked"),
                    other => {
                        return err(
                            line,
                            format!("memory operand needs a base register, got {other:?}"),
                        )
                    }
                };
                i += 1;
                let off = match toks.get(i) {
                    Some(Tok::RBracket) => {
                        i += 1;
                        Expr::lit(0)
                    }
                    Some(Tok::Plus) | Some(Tok::Minus) => {
                        let (e, used) = parse_expr_prefix(&toks[i..], line, global)?;
                        i += used;
                        match toks.get(i) {
                            Some(Tok::RBracket) => i += 1,
                            other => return err(line, format!("expected `]`, got {other:?}")),
                        }
                        e
                    }
                    other => return err(line, format!("expected `]` or offset, got {other:?}")),
                };
                out.push(Operand::Mem(base, off));
            }
            Some(_) => {
                let (e, used) = parse_expr_prefix(&toks[i..], line, global)?;
                out.push(Operand::Expr(e));
                i += used;
            }
            None => return err(line, "expected operand"),
        }
        match toks.get(i) {
            None => break,
            Some(Tok::Comma) => i += 1,
            other => return err(line, format!("expected `,`, got {other:?}")),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Instruction selection.
// ---------------------------------------------------------------------------

fn alu_mnemonic(m: &str) -> Option<Alu> {
    Some(match m {
        "add" => Alu::Add,
        "sub" => Alu::Sub,
        "mul" => Alu::Mul,
        "div" => Alu::Div,
        "mod" => Alu::Mod,
        "and" => Alu::And,
        "or" => Alu::Or,
        "xor" => Alu::Xor,
        "shl" => Alu::Shl,
        "shr" => Alu::Shr,
        "sar" => Alu::Sar,
        _ => return None,
    })
}

fn cond_mnemonic(m: &str) -> Option<Cond> {
    Some(match m {
        "je" => Cond::Eq,
        "jne" => Cond::Ne,
        "jl" => Cond::Lt,
        "jle" => Cond::Le,
        "jg" => Cond::Gt,
        "jge" => Cond::Ge,
        "jb" => Cond::B,
        "jbe" => Cond::Be,
        "ja" => Cond::A,
        "jae" => Cond::Ae,
        _ => return None,
    })
}

fn width_suffix(m: &str) -> Option<(&str, Width)> {
    if let Some(stem) = m.strip_suffix(".b") {
        Some((stem, Width::B))
    } else if let Some(stem) = m.strip_suffix(".w") {
        Some((stem, Width::W))
    } else if let Some(stem) = m.strip_suffix(".d") {
        Some((stem, Width::D))
    } else if let Some(stem) = m.strip_suffix(".q") {
        Some((stem, Width::Q))
    } else {
        None
    }
}

/// Selects and builds the instruction `m ops` names at `addr`, evaluating
/// operand expressions through `resolve`. An instruction's size depends on
/// its mnemonic and operand *kinds* only — never on a symbol's value or on
/// `addr` — so pass 1 lays out addresses by encoding against a resolver
/// that yields 0 for every expression (at `addr` 0, where no branch is out
/// of range) and taking [`Inst::len`]; pass 2 encodes for real.
fn encode_inst(
    m: &str,
    ops: &[Operand],
    addr: u64,
    resolve: &dyn Fn(&Expr) -> Result<i64, AsmError>,
    line: usize,
) -> Result<Inst, AsmError> {
    let imm = |e: &Expr| -> Result<u64, AsmError> { Ok(resolve(e)? as u64) };
    let rel = |e: &Expr, next: u64| -> Result<i32, AsmError> {
        let target = resolve(e)? as u64;
        let delta = target.wrapping_sub(next) as i64;
        i32::try_from(delta).map_err(|_| AsmError {
            line,
            msg: format!("branch target {target:#x} out of ±2GiB range"),
        })
    };

    Ok(match m {
        "nop" => Inst::Nop,
        "hlt" => Inst::Hlt,
        "ret" => Inst::Ret,
        "mov" => match ops {
            [Operand::Reg(d), Operand::Reg(s)] => Inst::MovRR(*d, *s),
            [Operand::Reg(d), Operand::Expr(e)] => Inst::MovRI(*d, imm(e)?),
            [Operand::Cr(cr), Operand::Reg(s)] => Inst::MovCr(*cr, *s),
            [Operand::Reg(d), Operand::Cr(cr)] => Inst::MovRCr(*d, *cr),
            _ => return err(line, "bad mov operands"),
        },
        _ if alu_mnemonic(m).is_some() => {
            let alu = alu_mnemonic(m).expect("checked");
            match ops {
                [Operand::Reg(d), Operand::Reg(s)] => Inst::AluRR(alu, *d, *s),
                [Operand::Reg(d), Operand::Expr(e)] => Inst::AluRI(alu, *d, imm(e)?),
                _ => return err(line, format!("bad {m} operands")),
            }
        }
        "neg" => match ops {
            [Operand::Reg(r)] => Inst::Neg(*r),
            _ => return err(line, "bad neg operand"),
        },
        "not" => match ops {
            [Operand::Reg(r)] => Inst::Not(*r),
            _ => return err(line, "bad not operand"),
        },
        "push" => match ops {
            [Operand::Reg(r)] => Inst::Push(*r),
            _ => return err(line, "bad push operand"),
        },
        "pop" => match ops {
            [Operand::Reg(r)] => Inst::Pop(*r),
            _ => return err(line, "bad pop operand"),
        },
        "cmp" => match ops {
            [Operand::Reg(a), Operand::Reg(b)] => Inst::CmpRR(*a, *b),
            [Operand::Reg(a), Operand::Expr(e)] => Inst::CmpRI(*a, imm(e)?),
            _ => return err(line, "bad cmp operands"),
        },
        "jmp" => match ops {
            [Operand::Reg(r)] => Inst::JmpR(*r),
            [Operand::Expr(e)] => Inst::Jmp(rel(e, addr + 5)?),
            _ => return err(line, "bad jmp operand"),
        },
        _ if cond_mnemonic(m).is_some() => {
            let c = cond_mnemonic(m).expect("checked");
            match ops {
                [Operand::Expr(e)] => Inst::Jcc(c, rel(e, addr + 6)?),
                _ => return err(line, format!("bad {m} operand")),
            }
        }
        "call" => match ops {
            [Operand::Reg(r)] => Inst::CallR(*r),
            [Operand::Expr(e)] => Inst::Call(rel(e, addr + 5)?),
            _ => return err(line, "bad call operand"),
        },
        _ if width_suffix(m).is_some() => {
            let (stem, w) = width_suffix(m).expect("checked");
            match (stem, ops) {
                ("load", [Operand::Reg(d), Operand::Mem(b, off)]) => {
                    let o = resolve(off)?;
                    let o = i32::try_from(o).map_err(|_| AsmError {
                        line,
                        msg: "memory offset out of i32 range".into(),
                    })?;
                    Inst::Load(w, *d, *b, o)
                }
                ("store", [Operand::Mem(b, off), Operand::Reg(s)]) => {
                    let o = resolve(off)?;
                    let o = i32::try_from(o).map_err(|_| AsmError {
                        line,
                        msg: "memory offset out of i32 range".into(),
                    })?;
                    Inst::Store(w, *b, o, *s)
                }
                _ => return err(line, format!("bad {m} operands")),
            }
        }
        "in" => match ops {
            [Operand::Reg(d), Operand::Expr(e)] => {
                let p = imm(e)?;
                Inst::In(*d, p as u16)
            }
            _ => return err(line, "bad in operands (want `in reg, port`)"),
        },
        "out" => match ops {
            [Operand::Expr(e), Operand::Reg(s)] => {
                let p = imm(e)?;
                Inst::Out(p as u16, *s)
            }
            _ => return err(line, "bad out operands (want `out port, reg`)"),
        },
        "lgdt" => match ops {
            [Operand::Expr(e)] => Inst::Lgdt(imm(e)?),
            _ => return err(line, "bad lgdt operand"),
        },
        "wrmsr" => match ops {
            [Operand::Expr(e), Operand::Reg(s)] => Inst::Wrmsr(imm(e)? as u32, *s),
            _ => return err(line, "bad wrmsr operands (want `wrmsr msr, reg`)"),
        },
        "ljmp16" | "ljmp32" | "ljmp64" => {
            let mode = match m {
                "ljmp16" => JmpMode::Real16,
                "ljmp32" => JmpMode::Prot32,
                _ => JmpMode::Long64,
            };
            match ops {
                [Operand::Expr(e)] => Inst::Ljmp(mode, imm(e)?),
                _ => return err(line, format!("bad {m} operand")),
            }
        }
        "mark" => match ops {
            [Operand::Expr(e)] => Inst::Mark(imm(e)? as u8),
            _ => return err(line, "bad mark operand"),
        },
        other => return err(line, format!("unknown mnemonic `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    fn decode_all(img: &Image) -> Vec<Inst> {
        let mut out = Vec::new();
        let mut off = 0usize;
        while off < img.bytes.len() {
            let (inst, len) = Inst::decode(&img.bytes[off..]).expect("decode");
            out.push(inst);
            off += len as usize;
        }
        out
    }

    #[test]
    fn assembles_minimal_program() {
        let img = assemble(".org 0x8000\nstart:\n  mov r0, 42\n  hlt\n").unwrap();
        assert_eq!(img.base, 0x8000);
        assert_eq!(img.entry, 0x8000);
        assert_eq!(img.label("start"), Some(0x8000));
        let insts = decode_all(&img);
        assert_eq!(insts, vec![Inst::MovRI(Reg(0), 42), Inst::Hlt]);
    }

    #[test]
    fn forward_references_resolve() {
        let img = assemble(".org 0\n  jmp end\n  mov r0, 1\nend:\n  hlt\n").unwrap();
        let insts = decode_all(&img);
        // jmp is 5 bytes, mov is 10; relative target = 15 - 5 = 10.
        assert_eq!(insts[0], Inst::Jmp(10));
        assert_eq!(insts[2], Inst::Hlt);
    }

    #[test]
    fn local_labels_are_scoped() {
        let src = "
.org 0
f:
  jmp .done
.done:
  ret
g:
  jmp .done
.done:
  hlt
";
        let img = assemble(src).unwrap();
        assert!(img.label("f.done").is_some());
        assert!(img.label("g.done").is_some());
        let insts = decode_all(&img);
        assert_eq!(insts[0], Inst::Jmp(0)); // f's jmp to next inst.
        assert_eq!(insts[2], Inst::Jmp(0)); // g's jmp to next inst.
    }

    #[test]
    fn equ_constants_and_char_literals() {
        let src = ".org 0\n.equ PORT, 0x42\n  out PORT, r1\n  mov r0, 'A'\n  hlt\n";
        let img = assemble(src).unwrap();
        let insts = decode_all(&img);
        assert_eq!(insts[0], Inst::Out(0x42, Reg(1)));
        assert_eq!(insts[1], Inst::MovRI(Reg(0), 65));
    }

    #[test]
    fn data_directives_lay_out_bytes() {
        let src = "
.org 0x100
blob: .db 1, 2, 3
word: .dw 0x1234
quad: .dq blob + 1
text: .asciz \"hi\\n\"
      .align 8
aligned: .dq 7
";
        let img = assemble(src).unwrap();
        assert_eq!(img.label("blob"), Some(0x100));
        assert_eq!(&img.bytes[0..3], &[1, 2, 3]);
        assert_eq!(img.label("word"), Some(0x103));
        assert_eq!(&img.bytes[3..5], &[0x34, 0x12]);
        let quad_off = (img.label("quad").unwrap() - 0x100) as usize;
        assert_eq!(
            u64::from_le_bytes(img.bytes[quad_off..quad_off + 8].try_into().unwrap()),
            0x101
        );
        let text_off = (img.label("text").unwrap() - 0x100) as usize;
        assert_eq!(&img.bytes[text_off..text_off + 4], b"hi\n\0");
        let a = img.label("aligned").unwrap();
        assert_eq!(a % 8, 0);
    }

    #[test]
    fn memory_operands_parse_offsets() {
        let src = ".org 0\n load.q r1, [r2 + 8]\n store.b [r3 - 4], r5\n load.d r6, [sp]\n hlt\n";
        let img = assemble(src).unwrap();
        let insts = decode_all(&img);
        assert_eq!(insts[0], Inst::Load(Width::Q, Reg(1), Reg(2), 8));
        assert_eq!(insts[1], Inst::Store(Width::B, Reg(3), -4, Reg(5)));
        assert_eq!(insts[2], Inst::Load(Width::D, Reg(6), Reg::SP, 0));
    }

    #[test]
    fn entry_directive_overrides_base() {
        let src = ".org 0x8000\n.entry main\n  nop\nmain:\n  hlt\n";
        let img = assemble(src).unwrap();
        assert_eq!(img.entry, 0x8001);
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble(".org 0\nx:\nx:\n  hlt\n").unwrap_err();
        assert!(e.msg.contains("duplicate label"));
    }

    #[test]
    fn undefined_symbol_is_an_error() {
        let e = assemble(".org 0\n  jmp nowhere\n").unwrap_err();
        assert!(e.msg.contains("undefined symbol"), "{}", e.msg);
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unknown_mnemonic_is_an_error() {
        let e = assemble(".org 0\n  frobnicate r0\n").unwrap_err();
        assert!(e.msg.contains("unknown mnemonic"));
    }

    #[test]
    fn pad_to_extends_with_zeroes() {
        let mut img = assemble(".org 0\n  hlt\n").unwrap();
        let orig = img.size();
        img.pad_to(4096);
        assert_eq!(img.size(), 4096);
        assert!(img.bytes[orig..].iter().all(|&b| b == 0));
        // Padding never shrinks.
        img.pad_to(16);
        assert_eq!(img.size(), 4096);
    }

    #[test]
    fn mode_transition_mnemonics() {
        let src = "
.org 0
.equ EFER, 0xC0000080
  lgdt gdt
  mov cr0, r1
  mov r2, cr0
  wrmsr EFER, r3
  ljmp32 prot
prot:
  ljmp64 longm
longm:
  hlt
gdt: .dq 0
";
        let img = assemble(src).unwrap();
        let insts = decode_all(&img);
        assert!(matches!(insts[0], Inst::Lgdt(_)));
        assert_eq!(insts[1], Inst::MovCr(CrReg::Cr0, Reg(1)));
        assert_eq!(insts[2], Inst::MovRCr(Reg(2), CrReg::Cr0));
        assert!(matches!(insts[3], Inst::Wrmsr(0xC0000080, Reg(3))));
        assert!(matches!(insts[4], Inst::Ljmp(JmpMode::Prot32, _)));
        assert!(matches!(insts[5], Inst::Ljmp(JmpMode::Long64, _)));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "; full line\n.org 0 ; trailing\n# hash comment\n  hlt # after\n";
        let img = assemble(src).unwrap();
        assert_eq!(decode_all(&img), vec![Inst::Hlt]);
    }

    #[test]
    fn string_with_semicolon_not_treated_as_comment() {
        let img = assemble(".org 0\ns: .asciz \"a;b\"\n").unwrap();
        assert_eq!(&img.bytes[..4], b"a;b\0");
    }
}
