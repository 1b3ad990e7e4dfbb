//! Parser for the textual IR format produced by [`crate::print`].
//!
//! The parser performs two passes so that bodies may reference methods and
//! selectors declared later in the file: first all classes, fields and
//! method signatures are registered, then bodies are parsed. Operation
//! names come from `MNEMONICS`, the printer's table, and each instruction
//! is typed by [`Graph::result_type`] as it is read: an instruction that
//! rule refuses is a [`ParseError`] at the instruction's position.
//!
//! ```
//! let src = r#"
//! fn inc(int) -> int {
//! b0(v0: int):
//!   v1 = const.int 1
//!   v2 = iadd v0, v1
//!   ret v2
//! }
//! "#;
//! let program = incline_ir::parse::parse_program(src)?;
//! let m = program.function_by_name("inc").unwrap();
//! assert_eq!(program.method(m).graph.size(), 4);
//! # Ok::<(), incline_ir::parse::ParseError>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::graph::{CallInfo, CallTarget, DeoptReason, Graph, Op, Terminator, MNEMONICS};
use crate::ids::{BlockId, CallSiteId, ClassId, MethodId, ValueId};
use crate::program::Program;
use crate::types::{ElemType, RetType, Type};

/// A parse failure with source position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl Error for ParseError {}

// ---- lexer ------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    ColonColon,
    Comma,
    Dot,
    Eq,
    Arrow,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(k) => write!(f, "integer {k}"),
            Tok::Float(k) => write!(f, "float {k}"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::ColonColon => write!(f, "`::`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    line: u32,
    col: u32,
}

fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    let mut col = 1u32;
    let err = |line: u32, col: u32, m: String| ParseError {
        line,
        col,
        message: m,
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        let (tl, tc) = (line, col);
        let mut push = |tok: Tok| {
            out.push(Spanned {
                tok,
                line: tl,
                col: tc,
            })
        };
        match c {
            '\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '#' | ';' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                push(Tok::LBrace);
                i += 1;
                col += 1;
            }
            '}' => {
                push(Tok::RBrace);
                i += 1;
                col += 1;
            }
            '(' => {
                push(Tok::LParen);
                i += 1;
                col += 1;
            }
            ')' => {
                push(Tok::RParen);
                i += 1;
                col += 1;
            }
            '[' => {
                push(Tok::LBracket);
                i += 1;
                col += 1;
            }
            ']' => {
                push(Tok::RBracket);
                i += 1;
                col += 1;
            }
            ',' => {
                push(Tok::Comma);
                i += 1;
                col += 1;
            }
            '.' => {
                push(Tok::Dot);
                i += 1;
                col += 1;
            }
            '=' => {
                push(Tok::Eq);
                i += 1;
                col += 1;
            }
            ':' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b':' {
                    push(Tok::ColonColon);
                    i += 2;
                    col += 2;
                } else {
                    push(Tok::Colon);
                    i += 1;
                    col += 1;
                }
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    push(Tok::Arrow);
                    i += 2;
                    col += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                    let (tok, len) = lex_number(&src[i..]).map_err(|m| err(line, col, m))?;
                    push(tok);
                    i += len;
                    col += len as u32;
                } else {
                    return Err(err(line, col, "unexpected `-`".to_string()));
                }
            }
            c if c.is_ascii_digit() => {
                let (tok, len) = lex_number(&src[i..]).map_err(|m| err(line, col, m))?;
                push(tok);
                i += len;
                col += len as u32;
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[start..i];
                col += (i - start) as u32;
                match word {
                    "NaN" => push(Tok::Float(f64::NAN)),
                    "inf" => push(Tok::Float(f64::INFINITY)),
                    _ => push(Tok::Ident(word.to_string())),
                }
            }
            other => return Err(err(line, col, format!("unexpected character `{other}`"))),
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

fn lex_number(rest: &str) -> Result<(Tok, usize), String> {
    let bytes = rest.as_bytes();
    let mut i = 0;
    if bytes[0] == b'-' {
        i += 1;
    }
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_float = false;
    if i < bytes.len() && bytes[i] == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &rest[..i];
    if is_float {
        text.parse::<f64>()
            .map(|f| (Tok::Float(f), i))
            .map_err(|e| e.to_string())
    } else {
        text.parse::<i64>()
            .map(|k| (Tok::Int(k), i))
            .map_err(|e| e.to_string())
    }
}

// ---- parser -----------------------------------------------------------

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn next(&mut self) -> Spanned {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> (u32, u32) {
        (self.toks[self.pos].line, self.toks[self.pos].col)
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let (line, col) = self.here();
        Err(ParseError {
            line,
            col,
            message: message.into(),
        })
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        if *self.peek() == want {
            self.next();
            Ok(())
        } else {
            self.fail(format!("expected {want}, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            other => self.fail(format!("expected identifier, found {other}")),
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == word) {
            self.next();
            true
        } else {
            false
        }
    }
}

/// Parses a whole program from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input,
/// references to unknown classes/fields/methods, or duplicate definitions.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut program = Program::new();

    // Pass 1: signatures. Remember (method, body-token-start) pairs.
    let mut bodies: Vec<(MethodId, usize)> = Vec::new();
    loop {
        match p.peek().clone() {
            Tok::Eof => break,
            Tok::Ident(w) if w == "class" => parse_class(&mut p, &mut program)?,
            Tok::Ident(w) if w == "fn" || w == "method" || w == "opaque" => {
                let (m, body_start) = parse_signature(&mut p, &mut program)?;
                bodies.push((m, body_start));
                skip_body(&mut p)?;
            }
            other => return p.fail(format!("expected `class`, `fn` or `method`, found {other}")),
        }
    }

    // Pass 2: bodies.
    for (m, start) in bodies {
        p.pos = start;
        let graph = parse_body(&mut p, &program, m)?;
        program.define_method(m, graph);
    }
    Ok(program)
}

fn parse_class(p: &mut Parser, program: &mut Program) -> Result<(), ParseError> {
    p.expect(Tok::Ident("class".into()))?;
    let name = p.ident()?;
    let parent = if *p.peek() == Tok::Colon {
        p.next();
        let pname = p.ident()?;
        match program.class_by_name(&pname) {
            Some(c) => Some(c),
            None => return p.fail(format!("unknown parent class `{pname}`")),
        }
    } else {
        None
    };
    if program.class_by_name(&name).is_some() {
        return p.fail(format!("duplicate class `{name}`"));
    }
    let class = program.add_class(name, parent);
    if *p.peek() == Tok::LBrace {
        p.next();
        while p.eat_ident("field") {
            let fname = p.ident()?;
            p.expect(Tok::Colon)?;
            let ty = parse_type(p, program)?;
            program.add_field(class, fname, ty);
        }
        p.expect(Tok::RBrace)?;
    }
    Ok(())
}

fn parse_type(p: &mut Parser, program: &Program) -> Result<Type, ParseError> {
    if *p.peek() == Tok::LBracket {
        p.next();
        let elem = parse_elem_type(p, program)?;
        p.expect(Tok::RBracket)?;
        return Ok(Type::Array(elem));
    }
    let name = p.ident()?;
    match name.as_str() {
        "int" => Ok(Type::Int),
        "float" => Ok(Type::Float),
        "bool" => Ok(Type::Bool),
        _ => match program.class_by_name(&name) {
            Some(c) => Ok(Type::Object(c)),
            None => p.fail(format!("unknown type `{name}`")),
        },
    }
}

/// An array's element type, written as the type it stores.
fn parse_elem_type(p: &mut Parser, program: &Program) -> Result<ElemType, ParseError> {
    Ok(match parse_type(p, program)? {
        Type::Int => ElemType::Int,
        Type::Float => ElemType::Float,
        Type::Bool => ElemType::Bool,
        Type::Object(c) => ElemType::Object(c),
        Type::Array(_) => return p.fail("arrays do not nest"),
    })
}

fn parse_class_name(p: &mut Parser, program: &Program) -> Result<ClassId, ParseError> {
    let name = p.ident()?;
    match program.class_by_name(&name) {
        Some(c) => Ok(c),
        None => p.fail(format!("unknown class `{name}`")),
    }
}

fn parse_ret_type(p: &mut Parser, program: &Program) -> Result<RetType, ParseError> {
    if p.eat_ident("void") {
        Ok(RetType::Void)
    } else {
        Ok(RetType::Value(parse_type(p, program)?))
    }
}

/// Parses `fn name(types) -> ret {` or `method Class.name(types) -> ret {`
/// and returns the declared method plus the token index of the body.
fn parse_signature(p: &mut Parser, program: &mut Program) -> Result<(MethodId, usize), ParseError> {
    let opaque = p.eat_ident("opaque");
    let (holder, name) = if p.eat_ident("fn") {
        (None, p.ident()?)
    } else if p.eat_ident("method") {
        let c = parse_class_name(p, program)?;
        p.expect(Tok::Dot)?;
        (Some(c), p.ident()?)
    } else {
        return p.fail("expected `fn` or `method`");
    };
    p.expect(Tok::LParen)?;
    let mut params = Vec::new();
    if *p.peek() != Tok::RParen {
        loop {
            params.push(parse_type(p, program)?);
            if *p.peek() == Tok::Comma {
                p.next();
            } else {
                break;
            }
        }
    }
    p.expect(Tok::RParen)?;
    p.expect(Tok::Arrow)?;
    let ret = parse_ret_type(p, program)?;
    let m = match holder {
        None => {
            if program.function_by_name(&name).is_some() {
                return p.fail(format!("duplicate function `{name}`"));
            }
            program.declare_function(name, params, ret)
        }
        Some(c) => {
            if params.first() != Some(&Type::Object(c)) {
                return p.fail("method's first parameter must be the receiver of the holder class");
            }
            program.declare_method(c, name, params[1..].to_vec(), ret)
        }
    };
    if opaque {
        program.set_opaque(m);
    }
    p.expect(Tok::LBrace)?;
    Ok((m, p.pos))
}

/// Skips over a body (from just after `{` to just after the matching `}`).
fn skip_body(p: &mut Parser) -> Result<(), ParseError> {
    let mut depth = 1usize;
    loop {
        match p.peek() {
            Tok::LBrace => depth += 1,
            Tok::RBrace => {
                depth -= 1;
                if depth == 0 {
                    p.next();
                    return Ok(());
                }
            }
            Tok::Eof => return p.fail("unterminated body"),
            _ => {}
        }
        p.next();
    }
}

struct BodyCx<'a> {
    program: &'a Program,
    method: MethodId,
    graph: Graph,
    blocks: HashMap<String, BlockId>,
    values: HashMap<String, ValueId>,
    next_site: u32,
    first_block: bool,
}

impl<'a> BodyCx<'a> {
    fn block(&mut self, label: &str) -> BlockId {
        if self.first_block {
            // First mentioned block is the entry.
            self.first_block = false;
            let e = self.graph.entry();
            self.blocks.insert(label.to_string(), e);
            return e;
        }
        if let Some(&b) = self.blocks.get(label) {
            return b;
        }
        let b = self.graph.add_block();
        self.blocks.insert(label.to_string(), b);
        b
    }

    fn value(&self, p: &Parser, name: &str) -> Result<ValueId, ParseError> {
        match self.values.get(name) {
            Some(&v) => Ok(v),
            None => p.fail(format!("use of undefined value `{name}`")),
        }
    }

    fn fresh_site(&mut self) -> CallSiteId {
        let s = CallSiteId {
            method: self.method,
            index: self.next_site,
        };
        self.next_site += 1;
        s
    }
}

fn parse_body(p: &mut Parser, program: &Program, method: MethodId) -> Result<Graph, ParseError> {
    let mut cx = BodyCx {
        program,
        method,
        graph: Graph::empty(),
        blocks: HashMap::new(),
        values: HashMap::new(),
        next_site: 0,
        first_block: true,
    };
    // Block headers until `}`.
    while *p.peek() != Tok::RBrace {
        parse_block(p, &mut cx)?;
    }
    p.expect(Tok::RBrace)?;
    if cx.first_block {
        return p.fail("method body has no blocks");
    }
    Ok(cx.graph)
}

fn parse_block(p: &mut Parser, cx: &mut BodyCx<'_>) -> Result<(), ParseError> {
    let label = p.ident()?;
    let block = cx.block(&label);
    p.expect(Tok::LParen)?;
    if *p.peek() != Tok::RParen {
        loop {
            let vname = p.ident()?;
            p.expect(Tok::Colon)?;
            let ty = parse_type(p, cx.program)?;
            let v = cx.graph.add_block_param(block, ty);
            if cx.values.insert(vname.clone(), v).is_some() {
                return p.fail(format!("duplicate value `{vname}`"));
            }
            if *p.peek() == Tok::Comma {
                p.next();
            } else {
                break;
            }
        }
    }
    p.expect(Tok::RParen)?;
    p.expect(Tok::Colon)?;

    loop {
        let word = match p.peek().clone() {
            Tok::Ident(w) => w,
            other => return p.fail(format!("expected instruction, found {other}")),
        };
        match word.as_str() {
            "jump" => {
                p.next();
                let (dest, args) = parse_edge(p, cx)?;
                cx.graph.set_terminator(block, Terminator::Jump(dest, args));
                return Ok(());
            }
            "br" => {
                p.next();
                let cname = p.ident()?;
                let cond = cx.value(p, &cname)?;
                p.expect(Tok::Comma)?;
                let then_dest = parse_edge(p, cx)?;
                p.expect(Tok::Comma)?;
                let else_dest = parse_edge(p, cx)?;
                cx.graph.set_terminator(
                    block,
                    Terminator::Branch {
                        cond,
                        then_dest,
                        else_dest,
                    },
                );
                return Ok(());
            }
            "deopt" => {
                p.next();
                let rname = p.ident()?;
                let reason = match DeoptReason::from_label(&rname) {
                    Some(r) => r,
                    None => return p.fail(format!("unknown deopt reason `{rname}`")),
                };
                cx.graph.set_terminator(block, Terminator::Deopt { reason });
                return Ok(());
            }
            "ret" => {
                p.next();
                let v = match p.peek().clone() {
                    Tok::Ident(name) if cx.values.contains_key(&name) => {
                        p.next();
                        Some(cx.values[&name])
                    }
                    _ => None,
                };
                cx.graph.set_terminator(block, Terminator::Return(v));
                return Ok(());
            }
            _ => parse_inst(p, cx, block)?,
        }
    }
}

fn parse_edge(p: &mut Parser, cx: &mut BodyCx<'_>) -> Result<(BlockId, Vec<ValueId>), ParseError> {
    let label = p.ident()?;
    let dest = cx.block(&label);
    p.expect(Tok::LParen)?;
    let mut args = Vec::new();
    if *p.peek() != Tok::RParen {
        loop {
            let vname = p.ident()?;
            args.push(cx.value(p, &vname)?);
            if *p.peek() == Tok::Comma {
                p.next();
            } else {
                break;
            }
        }
    }
    p.expect(Tok::RParen)?;
    Ok((dest, args))
}

fn parse_value_list(p: &mut Parser, cx: &BodyCx<'_>) -> Result<Vec<ValueId>, ParseError> {
    let mut args = Vec::new();
    loop {
        let vname = p.ident()?;
        args.push(cx.value(p, &vname)?);
        if *p.peek() == Tok::Comma {
            p.next();
        } else {
            break;
        }
    }
    Ok(args)
}

fn parse_paren_values(p: &mut Parser, cx: &BodyCx<'_>) -> Result<Vec<ValueId>, ParseError> {
    p.expect(Tok::LParen)?;
    let args = if *p.peek() != Tok::RParen {
        parse_value_list(p, cx)?
    } else {
        Vec::new()
    };
    p.expect(Tok::RParen)?;
    Ok(args)
}

fn parse_inst(p: &mut Parser, cx: &mut BodyCx<'_>, block: BlockId) -> Result<(), ParseError> {
    // Either `v = op ...` or a void op.
    let (line, col) = p.here();
    let first = p.ident()?;
    let (result_name, mut name) = if *p.peek() == Tok::Eq {
        p.next();
        (Some(first), p.ident()?)
    } else {
        (None, first)
    };
    if *p.peek() == Tok::Dot {
        // A dotted mnemonic: `const.int`.
        p.next();
        name = format!("{name}.{}", p.ident()?);
    }
    let Some((_, kind)) = MNEMONICS.iter().find(|(m, _)| *m == name) else {
        return p.fail(format!("unknown instruction `{name}`"));
    };

    // The payload, then the operands.
    let program = cx.program;
    let (op, args) = match kind {
        Op::Nop => (Op::Nop, Vec::new()),
        Op::ConstInt(_) => match p.next().tok {
            Tok::Int(k) => (Op::ConstInt(k), Vec::new()),
            other => return p.fail(format!("expected integer, found {other}")),
        },
        Op::ConstFloat(_) => match p.next().tok {
            Tok::Float(f) => (Op::ConstFloat(f.to_bits()), Vec::new()),
            Tok::Int(k) => (Op::ConstFloat((k as f64).to_bits()), Vec::new()),
            other => return p.fail(format!("expected float, found {other}")),
        },
        Op::ConstBool(_) => {
            let b = if p.eat_ident("true") {
                true
            } else if p.eat_ident("false") {
                false
            } else {
                return p.fail("expected `true` or `false`");
            };
            (Op::ConstBool(b), Vec::new())
        }
        Op::ConstNull(_) => (Op::ConstNull(parse_type(p, program)?), Vec::new()),
        Op::New(_) => (Op::New(parse_class_name(p, program)?), Vec::new()),
        Op::GetField(_) | Op::SetField(_) => {
            let c = parse_class_name(p, program)?;
            p.expect(Tok::Dot)?;
            let fname = p.ident()?;
            let Some(f) = program.field_by_name(c, &fname) else {
                let cname = &program.class(c).name;
                return p.fail(format!("unknown field `{cname}.{fname}`"));
            };
            let op = match kind {
                Op::GetField(_) => Op::GetField(f),
                _ => Op::SetField(f),
            };
            (op, parse_value_list(p, cx)?)
        }
        Op::NewArray(_) => {
            let elem = parse_elem_type(p, program)?;
            p.expect(Tok::Comma)?;
            (Op::NewArray(elem), parse_value_list(p, cx)?)
        }
        Op::Call(CallInfo {
            target: CallTarget::Static(_),
            ..
        }) => {
            let name = p.ident()?;
            let target = if *p.peek() == Tok::ColonColon {
                p.next();
                let mname = p.ident()?;
                let Some(c) = program.class_by_name(&name) else {
                    return p.fail(format!("unknown class `{name}`"));
                };
                let found = program.method_ids().find(|&m| {
                    let md = program.method(m);
                    md.holder == Some(c) && md.name == mname
                });
                match found {
                    Some(m) => m,
                    None => return p.fail(format!("unknown method `{name}::{mname}`")),
                }
            } else {
                match program.function_by_name(&name) {
                    Some(m) => m,
                    None => return p.fail(format!("unknown function `{name}`")),
                }
            };
            let args = parse_paren_values(p, cx)?;
            let target = CallTarget::Static(target);
            let site = cx.fresh_site();
            (Op::Call(CallInfo { target, site }), args)
        }
        Op::Call(_) => {
            let name = p.ident()?;
            let args = parse_paren_values(p, cx)?;
            let Some(sel) = program.selector_by_name(&name, args.len()) else {
                return p.fail(format!("unknown selector `{name}/{}`", args.len()));
            };
            let target = CallTarget::Virtual(sel);
            let site = cx.fresh_site();
            (Op::Call(CallInfo { target, site }), args)
        }
        Op::InstanceOf(_) | Op::Cast(_) => {
            let c = parse_class_name(p, program)?;
            let op = match kind {
                Op::InstanceOf(_) => Op::InstanceOf(c),
                _ => Op::Cast(c),
            };
            (op, parse_value_list(p, cx)?)
        }
        operands_only => (operands_only.clone(), parse_value_list(p, cx)?),
    };

    // The rule refuses an ill-typed instruction where it starts.
    let ty = cx
        .graph
        .result_type(program, &op, &args)
        .map_err(|message| ParseError { line, col, message })?;
    let (_, result) = cx.graph.append(block, op, args, ty);
    match (result_name, result) {
        (Some(name), Some(v)) => {
            if cx.values.insert(name.clone(), v).is_some() {
                return p.fail(format!("duplicate value `{name}`"));
            }
            Ok(())
        }
        (None, None) => Ok(()),
        (Some(_), None) => p.fail("operation produces no result"),
        (None, Some(_)) => p.fail("operation result must be named"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::program_str;
    use crate::verify;

    fn round_trip(src: &str) -> Program {
        let p = parse_program(src).expect("parse");
        for m in p.method_ids() {
            verify::verify(&p, p.method(m)).expect("verify parsed program");
        }
        p
    }

    #[test]
    fn parses_simple_function() {
        let p = round_trip(
            "fn inc(int) -> int {\nb0(v0: int):\n  v1 = const.int 1\n  v2 = iadd v0, v1\n  ret v2\n}\n",
        );
        let m = p.function_by_name("inc").unwrap();
        assert_eq!(p.method(m).graph.size(), 4);
    }

    #[test]
    fn parses_classes_methods_and_virtual_calls() {
        let src = r#"
class Shape
class Circle : Shape {
  field r: float
}

method Shape.area(Shape) -> float {
b0(v0: Shape):
  v1 = const.float 0.0
  ret v1
}

method Circle.area(Circle) -> float {
b0(v0: Circle):
  v1 = getfield Circle.r v0
  v2 = fmul v1, v1
  ret v2
}

fn total(Shape) -> float {
b0(v0: Shape):
  v1 = callv area(v0)
  ret v1
}
"#;
        let p = round_trip(src);
        let total = p.function_by_name("total").unwrap();
        assert_eq!(p.method(total).graph.callsites().len(), 1);
        let circle = p.class_by_name("Circle").unwrap();
        let sel = p.selector_by_name("area", 1).unwrap();
        assert!(p.resolve(circle, sel).is_some());
    }

    #[test]
    fn parses_loops_with_forward_block_refs() {
        let src = r#"
fn sum(int) -> int {
b0(v0: int):
  v1 = const.int 0
  jump b1(v1, v1)
b1(v2: int, v3: int):
  v4 = ilt v2, v0
  br v4, b2(), b3()
b2():
  v5 = const.int 1
  v6 = iadd v2, v5
  v7 = iadd v3, v2
  jump b1(v6, v7)
b3():
  ret v3
}
"#;
        let p = round_trip(src);
        let m = p.function_by_name("sum").unwrap();
        assert_eq!(
            crate::loops::LoopForest::compute(&p.method(m).graph)
                .loops
                .len(),
            1
        );
    }

    #[test]
    fn print_parse_fixpoint() {
        let src = r#"
class Base
class Impl : Base {
  field n: int
}

method Base.get(Base) -> int {
b0(v0: Base):
  v1 = const.int -1
  ret v1
}

method Impl.get(Impl) -> int {
b0(v0: Impl):
  v1 = getfield Impl.n v0
  ret v1
}

opaque fn sink(int) -> void {
b0(v0: int):
  print v0
  ret
}

fn main(int) -> int {
b0(v0: int):
  v1 = new Impl
  v2 = instanceof Impl v1
  v3 = callv get(v1)
  call sink(v3)
  v4 = newarray int, v0
  v5 = alen v4
  v6 = const.float 1.5
  v7 = f2i v6
  v8 = iadd v5, v7
  ret v8
}
"#;
        let p1 = round_trip(src);
        let s1 = program_str(&p1);
        let p2 = parse_program(&s1).expect("reparse");
        let s2 = program_str(&p2);
        assert_eq!(s1, s2, "printer/parser fixpoint");
    }

    #[test]
    fn error_on_unknown_value() {
        let e = parse_program("fn f() -> void {\nb0():\n  print v9\n  ret\n}\n").unwrap_err();
        assert!(e.message.contains("undefined value"), "{e}");
        assert!(e.line >= 3);
    }

    #[test]
    fn error_on_unknown_class() {
        let e = parse_program("fn f() -> void {\nb0():\n  v0 = new Ghost\n  ret\n}\n").unwrap_err();
        assert!(e.message.contains("unknown class"), "{e}");
    }

    #[test]
    fn error_on_duplicate_value() {
        let e = parse_program(
            "fn f() -> void {\nb0():\n  v0 = const.int 1\n  v0 = const.int 2\n  ret\n}\n",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate value"), "{e}");
    }

    #[test]
    fn type_errors_are_reported_where_the_instruction_starts() {
        let e = parse_program(
            "fn f(float) -> int {\nb0(v0: float):\n  v1 = iadd v0, v0\n  ret v1\n}\n",
        )
        .unwrap_err();
        assert!(e.message.contains("iadd expects int"), "{e}");
        assert_eq!((e.line, e.col), (3, 3));
    }

    #[test]
    fn comments_are_ignored() {
        let p = round_trip(
            "# a comment\nfn f() -> int { ; another\nb0():\n  v0 = const.int 3\n  ret v0\n}\n",
        );
        assert!(p.function_by_name("f").is_some());
    }

    #[test]
    fn negative_and_scientific_literals() {
        let p = round_trip(
            "fn f() -> float {\nb0():\n  v0 = const.int -5\n  v1 = const.float -2.5e3\n  v2 = const.float 1e-2\n  v3 = fadd v1, v2\n  ret v3\n}\n",
        );
        let m = p.function_by_name("f").unwrap();
        let g = &p.method(m).graph;
        assert_eq!(g.as_const_float(crate::ids::ValueId::new(1)), Some(-2500.0));
    }
}
