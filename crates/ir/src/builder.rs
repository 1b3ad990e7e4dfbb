//! Convenience builder for authoring method bodies.
//!
//! [`FunctionBuilder`] wraps a [`Graph`] with a current-block cursor, typed
//! helpers for every [`Op`], and automatic minting of stable
//! [`CallSiteId`]s. It borrows the [`Program`] immutably so that field and
//! method signatures do not have to be restated at every use; declare all
//! classes, fields and method signatures first, then build bodies.
//!
//! ```
//! use incline_ir::{Program, FunctionBuilder, Type};
//!
//! let mut p = Program::new();
//! let double = p.declare_function("double", vec![Type::Int], Type::Int);
//! let mut fb = FunctionBuilder::new(&p, double);
//! let x = fb.param(0);
//! let two = fb.const_int(2);
//! let r = fb.imul(x, two);
//! fb.ret(Some(r));
//! let graph = fb.finish();
//! p.define_method(double, graph);
//! assert!(incline_ir::verify::verify(&p, p.method(double)).is_ok());
//! ```

use crate::graph::{BinOp, CallInfo, CallTarget, CmpOp, Graph, Op, Terminator};
use crate::ids::{BlockId, CallSiteId, ClassId, FieldId, MethodId, SelectorId, ValueId};
use crate::program::Program;
use crate::types::{ElemType, RetType, Type};

/// Builds the body of one declared method.
#[derive(Debug)]
pub struct FunctionBuilder<'p> {
    program: &'p Program,
    graph: Graph,
    method: MethodId,
    cur: BlockId,
    next_site: u32,
}

impl<'p> FunctionBuilder<'p> {
    /// Starts building the body of `method`, creating one entry-block
    /// parameter per declared parameter type.
    pub fn new(program: &'p Program, method: MethodId) -> Self {
        let mut graph = Graph::empty();
        let entry = graph.entry();
        for &ty in &program.method(method).params {
            graph.add_block_param(entry, ty);
        }
        FunctionBuilder {
            program,
            graph,
            method,
            cur: entry,
            next_site: 0,
        }
    }

    /// The program being built against.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The method whose body is being built.
    pub fn method(&self) -> MethodId {
        self.method
    }

    /// The `i`-th parameter of the method (receiver is parameter 0 for
    /// class methods).
    pub fn param(&self, i: usize) -> ValueId {
        self.graph.block(self.graph.entry()).params[i]
    }

    /// Static type of a value built so far.
    pub fn value_type(&self, v: ValueId) -> Type {
        self.graph.value_type(v)
    }

    /// Consumes the builder and returns the finished graph.
    pub fn finish(self) -> Graph {
        self.graph
    }

    // ---- blocks -----------------------------------------------------------

    /// Creates a new block (does not switch to it).
    pub fn add_block(&mut self) -> BlockId {
        self.graph.add_block()
    }

    /// Creates a new block with the given parameter types; returns the block
    /// and its parameter values.
    pub fn add_block_with_params(&mut self, tys: &[Type]) -> (BlockId, Vec<ValueId>) {
        let b = self.graph.add_block();
        let params = tys
            .iter()
            .map(|&t| self.graph.add_block_param(b, t))
            .collect();
        (b, params)
    }

    /// Switches the insertion cursor to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cur = block;
    }

    // ---- constants --------------------------------------------------------

    /// Appends an integer constant.
    pub fn const_int(&mut self, k: i64) -> ValueId {
        self.emit(Op::ConstInt(k), vec![], Some(Type::Int))
    }

    /// Appends a float constant.
    pub fn const_float(&mut self, k: f64) -> ValueId {
        self.emit(Op::ConstFloat(k.to_bits()), vec![], Some(Type::Float))
    }

    /// Appends a boolean constant.
    pub fn const_bool(&mut self, k: bool) -> ValueId {
        self.emit(Op::ConstBool(k), vec![], Some(Type::Bool))
    }

    /// Appends a null constant of reference type `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a reference type.
    pub fn const_null(&mut self, ty: Type) -> ValueId {
        assert!(ty.is_reference(), "null must have a reference type");
        self.emit(Op::ConstNull(ty), vec![], Some(ty))
    }

    // ---- arithmetic -------------------------------------------------------

    /// Appends a binary arithmetic instruction.
    pub fn binop(&mut self, op: BinOp, a: ValueId, b: ValueId) -> ValueId {
        let ty = op.result_type();
        self.emit(Op::Bin(op), vec![a, b], Some(ty))
    }

    /// Integer add.
    pub fn iadd(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(BinOp::IAdd, a, b)
    }

    /// Integer subtract.
    pub fn isub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(BinOp::ISub, a, b)
    }

    /// Integer multiply.
    pub fn imul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(BinOp::IMul, a, b)
    }

    /// Float add.
    pub fn fadd(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(BinOp::FAdd, a, b)
    }

    /// Float multiply.
    pub fn fmul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(BinOp::FMul, a, b)
    }

    /// Appends a comparison instruction.
    pub fn cmp(&mut self, op: CmpOp, a: ValueId, b: ValueId) -> ValueId {
        self.emit(Op::Cmp(op), vec![a, b], Some(Type::Bool))
    }

    /// Boolean negation.
    pub fn not(&mut self, a: ValueId) -> ValueId {
        self.emit(Op::Not, vec![a], Some(Type::Bool))
    }

    /// Integer negation.
    pub fn ineg(&mut self, a: ValueId) -> ValueId {
        self.emit(Op::INeg, vec![a], Some(Type::Int))
    }

    /// Float negation.
    pub fn fneg(&mut self, a: ValueId) -> ValueId {
        self.emit(Op::FNeg, vec![a], Some(Type::Float))
    }

    /// Int-to-float conversion.
    pub fn int_to_float(&mut self, a: ValueId) -> ValueId {
        self.emit(Op::IntToFloat, vec![a], Some(Type::Float))
    }

    /// Float-to-int (truncating) conversion.
    pub fn float_to_int(&mut self, a: ValueId) -> ValueId {
        self.emit(Op::FloatToInt, vec![a], Some(Type::Int))
    }

    // ---- objects & arrays -------------------------------------------------

    /// Allocates an instance of `class`.
    pub fn new_object(&mut self, class: ClassId) -> ValueId {
        self.emit(Op::New(class), vec![], Some(Type::Object(class)))
    }

    /// Loads a field; result type comes from the field declaration.
    pub fn get_field(&mut self, field: FieldId, obj: ValueId) -> ValueId {
        let ty = self.program.field(field).ty;
        self.emit(Op::GetField(field), vec![obj], Some(ty))
    }

    /// Stores a field.
    pub fn set_field(&mut self, field: FieldId, obj: ValueId, value: ValueId) {
        self.emit_void(Op::SetField(field), vec![obj, value]);
    }

    /// Allocates an array of `elem` with length `len`.
    pub fn new_array(&mut self, elem: ElemType, len: ValueId) -> ValueId {
        self.emit(Op::NewArray(elem), vec![len], Some(Type::Array(elem)))
    }

    /// Loads an array element.
    ///
    /// # Panics
    ///
    /// Panics if `arr`'s static type is not an array.
    pub fn array_get(&mut self, arr: ValueId, idx: ValueId) -> ValueId {
        let ty = match self.graph.value_type(arr) {
            Type::Array(e) => e.to_type(),
            other => panic!("array_get on non-array value of type {other}"),
        };
        self.emit(Op::ArrayGet, vec![arr, idx], Some(ty))
    }

    /// Stores an array element.
    pub fn array_set(&mut self, arr: ValueId, idx: ValueId, value: ValueId) {
        self.emit_void(Op::ArraySet, vec![arr, idx, value]);
    }

    /// Array length.
    pub fn array_len(&mut self, arr: ValueId) -> ValueId {
        self.emit(Op::ArrayLen, vec![arr], Some(Type::Int))
    }

    // ---- calls ------------------------------------------------------------

    /// Direct call to `target`; returns the result value unless `target` is
    /// `void`.
    pub fn call_static(&mut self, target: MethodId, args: Vec<ValueId>) -> Option<ValueId> {
        let ret = self.program.method(target).ret;
        let site = self.fresh_site();
        self.emit_call(
            CallInfo {
                target: CallTarget::Static(target),
                site,
            },
            args,
            ret,
        )
    }

    /// Virtual call through `selector`; `args[0]` is the receiver. The
    /// return type is taken from any declaration of the selector.
    ///
    /// # Panics
    ///
    /// Panics if no class method with this selector exists yet.
    pub fn call_virtual(&mut self, selector: SelectorId, args: Vec<ValueId>) -> Option<ValueId> {
        let ret = self
            .program
            .method_ids()
            .map(|m| self.program.method(m))
            .find(|m| m.selector == Some(selector))
            .unwrap_or_else(|| {
                panic!(
                    "no method declares selector {}",
                    self.program.selector(selector)
                )
            })
            .ret;
        let site = self.fresh_site();
        self.emit_call(
            CallInfo {
                target: CallTarget::Virtual(selector),
                site,
            },
            args,
            ret,
        )
    }

    // ---- type tests -------------------------------------------------------

    /// Dynamic type test.
    pub fn instance_of(&mut self, class: ClassId, obj: ValueId) -> ValueId {
        self.emit(Op::InstanceOf(class), vec![obj], Some(Type::Bool))
    }

    /// Checked downcast to `class`.
    pub fn cast(&mut self, class: ClassId, obj: ValueId) -> ValueId {
        self.emit(Op::Cast(class), vec![obj], Some(Type::Object(class)))
    }

    /// Prints a value to the program output stream.
    pub fn print(&mut self, value: ValueId) {
        self.emit_void(Op::Print, vec![value]);
    }

    // ---- terminators ------------------------------------------------------

    /// Terminates the current block with a jump.
    pub fn jump(&mut self, dest: BlockId, args: Vec<ValueId>) {
        self.graph
            .set_terminator(self.cur, Terminator::Jump(dest, args));
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(
        &mut self,
        cond: ValueId,
        then_dest: (BlockId, Vec<ValueId>),
        else_dest: (BlockId, Vec<ValueId>),
    ) {
        self.graph.set_terminator(
            self.cur,
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            },
        );
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<ValueId>) {
        self.graph
            .set_terminator(self.cur, Terminator::Return(value));
    }

    // ---- internals --------------------------------------------------------

    fn fresh_site(&mut self) -> CallSiteId {
        let site = CallSiteId {
            method: self.method,
            index: self.next_site,
        };
        self.next_site += 1;
        site
    }

    fn emit(&mut self, op: Op, args: Vec<ValueId>, ty: Option<Type>) -> ValueId {
        let (_, v) = self.graph.append(self.cur, op, args, ty);
        v.expect("emit used for value-producing op")
    }

    fn emit_void(&mut self, op: Op, args: Vec<ValueId>) {
        self.graph.append(self.cur, op, args, None);
    }

    fn emit_call(&mut self, info: CallInfo, args: Vec<ValueId>, ret: RetType) -> Option<ValueId> {
        let (_, v) = self
            .graph
            .append(self.cur, Op::Call(info), args, ret.value());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_loop_with_params() {
        // sum(n) = 0 + 1 + ... + (n-1), via a loop with block params.
        let mut p = Program::new();
        let m = p.declare_function("sum", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Int]); // (i, acc)
        let body = fb.add_block();
        let done = fb.add_block_with_params(&[Type::Int]);
        fb.jump(head, vec![zero, zero]);
        fb.switch_to(head);
        let cond = fb.cmp(CmpOp::ILt, hp[0], n);
        fb.branch(cond, (body, vec![]), (done.0, vec![hp[1]]));
        fb.switch_to(body);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        let acc2 = fb.iadd(hp[1], hp[0]);
        fb.jump(head, vec![i2, acc2]);
        fb.switch_to(done.0);
        fb.ret(Some(done.1[0]));
        let g = fb.finish();
        assert_eq!(g.reachable_blocks().len(), 4);
        p.define_method(m, g);
        assert_eq!(p.method(m).graph.size(), 13);
    }

    #[test]
    fn callsites_get_distinct_ids() {
        let mut p = Program::new();
        let callee = p.declare_function("f", vec![], RetType::Void);
        let caller = p.declare_function("g", vec![], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, caller);
        fb.call_static(callee, vec![]);
        fb.call_static(callee, vec![]);
        fb.ret(None);
        let g = fb.finish();
        let sites: Vec<_> = g
            .callsites()
            .iter()
            .map(|&(_, i)| g.inst(i).op.call_site().unwrap())
            .collect();
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1]);
        assert!(sites.iter().all(|s| s.method == caller));
    }

    #[test]
    fn field_access_uses_declared_type() {
        let mut p = Program::new();
        let c = p.add_class("Box", None);
        let f = p.add_field(c, "v", Type::Float);
        let m = p.declare_function("probe", vec![Type::Object(c)], Type::Float);
        let mut fb = FunctionBuilder::new(&p, m);
        let obj = fb.param(0);
        let v = fb.get_field(f, obj);
        fb.ret(Some(v));
        let g = fb.finish();
        assert_eq!(g.value_type(v), Type::Float);
    }

    #[test]
    #[should_panic(expected = "non-array")]
    fn array_get_on_scalar_panics() {
        let mut p = Program::new();
        let m = p.declare_function("bad", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let _ = fb.array_get(x, x);
    }
}
