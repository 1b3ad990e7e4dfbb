//! Convenience builder for authoring method bodies.
//!
//! [`FunctionBuilder`] wraps a [`Graph`] with a current-block cursor, a
//! helper for every [`Op`], and automatic minting of stable
//! [`CallSiteId`]s. Each helper types its instruction by
//! [`Graph::result_type`] against the borrowed [`Program`], and panics
//! where that rule refuses the operands; declare all classes, fields and
//! method signatures first, then build bodies.
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
use crate::types::{ElemType, Type};

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
        self.value(Op::ConstInt(k), vec![])
    }

    /// Appends a float constant.
    pub fn const_float(&mut self, k: f64) -> ValueId {
        self.value(Op::ConstFloat(k.to_bits()), vec![])
    }

    /// Appends a boolean constant.
    pub fn const_bool(&mut self, k: bool) -> ValueId {
        self.value(Op::ConstBool(k), vec![])
    }

    /// Appends a null constant of reference type `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a reference type.
    pub fn const_null(&mut self, ty: Type) -> ValueId {
        self.value(Op::ConstNull(ty), vec![])
    }

    // ---- arithmetic -------------------------------------------------------

    /// Appends a binary arithmetic instruction.
    pub fn binop(&mut self, op: BinOp, a: ValueId, b: ValueId) -> ValueId {
        self.value(Op::Bin(op), vec![a, b])
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
        self.value(Op::Cmp(op), vec![a, b])
    }

    /// Boolean negation.
    pub fn not(&mut self, a: ValueId) -> ValueId {
        self.value(Op::Not, vec![a])
    }

    /// Integer negation.
    pub fn ineg(&mut self, a: ValueId) -> ValueId {
        self.value(Op::INeg, vec![a])
    }

    /// Int-to-float conversion.
    pub fn int_to_float(&mut self, a: ValueId) -> ValueId {
        self.value(Op::IntToFloat, vec![a])
    }

    /// Float-to-int (truncating) conversion.
    pub fn float_to_int(&mut self, a: ValueId) -> ValueId {
        self.value(Op::FloatToInt, vec![a])
    }

    // ---- objects & arrays -------------------------------------------------

    /// Allocates an instance of `class`.
    pub fn new_object(&mut self, class: ClassId) -> ValueId {
        self.value(Op::New(class), vec![])
    }

    /// Loads a field.
    pub fn get_field(&mut self, field: FieldId, obj: ValueId) -> ValueId {
        self.value(Op::GetField(field), vec![obj])
    }

    /// Stores a field.
    pub fn set_field(&mut self, field: FieldId, obj: ValueId, value: ValueId) {
        self.emit(Op::SetField(field), vec![obj, value]);
    }

    /// Allocates an array of `elem` with length `len`.
    pub fn new_array(&mut self, elem: ElemType, len: ValueId) -> ValueId {
        self.value(Op::NewArray(elem), vec![len])
    }

    /// Loads an array element.
    ///
    /// # Panics
    ///
    /// Panics if `arr`'s static type is not an array.
    pub fn array_get(&mut self, arr: ValueId, idx: ValueId) -> ValueId {
        self.value(Op::ArrayGet, vec![arr, idx])
    }

    /// Stores an array element.
    pub fn array_set(&mut self, arr: ValueId, idx: ValueId, value: ValueId) {
        self.emit(Op::ArraySet, vec![arr, idx, value]);
    }

    /// Array length.
    pub fn array_len(&mut self, arr: ValueId) -> ValueId {
        self.value(Op::ArrayLen, vec![arr])
    }

    // ---- calls ------------------------------------------------------------

    /// Direct call to `target`; returns the result value unless `target` is
    /// `void`.
    pub fn call_static(&mut self, target: MethodId, args: Vec<ValueId>) -> Option<ValueId> {
        let site = self.fresh_site();
        let target = CallTarget::Static(target);
        self.emit(Op::Call(CallInfo { target, site }), args)
    }

    /// Virtual call through `selector`; `args[0]` is the receiver. The
    /// result is typed by the method the selector resolves to on the
    /// receiver's static class ([`Graph::result_type`]).
    ///
    /// # Panics
    ///
    /// Panics if the receiver is not an object, or no class method with
    /// this selector exists yet.
    pub fn call_virtual(&mut self, selector: SelectorId, args: Vec<ValueId>) -> Option<ValueId> {
        let site = self.fresh_site();
        let target = CallTarget::Virtual(selector);
        self.emit(Op::Call(CallInfo { target, site }), args)
    }

    // ---- type tests -------------------------------------------------------

    /// Dynamic type test.
    pub fn instance_of(&mut self, class: ClassId, obj: ValueId) -> ValueId {
        self.value(Op::InstanceOf(class), vec![obj])
    }

    /// Checked downcast to `class`.
    pub fn cast(&mut self, class: ClassId, obj: ValueId) -> ValueId {
        self.value(Op::Cast(class), vec![obj])
    }

    /// Prints a value to the program output stream.
    pub fn print(&mut self, value: ValueId) {
        self.emit(Op::Print, vec![value]);
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

    /// Appends `op` typed by [`Graph::result_type`]; returns its result.
    ///
    /// # Panics
    ///
    /// Panics with the rule's reason if `op` refuses `args`.
    fn emit(&mut self, op: Op, args: Vec<ValueId>) -> Option<ValueId> {
        let ty = self
            .graph
            .result_type(self.program, &op, &args)
            .unwrap_or_else(|why| panic!("{why}"));
        self.graph.append(self.cur, op, args, ty).1
    }

    fn value(&mut self, op: Op, args: Vec<ValueId>) -> ValueId {
        self.emit(op, args).expect("the operation produces a value")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RetType;

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
