package compiler

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/instructions"
	"github.com/systemds/systemds-go/internal/lang"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// nativeBuiltins lists built-in functions implemented directly as HOPs or
// dedicated instructions (as opposed to DML-bodied builtins).
var nativeBuiltins = map[string]bool{
	"solve": true, "inv": true, "cholesky": true, "eigen": true,
	"rand": true, "matrix": true, "seq": true, "sample": true,
	"ifelse":    true,
	"as.scalar": true, "as.matrix": true, "as.double": true, "as.integer": true, "as.logical": true,
	"removeEmpty": true, "replace": true, "order": true, "table": true, "quantile": true,
	"print": true, "stop": true, "assert": true, "write": true, "read": true,
	"transformencode": true, "transformapply": true,
	"compress": true,
}

// isNativeBuiltin reports whether the function name is a native builtin: one
// of the list above, a cellwise unary operator, an aggregate or a reorg.
func isNativeBuiltin(name string) bool {
	return nativeBuiltins[name] || isUnaryMath(name) || isAggregate(name) || isReorg(name)
}

// isReorg reports whether the function name is a row of the reorg table.
func isReorg(name string) bool {
	_, ok := matrix.ReorgOf(name)
	return ok
}

// isAggregate reports whether the function name is a row of the aggregate
// table.
func isAggregate(name string) bool {
	_, ok := matrix.AggregateOf(name)
	return ok
}

// isUnaryMath reports whether the function name is a cellwise unary operator
// of the operator table called like a function (abs, exp, is.nan, ...): every
// unary operator but the prefix - and !.
func isUnaryMath(name string) bool {
	op, ok := matrix.UnaryOpFromString(name)
	return ok && op != matrix.OpNeg && op != matrix.OpNot
}

// buildCall converts a native builtin function call into a HOP.
func (bb *blockBuilder) buildCall(call *lang.CallExpr) (*hops.Hop, error) {
	name := call.Name
	positional, named, err := bb.splitArgs(call)
	if err != nil {
		return nil, err
	}
	argHop := func(i int) (*hops.Hop, error) {
		if i >= len(positional) {
			return nil, fmt.Errorf("compiler: line %d: %s: missing argument %d", call.Line, name, i+1)
		}
		return positional[i], nil
	}
	switch {
	case name == "compress":
		// a compression decision site: planted by the compiler before loops
		// that re-read large operands, or called explicitly. The optional
		// second argument is the compiler's reuse estimate; whether the site
		// fires is decided by the planner (hops.ShouldCompress), and whether
		// the data actually compresses by the runtime's sample-based planner.
		in, err := argHop(0)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindCompress, "compress", in)
		h.DataType = types.Matrix
		// an explicit compress(X) without a reuse estimate asserts the data
		// will be re-read: default to the assumed loop reuse so the site can
		// fire (the runtime sample planner still rejects incompressible data)
		h.CompressReuse = hops.CompressAssumedLoopTrips
		if len(positional) >= 2 && positional[1].IsLiteralNumber() {
			h.CompressReuse = int(positional[1].LitValue)
		}
		return h, nil
	case (name == "min" || name == "max") && len(positional) >= 2:
		// min(a, b, c, …) folds left to right: min(min(a, b), c), …
		h := positional[0]
		for _, in := range positional[1:] {
			acc := h
			h = hops.NewHop(hops.KindBinary, name, acc, in)
			h.DataType = types.Scalar
			if acc.DataType == types.Matrix || in.DataType == types.Matrix {
				h.DataType = types.Matrix
			}
		}
		return h, nil
	case isReorg(name):
		if _, err := argHop(0); err != nil {
			return nil, err
		}
		ins := positional // a bind takes every operand, any other row its first
		if row, _ := matrix.ReorgOf(name); row.Axis == matrix.NoBind {
			ins = positional[:1]
		}
		h := hops.NewHop(hops.KindReorg, name, ins...)
		h.DataType = types.Matrix
		return h, nil
	case isAggregate(name):
		in, err := argHop(0)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindAggUnary, name, in)
		h.DataType = types.Matrix
		if agg, _ := matrix.AggregateOf(name); agg.Axis == matrix.AggFull {
			h.DataType = types.Scalar
			h.ValueType = types.FP64
		}
		return h, nil
	case isUnaryMath(name):
		in, err := argHop(0)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindUnary, name, in)
		h.DataType = in.DataType
		if h.DataType == types.UnknownData {
			h.DataType = types.Matrix
		}
		return h, nil
	case name == "solve":
		a, err := argHop(0)
		if err != nil {
			return nil, err
		}
		b, err := argHop(1)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindParamBuiltin, "solve", a, b)
		h.DataType = types.Matrix
		return h, nil
	case name == "inv" || name == "cholesky":
		a, err := argHop(0)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindParamBuiltin, name, a)
		h.DataType = types.Matrix
		return h, nil
	case name == "ifelse":
		if len(positional) != 3 {
			return nil, fmt.Errorf("compiler: line %d: ifelse requires three arguments", call.Line)
		}
		h := hops.NewHop(hops.KindTernary, "ifelse", positional...)
		h.DataType = types.Matrix
		if positional[0].DataType == types.Scalar && positional[1].DataType == types.Scalar && positional[2].DataType == types.Scalar {
			h.DataType = types.Scalar
		}
		return h, nil
	case name == "as.scalar":
		in, err := argHop(0)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindCast, "castdts", in)
		h.DataType = types.Scalar
		return h, nil
	case name == "as.matrix":
		in, err := argHop(0)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindCast, "castsdm", in)
		h.DataType = types.Matrix
		return h, nil
	case name == "as.double" || name == "as.integer" || name == "as.logical":
		in, err := argHop(0)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindCast, name, in)
		h.DataType = types.Scalar
		return h, nil
	case name == "rand":
		return bb.buildRand(call, named)
	case name == "matrix":
		return bb.buildMatrixCtor(call, positional, named)
	case name == "seq":
		if len(positional) < 2 {
			return nil, fmt.Errorf("compiler: line %d: seq requires at least from and to", call.Line)
		}
		incr := hops.NewLiteralNumber(1)
		if len(positional) >= 3 {
			incr = positional[2]
		}
		h := hops.NewHop(hops.KindDataGen, "seq")
		h.DataType = types.Matrix
		h.Params = map[string]*hops.Hop{"from": positional[0], "to": positional[1], "incr": incr}
		return h, nil
	case name == "sample":
		if len(positional) < 2 {
			return nil, fmt.Errorf("compiler: line %d: sample requires population and size", call.Line)
		}
		replace := hops.NewLiteralBool(false)
		if len(positional) >= 3 {
			replace = positional[2]
		}
		h := hops.NewHop(hops.KindDataGen, "sample")
		h.DataType = types.Matrix
		h.Params = map[string]*hops.Hop{
			"population": positional[0], "size": positional[1], "replace": replace,
		}
		return h, nil
	case name == "removeEmpty" || name == "replace" || name == "order":
		h := hops.NewHop(hops.KindParamBuiltin, name)
		h.DataType = types.Matrix
		h.Params = map[string]*hops.Hop{}
		for k, v := range named {
			h.Params[k] = v
		}
		if len(positional) > 0 {
			h.Params["target"] = positional[0]
		}
		return h, nil
	case name == "table":
		if len(positional) < 2 {
			return nil, fmt.Errorf("compiler: line %d: table requires two vectors", call.Line)
		}
		h := hops.NewHop(hops.KindParamBuiltin, "table")
		h.DataType = types.Matrix
		h.Params = map[string]*hops.Hop{"a": positional[0], "b": positional[1]}
		return h, nil
	case name == "quantile":
		if len(positional) < 2 {
			return nil, fmt.Errorf("compiler: line %d: quantile requires data and p", call.Line)
		}
		h := hops.NewHop(hops.KindParamBuiltin, "quantile")
		h.DataType = types.Scalar
		h.Params = map[string]*hops.Hop{"target": positional[0], "p": positional[1]}
		return h, nil
	case name == "read" || name == "eigen" || name == "transformencode" || name == "transformapply":
		return nil, fmt.Errorf("compiler: line %d: %s must be used in a direct assignment", call.Line, name)
	case bb.c.isUserOrDMLFunction(name):
		return nil, fmt.Errorf("compiler: line %d: call to function %q must be assigned directly to variables (nested function calls are not supported)", call.Line, name)
	default:
		return nil, fmt.Errorf("compiler: line %d: unknown function %q", call.Line, name)
	}
}

// splitArgs builds hops for positional and named call arguments.
func (bb *blockBuilder) splitArgs(call *lang.CallExpr) ([]*hops.Hop, map[string]*hops.Hop, error) {
	var positional []*hops.Hop
	named := map[string]*hops.Hop{}
	for _, a := range call.Args {
		h, err := bb.buildExpr(a.Value)
		if err != nil {
			return nil, nil, err
		}
		if a.Name == "" {
			positional = append(positional, h)
		} else {
			named[a.Name] = h
		}
	}
	return positional, named, nil
}

// buildRand builds a rand() datagen HOP. Without a seed argument it carries
// none: the instruction draws one per execution and traces it.
func (bb *blockBuilder) buildRand(call *lang.CallExpr, named map[string]*hops.Hop) (*hops.Hop, error) {
	h := hops.NewHop(hops.KindDataGen, "rand")
	h.DataType = types.Matrix
	h.Params = map[string]*hops.Hop{
		"min": hops.NewLiteralNumber(0), "max": hops.NewLiteralNumber(1),
		"sparsity": hops.NewLiteralNumber(1), "pdf": hops.NewLiteralString("uniform"),
	}
	for k, v := range named {
		h.Params[k] = v
	}
	if _, ok := h.Params["rows"]; !ok {
		return nil, fmt.Errorf("compiler: line %d: rand requires rows and cols", call.Line)
	}
	if _, ok := h.Params["cols"]; !ok {
		return nil, fmt.Errorf("compiler: line %d: rand requires rows and cols", call.Line)
	}
	return h, nil
}

// buildMatrixCtor builds the matrix(value, rows, cols) constructor.
func (bb *blockBuilder) buildMatrixCtor(call *lang.CallExpr, positional []*hops.Hop, named map[string]*hops.Hop) (*hops.Hop, error) {
	h := hops.NewHop(hops.KindDataGen, "fill")
	h.DataType = types.Matrix
	h.Params = map[string]*hops.Hop{}
	if len(positional) > 0 {
		h.Params["value"] = positional[0]
	}
	if len(positional) > 1 {
		h.Params["rows"] = positional[1]
	}
	if len(positional) > 2 {
		h.Params["cols"] = positional[2]
	}
	for k, v := range named {
		h.Params[k] = v
	}
	for _, req := range []string{"value", "rows", "cols"} {
		if _, ok := h.Params[req]; !ok {
			return nil, fmt.Errorf("compiler: line %d: matrix() requires value, rows and cols", call.Line)
		}
	}
	return h, nil
}

// splitOperandArgs converts call arguments into instruction operands
// (used by direct-instruction emission for fcall, read, eigen, transform).
func (bb *blockBuilder) splitOperandArgs(call *lang.CallExpr) ([]instructions.Operand, map[string]instructions.Operand, error) {
	var positional []instructions.Operand
	named := map[string]instructions.Operand{}
	for _, a := range call.Args {
		op, err := bb.exprToOperand(a.Value)
		if err != nil {
			return nil, nil, err
		}
		if a.Name == "" {
			positional = append(positional, op)
		} else {
			named[a.Name] = op
		}
	}
	return positional, named, nil
}

// emitFCall compiles a call to a user-defined or DML-bodied function: inlined
// into the caller's DAG when the callee qualifies (inline.go), else into an
// fcall instruction (flushing the current DAG first).
func (bb *blockBuilder) emitFCall(s *lang.AssignStmt, call *lang.CallExpr) error {
	if err := bb.c.ensureBuiltinCompiled(call.Name); err != nil {
		// user functions of the current script are compiled separately
		if _, ok := bb.c.prog.Functions[call.Name]; !ok {
			if _, isUser := bb.c.source.Functions[call.Name]; !isUser {
				return err
			}
		}
	}
	if inlined, err := bb.inlineCall(s, call); inlined || err != nil {
		return err
	}
	positional, named, err := bb.splitOperandArgs(call)
	if err != nil {
		return err
	}
	// indexed targets write through a temporary
	type indexedTarget struct {
		target         lang.AssignTarget
		temp           string
		rl, ru, cl, cu instructions.Operand
	}
	var targets []string
	var indexed []indexedTarget
	for ti, t := range s.Targets {
		if !t.Indexed {
			targets = append(targets, t.Name)
			continue
		}
		temp := fmt.Sprintf("%scall%d_%d", runtime.TempPrefix, call.Line, ti)
		rl, ru, cl, cu, err := bb.indexBoundOperands(t.Rows, t.Cols)
		if err != nil {
			return err
		}
		targets = append(targets, temp)
		indexed = append(indexed, indexedTarget{target: t, temp: temp, rl: rl, ru: ru, cl: cl, cu: cu})
	}
	if err := bb.flush(); err != nil {
		return err
	}
	fcall := instructions.NewFCall(call.Name, positional, named, targets)
	fcall.BodyHash, fcall.Pure = bb.c.pureCallHash(call)
	bb.emit(fcall)
	for _, it := range indexed {
		li := instructions.NewLeftIndex(
			it.target.Name, instructions.Var(it.target.Name), instructions.Var(it.temp),
			it.rl, it.ru, it.cl, it.cu)
		// the update rebinds its own target right after the call: nothing
		// reads the old value
		li.Updates, li.InPlace = it.target.Name, true
		bb.emit(li)
	}
	for _, t := range s.Targets {
		delete(bb.varMap, t.Name)
	}
	return nil
}

// indexBoundOperands converts index ranges into instruction operands with the
// 1-based/0-unbounded convention.
func (bb *blockBuilder) indexBoundOperands(rows, cols *lang.IndexRange) (rl, ru, cl, cu instructions.Operand, err error) {
	build := func(r *lang.IndexRange) (instructions.Operand, instructions.Operand, error) {
		if r == nil || r.All {
			return instructions.LitInt(0), instructions.LitInt(0), nil
		}
		lo, err := bb.exprToOperand(r.Lower)
		if err != nil {
			return instructions.Operand{}, instructions.Operand{}, err
		}
		if r.Upper == nil {
			return lo, lo, nil
		}
		hi, err := bb.exprToOperand(r.Upper)
		if err != nil {
			return instructions.Operand{}, instructions.Operand{}, err
		}
		return lo, hi, nil
	}
	rl, ru, err = build(rows)
	if err != nil {
		return
	}
	cl, cu, err = build(cols)
	return
}

// emitRead compiles X = read("file", format="csv", header=FALSE,
// data_type="matrix").
func (bb *blockBuilder) emitRead(s *lang.AssignStmt, call *lang.CallExpr) error {
	if len(s.Targets) != 1 || s.Targets[0].Indexed {
		return fmt.Errorf("compiler: line %d: read must be assigned to a single variable", s.Line)
	}
	positional, named, err := bb.splitOperandArgs(call)
	if err != nil {
		return err
	}
	if len(positional) == 0 {
		return fmt.Errorf("compiler: line %d: read requires a file path", s.Line)
	}
	format := instructions.LitString("")
	dataKind := instructions.LitString("matrix")
	header := instructions.LitBool(false)
	if op, ok := named["format"]; ok {
		format = op
	}
	if op, ok := named["data_type"]; ok {
		dataKind = op
	}
	if op, ok := named["header"]; ok {
		header = op
	}
	if err := bb.flush(); err != nil {
		return err
	}
	bb.emit(instructions.NewRead(s.Targets[0].Name, positional[0], format, dataKind, header))
	delete(bb.varMap, s.Targets[0].Name)
	return nil
}

// emitEigen compiles [values, vectors] = eigen(A).
func (bb *blockBuilder) emitEigen(s *lang.AssignStmt, call *lang.CallExpr) error {
	if len(s.Targets) != 2 {
		return fmt.Errorf("compiler: line %d: eigen returns two values ([values, vectors])", s.Line)
	}
	positional, _, err := bb.splitOperandArgs(call)
	if err != nil {
		return err
	}
	if len(positional) != 1 {
		return fmt.Errorf("compiler: line %d: eigen takes one matrix argument", s.Line)
	}
	if err := bb.flush(); err != nil {
		return err
	}
	bb.emit(instructions.NewEigen(s.Targets[0].Name, s.Targets[1].Name, positional[0]))
	delete(bb.varMap, s.Targets[0].Name)
	delete(bb.varMap, s.Targets[1].Name)
	return nil
}

// emitTransformEncode compiles [X, M] = transformencode(target=F, spec=s).
func (bb *blockBuilder) emitTransformEncode(s *lang.AssignStmt, call *lang.CallExpr) error {
	if len(s.Targets) != 2 {
		return fmt.Errorf("compiler: line %d: transformencode returns [X, Meta]", s.Line)
	}
	positional, named, err := bb.splitOperandArgs(call)
	if err != nil {
		return err
	}
	target, ok := named["target"]
	if !ok && len(positional) > 0 {
		target = positional[0]
	} else if !ok {
		return fmt.Errorf("compiler: line %d: transformencode requires target", s.Line)
	}
	spec, ok := named["spec"]
	if !ok && len(positional) > 1 {
		spec = positional[1]
	} else if !ok {
		return fmt.Errorf("compiler: line %d: transformencode requires spec", s.Line)
	}
	if err := bb.flush(); err != nil {
		return err
	}
	bb.emit(instructions.NewTransformEncode(s.Targets[0].Name, s.Targets[1].Name, target, spec))
	delete(bb.varMap, s.Targets[0].Name)
	delete(bb.varMap, s.Targets[1].Name)
	return nil
}

// emitTransformApply compiles X = transformapply(target=F, meta=M).
func (bb *blockBuilder) emitTransformApply(s *lang.AssignStmt, call *lang.CallExpr) error {
	if len(s.Targets) != 1 {
		return fmt.Errorf("compiler: line %d: transformapply returns a single matrix", s.Line)
	}
	positional, named, err := bb.splitOperandArgs(call)
	if err != nil {
		return err
	}
	target, ok := named["target"]
	if !ok && len(positional) > 0 {
		target = positional[0]
	} else if !ok {
		return fmt.Errorf("compiler: line %d: transformapply requires target", s.Line)
	}
	meta, ok := named["meta"]
	if !ok && len(positional) > 1 {
		meta = positional[1]
	} else if !ok {
		return fmt.Errorf("compiler: line %d: transformapply requires meta", s.Line)
	}
	if err := bb.flush(); err != nil {
		return err
	}
	bb.emit(instructions.NewTransformApply(s.Targets[0].Name, target, meta))
	delete(bb.varMap, s.Targets[0].Name)
	return nil
}
