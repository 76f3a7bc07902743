package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/runtime"
)

// FCallInst calls a user-defined or DML-bodied builtin function
// (opcode "fcall"): arguments are evaluated in the caller, bound to the
// function's parameters in a fresh child context, the function body executes,
// and the declared return values are assigned to the caller's target
// variables. Lineage items flow through the call so intermediates computed
// inside the function are reusable across calls (the lmDS case of Figure 5).
type FCallInst struct {
	base
	FuncName   string
	Positional []Operand
	Named      map[string]Operand
	Targets    []string
}

// NewFCall creates a function call instruction.
func NewFCall(funcName string, positional []Operand, named map[string]Operand, targets []string) *FCallInst {
	keys := sortedKeys(named)
	all := append([]Operand(nil), positional...)
	for _, k := range keys {
		all = append(all, named[k])
	}
	inst := &FCallInst{FuncName: funcName, Positional: positional, Named: named, Targets: targets}
	inst.base = newBase("fcall", targets, funcName+";"+paramDesc(keys), all...)
	return inst
}

// Execute implements runtime.Instruction.
func (i *FCallInst) Execute(ctx *runtime.Context) error {
	if ctx.Prog == nil {
		return fmt.Errorf("instructions: fcall %s outside of a program", i.FuncName)
	}
	fb, ok := ctx.Prog.Function(i.FuncName)
	if !ok {
		return fmt.Errorf("instructions: call to unknown function %q", i.FuncName)
	}
	positional := make([]runtime.Data, len(i.Positional))
	posLineage := make([]*lineage.Item, len(i.Positional))
	for idx, op := range i.Positional {
		d, err := op.Resolve(ctx)
		if err != nil {
			return fmt.Errorf("instructions: fcall %s argument %d: %w", i.FuncName, idx+1, err)
		}
		positional[idx] = d
		posLineage[idx] = op.lineage(ctx)
	}
	named := map[string]runtime.Data{}
	namedLineage := map[string]*lineage.Item{}
	for name, op := range i.Named {
		d, err := op.Resolve(ctx)
		if err != nil {
			return fmt.Errorf("instructions: fcall %s argument %s: %w", i.FuncName, name, err)
		}
		named[name] = d
		namedLineage[name] = op.lineage(ctx)
	}
	outs, lins, err := fb.Call(ctx, positional, named, posLineage, namedLineage)
	if err != nil {
		return err
	}
	// the results were handed over held; the bindings below take over
	defer func() {
		for _, d := range outs {
			runtime.Release(d)
		}
	}()
	if len(i.Targets) > len(outs) {
		return fmt.Errorf("instructions: function %s returns %d values, %d requested", i.FuncName, len(outs), len(i.Targets))
	}
	for idx, target := range i.Targets {
		ctx.Set(target, outs[idx])
		if idx < len(lins) && lins[idx] != nil {
			ctx.Lineage.Set(target, lins[idx])
		}
	}
	return nil
}
