package instructions

import (
	"fmt"
	"time"

	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/runtime"
)

// FCallInst calls a user-defined or DML-bodied builtin function
// (opcode "fcall"): arguments are evaluated in the caller, bound to the
// function's parameters in a fresh child context, the function body executes,
// and the declared return values are assigned to the caller's target
// variables.
//
// A call the compiler found pure (its function facts) is one lineage item per
// output, fcall(name;BodyHash#i) over its argument items (OutputItems), on
// every path: with reuse on, the call probes all its outputs before binding
// anything and, when every one is found, binds them and skips the body; else
// the body runs and each output is put under its item. An impure call's
// outputs keep the lineage traced inside the body, whose instructions are
// reused one by one.
type FCallInst struct {
	base
	FuncName   string
	Positional []Operand
	Named      map[string]Operand
	Targets    []string
	// Pure marks a call that is reused as a whole; BodyHash is its callee's
	// body hash.
	Pure     bool
	BodyHash string
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
	var items []*lineage.Item
	if i.Pure && ctx.Config.LineageEnabled {
		items = fb.OutputItems(i.BodyHash, posLineage, namedLineage)
	}
	if len(i.Targets) > len(fb.Returns) {
		return fmt.Errorf("instructions: function %s returns %d values, %d requested", i.FuncName, len(fb.Returns), len(i.Targets))
	}
	reuse := items != nil && ctx.Config.ReuseEnabled && ctx.Cache.Enabled()
	var outs []runtime.Data
	if reuse {
		if hit, ok := ctx.Cache.GetAll(items); ok {
			outs = make([]runtime.Data, len(hit))
			for idx, v := range hit {
				outs[idx] = v.(runtime.Data)
			}
		}
	}
	if outs == nil {
		start := time.Now()
		var lins []*lineage.Item
		var err error
		outs, lins, err = fb.Call(ctx, positional, named, posLineage, namedLineage)
		if err != nil {
			return err
		}
		if items == nil {
			items = lins
		} else if reuse {
			computeNs := time.Since(start).Nanoseconds()
			for idx, d := range outs {
				ctx.Cache.Put(items[idx], d, runtime.SizeOf(d), computeNs)
			}
		}
	}
	// the results were handed over held; the bindings below take over
	defer func() {
		for _, d := range outs {
			runtime.Release(d)
		}
	}()
	for idx, target := range i.Targets {
		ctx.Set(target, outs[idx])
		ctx.Lineage.Set(target, items[idx])
	}
	return nil
}
