package instructions

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/runtime"
)

// AssignInst copies a value (variable or literal) to an output variable
// (opcode "assignvar").
type AssignInst struct {
	base
	In Operand
}

// NewAssign creates a variable copy instruction.
func NewAssign(out string, in Operand) *AssignInst {
	inst := &AssignInst{In: in}
	inst.base = newBase("assignvar", []string{out}, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *AssignInst) Execute(ctx *runtime.Context) error {
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	ctx.Set(i.outs[0], d)
	return nil
}

// PrintInst prints a scalar or matrix to the context output (opcode "print").
type PrintInst struct {
	base
	In Operand
}

// NewPrint creates a print instruction.
func NewPrint(in Operand) *PrintInst {
	inst := &PrintInst{In: in}
	inst.base = newBase("print", nil, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *PrintInst) Execute(ctx *runtime.Context) error {
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	if _, ok := d.(runtime.MatrixData); ok {
		// sinks acquire local matrices, lazily collect blocked ones and
		// transparently decompress compressed ones; federated data stays at
		// its sites and prints as its description
		blk, err := i.In.MatrixBlockFor(ctx, i.opcode)
		if err == nil {
			fmt.Fprintln(ctx.Out, blk.String())
			return nil
		}
		if !errors.Is(err, runtime.ErrFederated) {
			return err
		}
	}
	fmt.Fprintln(ctx.Out, d.String())
	return nil
}

// StopInst aborts execution with an error message (opcode "stop").
type StopInst struct {
	base
	Message Operand
}

// NewStop creates a stop instruction.
func NewStop(msg Operand) *StopInst {
	inst := &StopInst{Message: msg}
	inst.base = newBase("stop", nil, "", msg)
	return inst
}

// Execute implements runtime.Instruction.
func (i *StopInst) Execute(ctx *runtime.Context) error {
	msg, err := i.Message.StringValue(ctx)
	if err != nil {
		msg = "stop"
	}
	return fmt.Errorf("stop: %s", msg)
}

// AssertInst fails when its scalar input is false (opcode "assert").
type AssertInst struct {
	base
	Cond Operand
}

// NewAssert creates an assert instruction.
func NewAssert(cond Operand) *AssertInst {
	inst := &AssertInst{Cond: cond}
	inst.base = newBase("assert", nil, "", cond)
	return inst
}

// Execute implements runtime.Instruction.
func (i *AssertInst) Execute(ctx *runtime.Context) error {
	s, err := i.Cond.Scalar(ctx)
	if err != nil {
		return err
	}
	if !s.Bool() {
		return fmt.Errorf("assert: assertion failed")
	}
	return nil
}

// ReadInst reads a matrix or frame from a file (opcode "read"). The format is
// determined by the format parameter or the file extension: csv, binary,
// libsvm.
type ReadInst struct {
	base
	Path     Operand
	Format   Operand
	DataKind Operand // "matrix" (default) or "frame"
	Header   Operand
}

// NewRead creates a read instruction.
func NewRead(out string, path, format, dataKind, header Operand) *ReadInst {
	inst := &ReadInst{Path: path, Format: format, DataKind: dataKind, Header: header}
	inst.base = newBase("read", []string{out}, "", path, format, dataKind, header)
	return inst
}

// Execute implements runtime.Instruction.
func (i *ReadInst) Execute(ctx *runtime.Context) error {
	path, err := i.Path.StringValue(ctx)
	if err != nil {
		return err
	}
	format, _ := i.Format.StringValue(ctx)
	kind, _ := i.DataKind.StringValue(ctx)
	header := false
	if s, err := i.Header.Scalar(ctx); err == nil {
		header = s.Bool()
	}
	if format == "" {
		switch strings.ToLower(filepath.Ext(path)) {
		case ".bin":
			format = "binary"
		case ".libsvm", ".svm":
			format = "libsvm"
		default:
			format = "csv"
		}
	}
	opts := sdsio.DefaultCSVOptions()
	opts.Header = header
	opts.Threads = ctx.Config.Threads()
	switch {
	case kind == "frame":
		f, err := sdsio.ReadFrameCSV(path, nil, opts)
		if err != nil {
			return err
		}
		ctx.Set(i.outs[0], runtime.NewFrameObject(f))
	case format == "binary":
		m, err := sdsio.ReadMatrixBinary(path)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], m)
	case format == "libsvm":
		x, _, err := sdsio.ReadMatrixLibSVM(path, 0)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], x)
	default:
		m, err := sdsio.ReadMatrixCSV(path, opts)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], m)
	}
	// lineage leaf for external inputs
	ctx.Lineage.Set(i.outs[0], lineage.NewCreation("read", path))
	return nil
}

// WriteInst writes a matrix or frame to a file (opcode "write").
type WriteInst struct {
	base
	In     Operand
	Path   Operand
	Format Operand
}

// NewWrite creates a write instruction.
func NewWrite(in, path, format Operand) *WriteInst {
	inst := &WriteInst{In: in, Path: path, Format: format}
	inst.base = newBase("write", nil, "", in, path, format)
	return inst
}

// Execute implements runtime.Instruction.
func (i *WriteInst) Execute(ctx *runtime.Context) error {
	path, err := i.Path.StringValue(ctx)
	if err != nil {
		return err
	}
	format, _ := i.Format.StringValue(ctx)
	if format == "" {
		if strings.ToLower(filepath.Ext(path)) == ".bin" {
			format = "binary"
		} else {
			format = "csv"
		}
	}
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	switch v := d.(type) {
	case runtime.MatrixData:
		// sinks acquire local matrices, lazily collect blocked ones and
		// transparently decompress compressed ones
		blk, err := i.In.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		if format == "binary" {
			return sdsio.WriteMatrixBinary(path, blk, 1024)
		}
		return sdsio.WriteMatrixCSV(path, blk, sdsio.DefaultCSVOptions())
	case *runtime.FrameObject:
		opts := sdsio.DefaultCSVOptions()
		opts.Header = true
		return sdsio.WriteFrameCSV(path, v.Frame, opts)
	case *runtime.Scalar:
		m, err := runtime.LocalBlockOf(ctx, i.In.Name, v, i.opcode)
		if err != nil {
			return err
		}
		return sdsio.WriteMatrixCSV(path, m, sdsio.DefaultCSVOptions())
	default:
		return fmt.Errorf("instructions: write unsupported for %s", d.DataType())
	}
}
