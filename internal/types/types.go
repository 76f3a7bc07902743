// Package types defines the common value types, data types, schemas and
// size metadata (data characteristics) shared by the SystemDS-Go compiler
// and runtime. It mirrors the data model described in Section 2.4 of the
// SystemDS paper: numeric matrices, heterogeneous tensors, frames with a
// schema, scalars and lists.
package types

import (
	"fmt"
	"strings"
)

// ValueType enumerates the cell value types supported by tensors, frames
// and scalars. FP64 is the default numeric type used by matrices.
type ValueType int

// Supported value types.
const (
	Unknown ValueType = iota
	FP64
	FP32
	INT64
	INT32
	Boolean
	String
)

// String returns the DML-facing name of the value type.
func (v ValueType) String() string {
	switch v {
	case FP64:
		return "FP64"
	case FP32:
		return "FP32"
	case INT64:
		return "INT64"
	case INT32:
		return "INT32"
	case Boolean:
		return "BOOLEAN"
	case String:
		return "STRING"
	default:
		return "UNKNOWN"
	}
}

// IsNumeric reports whether the value type is a numeric type.
func (v ValueType) IsNumeric() bool {
	switch v {
	case FP64, FP32, INT64, INT32, Boolean:
		return true
	default:
		return false
	}
}

// Size returns the in-memory size of a single cell of this value type in
// bytes. Strings are estimated with a constant average length.
func (v ValueType) Size() int64 {
	switch v {
	case FP64, INT64:
		return 8
	case FP32, INT32:
		return 4
	case Boolean:
		return 1
	case String:
		return 32
	default:
		return 8
	}
}

// ParseValueType parses a DML value type name ("double", "integer",
// "boolean", "string", or the tensor type names) into a ValueType.
func ParseValueType(s string) (ValueType, error) {
	switch strings.ToLower(s) {
	case "double", "fp64", "float64":
		return FP64, nil
	case "fp32", "float32", "float":
		return FP32, nil
	case "integer", "int", "int64":
		return INT64, nil
	case "int32":
		return INT32, nil
	case "boolean", "bool":
		return Boolean, nil
	case "string", "str":
		return String, nil
	default:
		return Unknown, fmt.Errorf("types: unknown value type %q", s)
	}
}

// DataType enumerates the kinds of data objects handled by the runtime.
type DataType int

// Supported data types.
const (
	UnknownData DataType = iota
	Scalar
	Matrix
	Tensor
	Frame
	List
)

// String returns the name of the data type.
func (d DataType) String() string {
	switch d {
	case Scalar:
		return "SCALAR"
	case Matrix:
		return "MATRIX"
	case Tensor:
		return "TENSOR"
	case Frame:
		return "FRAME"
	case List:
		return "LIST"
	default:
		return "UNKNOWN"
	}
}

// ParseDataType parses a DML data type name into a DataType.
func ParseDataType(s string) (DataType, error) {
	switch strings.ToLower(s) {
	case "scalar":
		return Scalar, nil
	case "matrix":
		return Matrix, nil
	case "tensor":
		return Tensor, nil
	case "frame":
		return Frame, nil
	case "list":
		return List, nil
	default:
		return UnknownData, fmt.Errorf("types: unknown data type %q", s)
	}
}

// Schema describes the per-column value types of a frame or the schema
// dimension of a heterogeneous data tensor.
type Schema []ValueType

// UniformSchema creates a schema of n columns all having value type vt.
func UniformSchema(vt ValueType, n int) Schema {
	s := make(Schema, n)
	for i := range s {
		s[i] = vt
	}
	return s
}

// String renders the schema as a comma separated list of type names.
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, vt := range s {
		parts[i] = vt.String()
	}
	return strings.Join(parts, ",")
}

// Equal reports whether two schemas are identical.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// DataCharacteristics captures the size metadata of a matrix, tensor or
// frame: dimensions, block size and number of non-zero values. It is the
// unit of size propagation in the compiler (Section 2.3).
type DataCharacteristics struct {
	Rows      int64
	Cols      int64
	Dims      []int64 // set for tensors with more than two dimensions
	Blocksize int
	NNZ       int64 // -1 if unknown
}

// NewDataCharacteristics creates characteristics for a 2D object.
func NewDataCharacteristics(rows, cols int64, blocksize int, nnz int64) DataCharacteristics {
	return DataCharacteristics{Rows: rows, Cols: cols, Blocksize: blocksize, NNZ: nnz}
}

// UnknownCharacteristics returns characteristics with all sizes unknown.
func UnknownCharacteristics() DataCharacteristics {
	return DataCharacteristics{Rows: -1, Cols: -1, Blocksize: DefaultBlocksize, NNZ: -1}
}

// DefaultBlocksize is the default block side length for blocked (distributed)
// matrices, matching SystemDS' squared 1K x 1K blocks.
const DefaultBlocksize = 1024

// DimsKnown reports whether both row and column counts are known.
func (dc DataCharacteristics) DimsKnown() bool {
	return dc.Rows >= 0 && dc.Cols >= 0
}

// NNZKnown reports whether the number of non-zeros is known.
func (dc DataCharacteristics) NNZKnown() bool { return dc.NNZ >= 0 }

// Cells returns the total number of cells, or -1 if unknown.
func (dc DataCharacteristics) Cells() int64 {
	if !dc.DimsKnown() {
		return -1
	}
	if len(dc.Dims) > 0 {
		n := int64(1)
		for _, d := range dc.Dims {
			if d < 0 {
				return -1
			}
			n *= d
		}
		return n
	}
	return dc.Rows * dc.Cols
}

// Sparsity returns the fraction of non-zero cells, or 1.0 if unknown.
func (dc DataCharacteristics) Sparsity() float64 {
	cells := dc.Cells()
	if cells <= 0 || !dc.NNZKnown() {
		return 1.0
	}
	return float64(dc.NNZ) / float64(cells)
}

// String renders the characteristics for debugging and EXPLAIN output.
func (dc DataCharacteristics) String() string {
	return fmt.Sprintf("[%dx%d, blk=%d, nnz=%d]", dc.Rows, dc.Cols, dc.Blocksize, dc.NNZ)
}

// EstimateSizeDense estimates the in-memory size in bytes of a dense FP64
// matrix with the given dimensions.
func EstimateSizeDense(rows, cols int64) int64 {
	if rows < 0 || cols < 0 {
		return -1
	}
	return rows*cols*8 + 64
}

// EstimateSizeSparse estimates the in-memory size in bytes of a CSR sparse
// FP64 matrix with the given dimensions and sparsity.
func EstimateSizeSparse(rows, cols int64, sparsity float64) int64 {
	if rows < 0 || cols < 0 {
		return -1
	}
	nnz := int64(float64(rows*cols) * sparsity)
	// values (8) + column indexes (8, int) + row pointers
	return nnz*16 + (rows+1)*8 + 64
}

// EstimateSize estimates the in-memory size of a matrix given characteristics,
// choosing the sparse estimate when the sparsity is below the sparse
// threshold used by the runtime blocks.
func EstimateSize(dc DataCharacteristics) int64 {
	if !dc.DimsKnown() {
		return -1
	}
	sp := dc.Sparsity()
	if dc.NNZKnown() && sp < SparseThreshold {
		return EstimateSizeSparse(dc.Rows, dc.Cols, sp)
	}
	return EstimateSizeDense(dc.Rows, dc.Cols)
}

// SparseThreshold is the sparsity below which blocks are kept in sparse
// representation.
const SparseThreshold = 0.4

// MatMultMethod names the physical matrix-multiplication strategy chosen by
// the compiler's cost-based planner for operators on the blocked distributed
// backend (hops/cost.go). The runtime executes the named plan; it does not
// re-decide.
type MatMultMethod int

// Physical matmult strategies.
const (
	// MMAuto means no compile-time decision (CP operators, or plans compiled
	// before sizes were known); the instruction falls back to a
	// representation-driven default at runtime.
	MMAuto MatMultMethod = iota
	// MMBroadcastRight partitions the left operand and broadcasts the local
	// right operand to every block-row strip (the map-side broadcast join).
	MMBroadcastRight
	// MMBroadcastLeft partitions the right operand and broadcasts the local
	// left operand to every block-column strip.
	MMBroadcastLeft
	// MMGridJoin partitions both operands and joins block row i with block
	// column j per output cell (the replication-based join).
	MMGridJoin
)

// String returns the short plan name used in EXPLAIN output and plan stats.
func (m MatMultMethod) String() string {
	switch m {
	case MMBroadcastRight:
		return "br"
	case MMBroadcastLeft:
		return "bl"
	case MMGridJoin:
		return "gj"
	default:
		return "auto"
	}
}

// ExecType describes where an operation is executed: in the local control
// program (CP), on the blocked distributed backend (DIST, the Spark
// substitute), or on federated workers (FED).
type ExecType int

// Execution types.
const (
	ExecCP ExecType = iota
	ExecDist
	ExecFed
)

// String returns the name of the execution type.
func (e ExecType) String() string {
	switch e {
	case ExecCP:
		return "CP"
	case ExecDist:
		return "DIST"
	case ExecFed:
		return "FED"
	default:
		return "?"
	}
}
