package runtime

import (
	"fmt"
	"os"
	"sync"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/types"
)

// CompressedMatrixObject is the first-class runtime handle of a column-group
// compressed matrix: it flows through the symbol table like any other matrix
// value, supported operators execute directly on the compressed groups, and
// unsupported consumers decompress transparently (counted, memoized). The
// object participates in the buffer pool; eviction spills the *compressed*
// bytes, never a decompressed cell image.
type CompressedMatrixObject struct {
	poolRef
	mu        sync.Mutex
	dc        types.DataCharacteristics
	cm        *compress.CompressedMatrix // nil when spilled
	spillPath string
	// local memoizes the decompressed form so repeated fallback consumers of
	// the same compressed variable pay (and count) the decompression once. It
	// is a reader-held view like BlockedMatrixObject's collect memo: not part
	// of MemorySize, dropped on eviction.
	local *matrix.MatrixBlock
}

// NewCompressedMatrixObject wraps a compressed matrix into a managed object
// and registers it with the buffer pool.
func NewCompressedMatrixObject(cm *compress.CompressedMatrix, pool *bufferpool.Pool) *CompressedMatrixObject {
	co := &CompressedMatrixObject{
		dc: types.DataCharacteristics{
			Rows: int64(cm.Rows()), Cols: int64(cm.Cols()),
			Blocksize: types.DefaultBlocksize, NNZ: cm.NNZ(),
		},
		cm: cm,
	}
	if pool != nil {
		co.id, co.pool = pool.NextID(), pool
		pool.Register(co)
	}
	return co
}

// DataType returns types.Matrix: a compressed matrix is a matrix to the
// compiler; only the runtime representation differs.
func (c *CompressedMatrixObject) DataType() types.DataType { return types.Matrix }

// DataCharacteristics returns the matrix metadata without touching the data.
func (c *CompressedMatrixObject) DataCharacteristics() types.DataCharacteristics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dc
}

// String implements Data.
func (c *CompressedMatrixObject) String() string {
	dc := c.DataCharacteristics()
	return fmt.Sprintf("CompressedMatrix[%dx%d]", dc.Rows, dc.Cols)
}

// Compressed returns the in-memory compressed matrix, restoring it from the
// spill file if the object was evicted.
func (c *CompressedMatrixObject) Compressed() (*compress.CompressedMatrix, error) {
	c.mu.Lock()
	var restored int64
	if c.cm == nil {
		if c.spillPath == "" {
			c.mu.Unlock()
			return nil, fmt.Errorf("runtime: compressed matrix object %d has neither data nor spill file", c.id)
		}
		sp := obs.Begin(obs.CatPool, "restore")
		cm, err := compress.ReadFile(c.spillPath)
		if err != nil {
			sp.End()
			c.mu.Unlock()
			return nil, fmt.Errorf("runtime: restore evicted compressed matrix: %w", err)
		}
		sp.EndBytes(fileSize(c.spillPath))
		c.cm = cm
		restored = cm.InMemorySize()
	}
	cm := c.cm
	c.mu.Unlock()
	c.pool.NotifyAccess(c, restored)
	return cm, nil
}

// LocalFor implements MatrixData with the transparent fallback for consumers
// without a compressed kernel: the decompressed block, memoized, and counted by
// ctx against the triggering opcode (or site label) in the per-opcode
// decompression counters. Only the consumer that wins the memoization race is
// charged — repeated fallback reads of the same variable count once, against
// the first opcode that needed the block.
func (c *CompressedMatrixObject) LocalFor(ctx *Context, op string) (*matrix.MatrixBlock, error) {
	c.mu.Lock()
	if c.local != nil {
		blk := c.local
		c.mu.Unlock()
		return blk, nil
	}
	c.mu.Unlock()
	cm, err := c.Compressed()
	if err != nil {
		return nil, err
	}
	sp := obs.Begin(obs.CatCompress, "decompress")
	blk := cm.Decompress()
	sp.EndBytes(blk.InMemorySize())
	won := false
	c.mu.Lock()
	if c.local == nil {
		c.local = blk
		blk.Claim() // the memo is a handle: no wrap of blk may write it
		won = true
	}
	blk = c.local
	c.mu.Unlock()
	if won {
		if op == "" {
			op = "other"
		}
		ctx.Count(func(s *RunStats) {
			cs := &s.CompressStats
			cs.Decompressions++
			if cs.DecompressionsByOp == nil {
				cs.DecompressionsByOp = map[string]int64{}
			}
			cs.DecompressionsByOp[op]++
		})
	}
	return blk, nil
}

// MemorySize implements bufferpool.Entry.
func (c *CompressedMatrixObject) MemorySize() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cm == nil {
		return 0
	}
	return c.cm.InMemorySize()
}

// Evict implements bufferpool.Entry: unless the spill file is in place
// already (clean), the compressed bytes are written to it — the compressed
// form is what hits disk — and the compressed matrix and the memos derived
// from it are dropped from memory.
func (c *CompressedMatrixObject) Evict(path string, clean bool) (freed, written int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cm == nil {
		return 0, 0, nil
	}
	if !clean {
		sp := obs.Begin(obs.CatPool, "spill")
		if err := c.cm.WriteFile(path); err != nil {
			sp.End()
			return 0, 0, err
		}
		if written = fileSize(path); written == 0 {
			written = c.cm.InMemorySize() // the pool must still learn that a file exists
		}
		sp.EndBytes(written)
		c.spillPath = path
	}
	freed = c.cm.InMemorySize()
	c.cm = nil
	c.local = nil
	return freed, written, nil
}

// fileSize returns the size of a spill file just written or read (0 if it
// cannot be told; the size only feeds statistics).
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// IsInMemory reports whether the compressed matrix is resident.
func (c *CompressedMatrixObject) IsInMemory() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cm != nil
}
