package runtime

import (
	"fmt"
	"os"
	"sync"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/types"
)

// BlockedMatrixObject is the first-class runtime handle of a blocked
// ("distributed") matrix: it flows through the symbol table like any other
// data object, so consecutive blocked operators hand the partitioned
// representation to each other without collecting and re-partitioning. Only a
// CP consumer or a sink (print, write, API output) triggers a collect, via
// Collect. The object participates in the buffer pool with per-block spill
// files.
type BlockedMatrixObject struct {
	poolRef
	mu   sync.Mutex
	dc   types.DataCharacteristics
	bm   *dist.BlockedMatrix // nil when spilled
	meta dist.BlockedMatrix  // shape metadata retained for restore (Blocks nil)
	// spillBase is the base path of the per-block spill files; block i lives
	// at spillBase.b<i>.
	spillBase string
	nblocks   int
	// local memoizes the collected form so repeated CP consumers of the same
	// blocked variable pay the O(rows*cols) assembly once. It is a
	// reader-held view (like a block handed out by MatrixObject.Acquire) and
	// deliberately not part of MemorySize; eviction drops it.
	local *matrix.MatrixBlock
}

// NewBlockedMatrixObject wraps a blocked matrix into a managed object and
// registers it with the buffer pool.
func NewBlockedMatrixObject(bm *dist.BlockedMatrix, pool *bufferpool.Pool) *BlockedMatrixObject {
	bo := &BlockedMatrixObject{
		dc:   types.DataCharacteristics{Rows: int64(bm.Rows), Cols: int64(bm.Cols), Blocksize: bm.Blocksize, NNZ: -1},
		bm:   bm,
		meta: dist.BlockedMatrix{Rows: bm.Rows, Cols: bm.Cols, Blocksize: bm.Blocksize},
	}
	if pool != nil {
		bo.id, bo.pool = pool.NextID(), pool
		pool.Register(bo)
	}
	return bo
}

// DataType returns types.Matrix: a blocked matrix is a matrix to the
// compiler; only the runtime representation differs.
func (b *BlockedMatrixObject) DataType() types.DataType { return types.Matrix }

// DataCharacteristics returns the matrix metadata without touching the data.
func (b *BlockedMatrixObject) DataCharacteristics() types.DataCharacteristics {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dc
}

// String implements Data.
func (b *BlockedMatrixObject) String() string {
	dc := b.DataCharacteristics()
	return fmt.Sprintf("BlockedMatrix[%dx%d, blocksize %d]", dc.Rows, dc.Cols, dc.Blocksize)
}

// Blocked returns the in-memory blocked matrix, restoring the blocks from
// their spill files if the object was evicted.
func (b *BlockedMatrixObject) Blocked() (*dist.BlockedMatrix, error) {
	b.mu.Lock()
	var restored int64
	if b.bm == nil {
		if b.spillBase == "" {
			b.mu.Unlock()
			return nil, fmt.Errorf("runtime: blocked matrix object %d has neither data nor spill files", b.id)
		}
		bm := b.meta
		bm.Blocks = make([]*matrix.MatrixBlock, b.nblocks)
		for i := range bm.Blocks {
			blk, err := restoreBlock(blockSpillPath(b.spillBase, i), bm.Blocksize)
			if err != nil {
				b.mu.Unlock()
				return nil, fmt.Errorf("runtime: restore evicted blocked matrix: %w", err)
			}
			bm.Blocks[i] = blk
		}
		b.bm = &bm
		restored = bm.InMemorySize()
	}
	bm := b.bm
	b.mu.Unlock()
	b.pool.NotifyAccess(b, restored)
	return bm, nil
}

// Region assembles the sub-matrix covering rows [rl, ru) and columns
// [cl, cu). When the object lives in memory this delegates to the blocked
// matrix directly; when it was evicted, only the spill files of the blocks
// the region touches are read back (partial restore) — the object itself
// stays spilled and the skipped blocks never leave disk. Restored-vs-skipped
// block counts are recorded on the buffer pool.
func (b *BlockedMatrixObject) Region(rl, ru, cl, cu int) (*matrix.MatrixBlock, error) {
	b.mu.Lock()
	if b.bm != nil {
		bm := b.bm
		b.mu.Unlock()
		b.pool.NotifyAccess(b, 0)
		res, err := bm.Region(rl, ru, cl, cu)
		if err != nil {
			return nil, err
		}
		// Region assembles densely; sparse sources get their representation back
		return res.ExamineAndApplySparsity(), nil
	}
	if b.spillBase == "" {
		b.mu.Unlock()
		return nil, fmt.Errorf("runtime: blocked matrix object %d has neither data nor spill files", b.id)
	}
	bm := b.meta
	base, nblocks := b.spillBase, b.nblocks
	b.mu.Unlock()
	if rl < 0 || ru > bm.Rows || cl < 0 || cu > bm.Cols || rl >= ru || cl >= cu {
		return nil, fmt.Errorf("runtime: region [%d:%d,%d:%d] out of bounds for %dx%d", rl, ru, cl, cu, bm.Rows, bm.Cols)
	}
	// restore only the covering blocks into a sparse grid copy; Region walks
	// exactly these coordinates
	bm.Blocks = make([]*matrix.MatrixBlock, nblocks)
	gc := bm.GridCols()
	var restored int64
	for bi := rl / bm.Blocksize; bi <= (ru-1)/bm.Blocksize; bi++ {
		for bj := cl / bm.Blocksize; bj <= (cu-1)/bm.Blocksize; bj++ {
			idx := bi*gc + bj
			blk, err := restoreBlock(blockSpillPath(base, idx), bm.Blocksize)
			if err != nil {
				return nil, fmt.Errorf("runtime: partial restore of block (%d,%d): %w", bi, bj, err)
			}
			bm.Blocks[idx] = blk
			restored++
		}
	}
	b.pool.RecordPartialRestore(restored, int64(nblocks)-restored)
	res, err := bm.Region(rl, ru, cl, cu)
	if err != nil {
		return nil, err
	}
	return res.ExamineAndApplySparsity(), nil
}

// LocalFor implements MatrixData: the lazy collect performed only when a CP
// consumer or sink needs local data. The assembled block is memoized, so only
// the first consumer pays the collect, and ctx counts it.
func (b *BlockedMatrixObject) LocalFor(ctx *Context, _ string) (*matrix.MatrixBlock, error) {
	b.mu.Lock()
	if b.local != nil {
		blk := b.local
		b.mu.Unlock()
		return blk, nil
	}
	b.mu.Unlock()
	sp := obs.Begin(obs.CatDist, "collect")
	blk, err := b.collectBlocks()
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.EndBytes(blk.InMemorySize())
	won := false
	b.mu.Lock()
	if b.local == nil {
		b.local = blk
		blk.Claim() // the memo is a handle: no wrap of blk may write it
		won = true
	}
	blk = b.local
	b.mu.Unlock()
	if won {
		ctx.Count(func(s *RunStats) { s.DistStats.Collects++ })
	}
	return blk, nil
}

// collectBlocks assembles the local block from the blocked form (the
// non-memoized part of LocalFor, spanned as a dist "collect" sub-phase).
func (b *BlockedMatrixObject) collectBlocks() (*matrix.MatrixBlock, error) {
	bm, err := b.Blocked()
	if err != nil {
		return nil, err
	}
	return bm.ToMatrixBlock()
}

// MemorySize implements bufferpool.Entry.
func (b *BlockedMatrixObject) MemorySize() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bm == nil {
		return 0
	}
	return b.bm.InMemorySize()
}

// Evict implements bufferpool.Entry: unless the spill files are in place
// already (clean), every block is written to its own (path.b<i>); then the
// blocked matrix is dropped from memory.
func (b *BlockedMatrixObject) Evict(path string, clean bool) (freed, written int64, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bm == nil {
		return 0, 0, nil
	}
	if !clean {
		for i, blk := range b.bm.Blocks {
			n, err := spillBlock(blockSpillPath(path, i), blk, b.bm.Blocksize)
			if err != nil {
				// clean up the partial spill so the object stays in memory
				for j := 0; j <= i; j++ {
					_ = os.Remove(blockSpillPath(path, j))
				}
				return 0, 0, err
			}
			written += n
		}
		b.spillBase = path
		b.nblocks = len(b.bm.Blocks)
	}
	freed = b.bm.InMemorySize()
	b.bm = nil
	b.local = nil
	return freed, written, nil
}

// IsInMemory reports whether the blocked matrix is resident.
func (b *BlockedMatrixObject) IsInMemory() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bm != nil
}

// Discard implements bufferpool.Discarder: per-block spill files are removed
// when the entry is unregistered.
func (b *BlockedMatrixObject) Discard() {
	b.mu.Lock()
	base, n := b.spillBase, b.nblocks
	b.mu.Unlock()
	if base == "" {
		return
	}
	for i := 0; i < n; i++ {
		_ = os.Remove(blockSpillPath(base, i))
	}
}

func blockSpillPath(base string, i int) string { return fmt.Sprintf("%s.b%d", base, i) }
