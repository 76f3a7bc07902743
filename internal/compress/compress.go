package compress

import (
	"encoding/binary"
	"math"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
)

// Compress runs the sample-based planner over a matrix block and, when the
// estimated compression ratio clears the threshold, encodes each column (or
// co-coded column set) under its chosen scheme. It returns the compressed
// matrix, the plan, and whether compression was accepted; a rejected plan
// returns (nil, plan, false) and the caller keeps the uncompressed block.
//
// Encoding is exact and deterministic: dictionaries are built in
// first-occurrence order, every column seeing its rows in order, so the same
// input always yields the same compressed bytes (bitwise-reproducible runs).
// Columns whose exact dictionary overflows MaxDictSize, or whose exact
// encoding is larger than the plain column, fall back — co-coded sets to
// per-column DDC, everything else to the uncompressed group; adjacent
// fallback columns coalesce into one group.
func Compress(m *matrix.MatrixBlock, cfg PlannerConfig, threads int) (*CompressedMatrix, *Plan, bool) {
	sp := obs.Begin(obs.CatCompress, "encode")
	out, plan, ok := compressBlock(m, cfg, threads)
	if ok {
		sp.EndBytes(plan.ActualCompressedBytes)
	} else {
		sp.End()
	}
	return out, plan, ok
}

// encodeUnit is one planned group: a co-coded column set or a single column.
type encodeUnit struct {
	cols []int
	enc  Encoding
	def  float64
}

func compressBlock(m *matrix.MatrixBlock, cfg PlannerConfig, threads int) (*CompressedMatrix, *Plan, bool) {
	plan := EstimatePlan(m, cfg)
	if !plan.Accepted {
		return nil, plan, false
	}
	rows, cols := m.Rows(), m.Cols()
	skip := make([]bool, cols)
	ccAt := make(map[int][]int, len(plan.CoCoded))
	for _, cc := range plan.CoCoded {
		ccAt[cc.Cols[0]] = cc.Cols
		for _, c := range cc.Cols[1:] {
			skip[c] = true
		}
	}
	units := make([]encodeUnit, 0, cols)
	for c := 0; c < cols; c++ {
		if skip[c] {
			continue
		}
		if set, ok := ccAt[c]; ok {
			units = append(units, encodeUnit{cols: set, enc: EncCoCoded})
			continue
		}
		units = append(units, encodeUnit{cols: []int{c}, enc: plan.Cols[c].Enc, def: plan.Cols[c].Default})
	}
	encoded := make([]ColGroup, cols) // indexed by first column; nil = fallback
	encodeUnits(m, units, threads, encoded)
	// a co-coded set whose exact joint dictionary overflowed or did not pay
	// off has its members encoded separately
	var separate []encodeUnit
	for _, u := range units {
		if u.enc == EncCoCoded && encoded[u.cols[0]] == nil {
			for _, c := range u.cols {
				separate = append(separate, encodeUnit{cols: []int{c}, enc: EncDDC})
			}
		}
	}
	encodeUnits(m, separate, threads, encoded)
	// assemble groups in column order (a group's columns are contiguous),
	// coalescing adjacent uncompressed columns into one plain block group
	out := &CompressedMatrix{NumRows: rows, NumCols: cols}
	for c := 0; c < cols; {
		if g := encoded[c]; g != nil {
			out.Groups = append(out.Groups, g)
			c += len(g.Columns())
			continue
		}
		c0 := c
		for c < cols && encoded[c] == nil {
			c++
		}
		out.Groups = append(out.Groups, encodeUncompressed(m, c0, c, rows))
	}
	// the sample can be fooled (e.g. periodic data aligned with the stride):
	// re-check the ACHIEVED ratio after exact encoding and reject compression
	// that did not actually pay off — the caller keeps the original block
	plan.ActualCompressedBytes = out.InMemorySize()
	if float64(plan.UncompressedBytes) < cfg.minRatio()*float64(plan.ActualCompressedBytes) {
		plan.Accepted = false
		return nil, plan, false
	}
	return out, plan, true
}

// encodeSpan is the number of columns one encode task aims to cover: wide
// enough that a task reads whole cache lines of every row, narrow enough that
// a matrix of a few dozen columns still splits across the workers.
const encodeSpan = 16

// encodeUnits encodes the units, which are in column order, into
// encoded[first column]; nil means the unit falls back. The input is
// row-major, so a unit that scanned its own column top to bottom would touch
// one cache line per row for eight bytes of it, and the time of an encode
// would be the time of those misses — which depends on what else the machine
// is doing far more than the arithmetic does. Instead the units are cut into
// tasks of adjacent columns, and a task makes one pass over the rows feeding
// each row to all of its encoders: memory is read front to back, once. Every
// encoder still sees its column's rows in order, so dictionaries keep their
// first-occurrence order.
func encodeUnits(m *matrix.MatrixBlock, units []encodeUnit, threads int, encoded []ColGroup) {
	if len(units) == 0 {
		return
	}
	rows, cols := m.Rows(), m.Cols()
	var dense []float64
	if !m.IsSparse() {
		dense = m.DenseValues()
	}
	// task t covers units[starts[t]:starts[t+1]]
	starts := []int{0}
	for i, c0 := 1, units[0].cols[0]; i < len(units); i++ {
		if units[i].cols[0]-c0 >= encodeSpan {
			starts = append(starts, i)
			c0 = units[i].cols[0]
		}
	}
	starts = append(starts, len(units))
	forEachIndex(len(starts)-1, threads, func(t int) {
		mine := units[starts[t]:starts[t+1]]
		last := mine[len(mine)-1].cols
		c0, c1 := mine[0].cols[0], last[len(last)-1]+1
		encs := make([]unitEncoder, len(mine))
		for i, u := range mine {
			encs[i] = newUnitEncoder(u, c0, rows)
		}
		var scratch []float64
		if dense == nil {
			scratch = make([]float64, c1-c0)
		}
		for r := 0; r < rows; r++ {
			row := scratch
			if dense != nil {
				row = dense[r*cols+c0 : r*cols+c1]
			} else {
				m.CopyRow(scratch, r, c0)
			}
			for _, e := range encs {
				e.add(r, row)
			}
		}
		for i, e := range encs {
			encoded[mine[i].cols[0]] = e.finish()
		}
	})
}

// unitEncoder builds the exact encoding of one unit from its rows, fed in
// order. row holds the cells of the task's columns, the task's first column
// at index 0. finish returns nil when the unit falls back: the exact
// dictionary (an RLE group's distinct run values) overflowed the addressable
// code space, or the encoding is not
// smaller than the plain columns — the exact dictionary can be far larger
// than the sample suggested.
type unitEncoder interface {
	add(r int, row []float64)
	finish() ColGroup
}

func newUnitEncoder(u encodeUnit, c0, rows int) unitEncoder {
	col, off := u.cols[0], u.cols[0]-c0
	switch u.enc {
	case EncCoCoded:
		return &coCodedEncoder{cols: u.cols, off: off, key: make([]byte, 8*len(u.cols)),
			dictIdx: map[string]int{}, codes: make([]uint16, rows)}
	case EncRLE:
		return &rleEncoder{off: off, rows: rows, g: &RLEGroup{Col: col}}
	case EncSDC:
		return &sdcEncoder{off: off, dictIdx: map[float64]int{}, g: &SDCGroup{Col: col, N: rows, Default: u.def}}
	default:
		return &ddcEncoder{col: col, off: off, dictIdx: map[float64]int{}, codes: make([]uint16, rows)}
	}
}

// narrowCodes returns one-byte codes when the dictionary allows them.
func narrowCodes(codes []uint16, dictSize int) ([]uint8, []uint16) {
	if dictSize > 256 {
		return nil, codes
	}
	c8 := make([]uint8, len(codes))
	for r, k := range codes {
		c8[r] = uint8(k)
	}
	return c8, nil
}

// ddcEncoder builds the dense-dictionary encoding of one column.
type ddcEncoder struct {
	col, off int
	dictIdx  map[float64]int
	dict     []float64
	counts   []int32
	codes    []uint16
	overflow bool
}

func (e *ddcEncoder) add(r int, row []float64) {
	if e.overflow {
		return
	}
	v := row[e.off]
	k, ok := e.dictIdx[v]
	if !ok {
		if len(e.dict) >= MaxDictSize {
			e.overflow = true
			return
		}
		k = len(e.dict)
		e.dictIdx[v] = k
		e.dict = append(e.dict, v)
		e.counts = append(e.counts, 0)
	}
	e.counts[k]++
	e.codes[r] = uint16(k)
}

func (e *ddcEncoder) finish() ColGroup {
	if e.overflow {
		return nil
	}
	g := &DDCGroup{Cols: []int{e.col}, Dict: e.dict, Counts: e.counts}
	g.Codes8, g.Codes16 = narrowCodes(e.codes, len(e.dict))
	if g.InMemorySize() >= int64(len(e.codes))*8 {
		return nil
	}
	return g
}

// rleEncoder builds the run-length encoding of one column.
type rleEncoder struct {
	off, rows int
	cur       float64
	start     int
	g         *RLEGroup
}

func (e *rleEncoder) add(r int, row []float64) {
	v := row[e.off]
	if r == 0 {
		e.cur = v
		return
	}
	if v != e.cur {
		e.run(r)
		e.cur, e.start = v, r
	}
}

// run closes the current run at row end.
func (e *rleEncoder) run(end int) {
	e.g.Values = append(e.g.Values, e.cur)
	e.g.Starts = append(e.g.Starts, int32(e.start))
	e.g.Lens = append(e.g.Lens, int32(end-e.start))
}

func (e *rleEncoder) finish() ColGroup {
	if e.rows == 0 {
		return e.g
	}
	e.run(e.rows)
	if e.g.InMemorySize() >= int64(e.rows)*8 || tooManyRunValues(e.g.Values) {
		return nil
	}
	return e.g
}

// sdcEncoder builds the sparse-dictionary encoding of one column around the
// planned default value.
type sdcEncoder struct {
	off      int
	dictIdx  map[float64]int
	g        *SDCGroup
	overflow bool
}

func (e *sdcEncoder) add(r int, row []float64) {
	v := row[e.off]
	if e.overflow || v == e.g.Default {
		return
	}
	g := e.g
	k, ok := e.dictIdx[v]
	if !ok {
		if len(g.Dict) >= MaxDictSize {
			e.overflow = true
			return
		}
		k = len(g.Dict)
		e.dictIdx[v] = k
		g.Dict = append(g.Dict, v)
		g.Counts = append(g.Counts, 0)
	}
	g.Counts[k]++
	g.Pos = append(g.Pos, int32(r))
	g.Codes = append(g.Codes, uint16(k))
}

func (e *sdcEncoder) finish() ColGroup {
	if e.overflow || e.g.InMemorySize() >= int64(e.g.N)*8 {
		return nil
	}
	return e.g
}

// coCodedEncoder builds the joint dictionary encoding of a contiguous column
// set; tuples are told apart by the bits of their values.
type coCodedEncoder struct {
	cols     []int
	off      int
	key      []byte
	dictIdx  map[string]int
	dict     []float64
	counts   []int32
	codes    []uint16
	overflow bool
}

func (e *coCodedEncoder) add(r int, row []float64) {
	if e.overflow {
		return
	}
	tuple := row[e.off : e.off+len(e.cols)]
	for j, v := range tuple {
		binary.LittleEndian.PutUint64(e.key[j*8:], math.Float64bits(v))
	}
	k, ok := e.dictIdx[string(e.key)]
	if !ok {
		if len(e.counts) >= MaxDictSize {
			e.overflow = true
			return
		}
		k = len(e.counts)
		e.dictIdx[string(e.key)] = k
		e.dict = append(e.dict, tuple...)
		e.counts = append(e.counts, 0)
	}
	e.counts[k]++
	e.codes[r] = uint16(k)
}

func (e *coCodedEncoder) finish() ColGroup {
	if e.overflow {
		return nil
	}
	g := &DDCGroup{Cols: append([]int(nil), e.cols...), Dict: e.dict, Counts: e.counts}
	g.Codes8, g.Codes16 = narrowCodes(e.codes, len(e.counts))
	if g.InMemorySize() >= int64(len(e.codes))*8*int64(len(e.cols)) {
		return nil
	}
	return g
}

// encodeUncompressed slices columns [c0, c1) into one plain block group.
func encodeUncompressed(m *matrix.MatrixBlock, c0, c1, rows int) ColGroup {
	cols := make([]int, c1-c0)
	for i := range cols {
		cols[i] = c0 + i
	}
	blk, err := matrix.Slice(m, 0, rows, c0, c1)
	if err != nil {
		// the bounds are derived from the input's own shape; a failure here is
		// a programming error, but fall back to a manual copy to stay total
		blk = matrix.NewDense(rows, c1-c0)
		for r := 0; r < rows; r++ {
			for c := c0; c < c1; c++ {
				blk.Set(r, c-c0, m.Get(r, c))
			}
		}
		blk = blk.ExamineAndApplySparsity()
	}
	return &UncompressedGroup{ColIdx: cols, Data: blk}
}
