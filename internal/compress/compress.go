package compress

import (
	"math"
	"slices"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
)

// Compress runs the sample-based planner over a matrix block and, when the
// estimated compression ratio clears the threshold, encodes each column (or
// co-coded column set) under its chosen scheme. It returns the compressed
// matrix, the plan, and whether compression was accepted; a rejected plan
// returns (nil, plan, false) and the caller keeps the uncompressed block.
//
// Encoding is exact and deterministic: dictionaries are numbered in the
// first-occurrence order of their column (see encodeGroups) at any thread
// count, so the same input always yields the same compressed bytes
// (bitwise-reproducible runs).
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
	plan := EstimatePlan(m, cfg, threads)
	if !plan.Accepted {
		return nil, plan, false
	}
	rows, cols := m.Rows(), m.Cols()
	units := make([]encodeUnit, 0, cols)
	cc := plan.CoCoded
	for c := 0; c < cols; c++ {
		if len(cc) > 0 && cc[0].Cols[0] == c {
			units = append(units, encodeUnit{cols: cc[0].Cols, enc: EncCoCoded})
			c += len(cc[0].Cols) - 1
			cc = cc[1:]
			continue
		}
		if cp := plan.Cols[c]; cp.Enc != EncUncompressed {
			units = append(units, encodeUnit{cols: []int{c}, enc: cp.Enc, def: cp.Default})
		}
	}
	encoded := encodeGroups(m, units, threads)
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

// encodeBlockRows is the number of rows one coding task reads. It does not
// depend on the thread count, so neither do the tasks nor anything they
// leave; it bounds a block's distinct values, so block-local codes fit two
// bytes.
const encodeBlockRows = 2048

// mergeLimit is the largest bit-code dictionary a single column may reach
// and still have at most MaxDictSize classes of ==, or exceptions besides an
// SDC default: the zeros merge one code away, an SDC default at most two.
const mergeLimit = MaxDictSize + 2

// encodeGroups builds the exact encoding of the units, which are in column
// order, and returns it indexed by first column; nil means the columns fall
// back to the uncompressed group: an exact dictionary (an RLE group's
// distinct run values, an SDC group's exceptions) overflowed the addressable
// code space, or the encoding is not smaller than the plain columns — the
// exact dictionary can be far larger than the sample suggested. A co-coded
// set that falls back has its members encoded as single-column DDC.
//
// One pass reads X. Row blocks of encodeBlockRows are coded one task each:
// every column of a unit is numbered by its values' bits in the block's
// first-occurrence order, and a co-coded set's tuples by their members'
// codes. Then one task per unit merges the block dictionaries in block
// order. A value new to the merge is new to every row before its block, and
// its block lists it where it first occurs, so merged codes are numbered in
// the first-occurrence order of the whole column — the order of an encoder
// that reads the column top to bottom. The groups are built from those codes.
func encodeGroups(m *matrix.MatrixBlock, units []encodeUnit, threads int) []ColGroup {
	encoded := make([]ColGroup, m.Cols())
	if len(units) == 0 {
		return encoded
	}
	coded := codeBlocks(m, units, threads)
	scratch := make([]mergeScratch, max(1, min(threads, len(units))))
	_ = matrix.ParallelFor(len(units), threads, func(w, i int) error {
		u, cu := &units[i], &coded[i]
		if len(u.cols) > 1 {
			cu.buildCoCoded(u.cols, &scratch[w], encoded)
			return nil
		}
		dict, maps, ok := cu.merge(0, &scratch[w].table)
		if !ok {
			return nil
		}
		var g ColGroup
		switch u.enc {
		case EncRLE:
			g = cu.buildRLE(u.cols[0], dict, maps)
		case EncSDC:
			g = cu.buildSDC(u.cols[0], u.def, dict, maps)
		default:
			g = cu.buildDDC(u.cols, dict, maps, bitsAreEq(dict), true)
		}
		if g != nil {
			encoded[u.cols[0]] = g
		}
		return nil
	})
	return encoded
}

// codedUnit is what the coding pass leaves for one unit.
type codedUnit struct {
	rows int
	// local holds each row's block-local code (its value's for a single
	// column, its tuple's for a co-coded set), unless the row's block has
	// more than 256 of them; then wide[block] holds them.
	local []uint8
	wide  [][]uint16
	// dicts[block][member] lists the block's distinct values of the member
	// in first-occurrence order; tuples[block][k*w+j] is member j's code in
	// the block's k-th tuple.
	dicts  [][][]float64
	tuples [][]uint16
}

// mergeScratch is one merging worker's tables.
type mergeScratch struct {
	table  codeTable
	levels [cocodeMaxWidth]pairCoder
}

// codeScratch is one coding worker's buffers.
type codeScratch struct {
	table  codeTable
	pairs  pairCoder
	member [cocodeMaxWidth][]int32
	fold   [2][]int32
	vals   []float64
	sparse []float64
}

// codeBlocks runs the coding pass over the row blocks of m.
func codeBlocks(m *matrix.MatrixBlock, units []encodeUnit, threads int) []codedUnit {
	rows, cols := m.Rows(), m.Cols()
	nb := (rows + encodeBlockRows - 1) / encodeBlockRows
	coded := make([]codedUnit, len(units))
	for i := range coded {
		coded[i] = codedUnit{rows: rows, local: make([]uint8, rows), wide: make([][]uint16, nb),
			dicts: make([][][]float64, nb)}
		if len(units[i].cols) > 1 {
			coded[i].tuples = make([][]uint16, nb)
		}
	}
	var dense []float64
	if !m.IsSparse() {
		dense = m.DenseValues()
	}
	scratch := make([]*codeScratch, max(1, min(threads, nb)))
	_ = matrix.ParallelFor(nb, threads, func(w, b int) error {
		s := scratch[w]
		if s == nil {
			s = &codeScratch{}
			for j := range s.member {
				s.member[j] = make([]int32, encodeBlockRows)
			}
			s.fold[0], s.fold[1] = make([]int32, encodeBlockRows), make([]int32, encodeBlockRows)
			scratch[w] = s
		}
		r0 := b * encodeBlockRows
		n := min(rows, r0+encodeBlockRows) - r0
		for i := range units {
			c0, width := units[i].cols[0], len(units[i].cols)
			// member j's values are x[j], x[j+stride], …
			var x []float64
			stride := cols
			if dense != nil {
				x = dense[r0*cols+c0:]
			} else {
				if s.sparse == nil {
					s.sparse = make([]float64, encodeBlockRows*cocodeMaxWidth)
				}
				stride = width
				for r := 0; r < n; r++ {
					m.CopyRow(s.sparse[r*width:(r+1)*width], r0+r, c0)
				}
				x = s.sparse
			}
			coded[i].codeBlock(s, b, r0, n, x, stride, width)
		}
		return nil
	})
	return coded
}

// codeBlock codes the unit's n rows of block b, starting at row r0.
func (cu *codedUnit) codeBlock(s *codeScratch, b, r0, n int, x []float64, stride, width int) {
	// the members' dictionaries share one allocation
	var ends [cocodeMaxWidth]int
	vals := s.vals[:0]
	for j := 0; j < width; j++ {
		vals = s.table.codeColumn(s.member[j][:n], x[j:], stride, vals)
		ends[j] = len(vals)
	}
	s.vals = vals
	vals = slices.Clone(vals)
	dicts := make([][]float64, width)
	start := 0
	for j := range dicts {
		dicts[j] = vals[start:ends[j]:ends[j]]
		start = ends[j]
	}
	cu.dicts[b] = dicts
	codes, card := s.member[0][:n], len(dicts[0])
	if width > 1 {
		space := 1
		for _, d := range dicts {
			space = min(space*len(d), pairDirectMax+1)
		}
		if space <= pairDirectMax {
			// a tuple's mixed-radix index over the members' codes addresses
			// one direct table
			out := s.fold[0][:n]
			copy(out, codes)
			for j := 1; j < width; j++ {
				k := int32(len(dicts[j]))
				for r, c := range s.member[j][:n] {
					out[r] = out[r]*k + c
				}
			}
			s.pairs.init(1, space)
			s.pairs.numberDirect(out)
			codes, card = out, int(s.pairs.n)
		} else {
			// number the tuples one member at a time: (tuple of the members
			// so far, next member's code) pairs
			for j := 1; j < width; j++ {
				out := s.fold[j%2][:n]
				s.pairs.init(card, len(dicts[j]))
				s.pairs.number(out, codes, s.member[j][:n])
				codes, card = out, int(s.pairs.n)
			}
		}
		tuples := make([]uint16, 0, card*width)
		for _, r := range s.pairs.first {
			for j := 0; j < width; j++ {
				tuples = append(tuples, uint16(s.member[j][r]))
			}
		}
		cu.tuples[b] = tuples
	}
	if card > 256 {
		wide := make([]uint16, n)
		for r, k := range codes {
			wide[r] = uint16(k)
		}
		cu.wide[b] = wide
		return
	}
	local := cu.local[r0 : r0+n]
	for r, k := range codes {
		local[r] = uint8(k)
	}
}

// merge numbers member j's block dictionaries in block order by their bits:
// it returns the merged dictionary and, per block, each local code's merged
// code; ok is false when the dictionary outgrows mergeLimit.
func (cu *codedUnit) merge(j int, t *codeTable) (dict []float64, maps [][]int32, ok bool) {
	t.reset(16)
	total := 0
	for _, d := range cu.dicts {
		total += len(d[j])
	}
	flat := make([]int32, total)
	maps = make([][]int32, len(cu.dicts))
	for b, d := range cu.dicts {
		maps[b], flat = flat[:len(d[j])], flat[len(d[j]):]
		for l, v := range d[j] {
			k, isNew := t.code(math.Float64bits(v))
			if isNew {
				if len(dict) == mergeLimit {
					return nil, nil, false
				}
				dict = append(dict, v)
			}
			maps[b][l] = k
		}
	}
	return dict, maps, true
}

// forEachCode calls fn with every row's merged code, in row order, where
// maps[block] takes a block's local codes to merged ones.
func (cu *codedUnit) forEachCode(maps [][]int32, fn func(r int, k int32)) {
	for b, mp := range maps {
		r0 := b * encodeBlockRows
		if wide := cu.wide[b]; wide != nil {
			for r, l := range wide {
				fn(r0+r, mp[l])
			}
			continue
		}
		for r, l := range cu.local[r0:min(cu.rows, r0+encodeBlockRows)] {
			fn(r0+r, mp[l])
		}
	}
}

// remap writes every row's merged code to dst and counts the codes.
func remap[D uint8 | uint16](cu *codedUnit, dst []D, maps [][]int32, counts []int32) {
	for b, mp := range maps {
		r0 := b * encodeBlockRows
		if wide := cu.wide[b]; wide != nil {
			remapBlock(dst[r0:r0+len(wide)], wide, mp, counts)
			continue
		}
		r1 := min(cu.rows, r0+encodeBlockRows)
		remapBlock(dst[r0:r1], cu.local[r0:r1], mp, counts)
	}
}

func remapBlock[D, S uint8 | uint16](dst []D, src []S, mp []int32, counts []int32) {
	dst = dst[:len(src)]
	for r, l := range src {
		k := mp[l]
		dst[r] = D(k)
		counts[k]++
	}
}

// buildDDC builds the DDC group of cols from merged codes. dict is
// tuple-major; its codes are the group's when isEq, else (one column) they
// are renumbered into the classes of ==. inPlace lets the one-byte codes
// overwrite the local ones, which are then gone. nil when the encoding
// overflows or does not shrink the plain columns.
func (cu *codedUnit) buildDDC(cols []int, dict []float64, maps [][]int32, isEq, inPlace bool) ColGroup {
	rows := cu.rows
	if !isEq {
		eq := newEqClasses(dict)
		codes := make([]uint16, rows)
		overflow := false
		cu.forEachCode(maps, func(r int, k int32) {
			if !overflow {
				k = eq.code(k)
				overflow = k >= MaxDictSize
				codes[r] = uint16(k)
			}
		})
		if overflow {
			return nil
		}
		g := &DDCGroup{Cols: cols, Dict: eq.dict, Counts: make([]int32, len(eq.dict))}
		for _, k := range codes {
			g.Counts[k]++
		}
		g.Codes8, g.Codes16 = narrowCodes(codes, len(eq.dict))
		return shrinks(g, rows*len(cols))
	}
	card := len(dict) / len(cols)
	if card > MaxDictSize {
		return nil
	}
	g := &DDCGroup{Cols: cols, Dict: dict, Counts: make([]int32, card)}
	// the size is known before the codes are written, and local codes are
	// overwritten only for a group that is kept
	codeBytes := 1
	if card > 256 {
		codeBytes = 2
	}
	if g.InMemorySize()+int64(rows*codeBytes) >= int64(rows*len(cols))*8 {
		return nil
	}
	if card > 256 {
		g.Codes16 = make([]uint16, rows)
		remap(cu, g.Codes16, maps, g.Counts)
		return g
	}
	g.Codes8 = cu.local
	if !inPlace {
		g.Codes8 = make([]uint8, rows)
	}
	remap(cu, g.Codes8, maps, g.Counts)
	return g
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

// shrinks returns g when it is smaller than cells plain cells, else nil.
func shrinks(g ColGroup, cells int) ColGroup {
	if g.InMemorySize() >= int64(cells)*8 {
		return nil
	}
	return g
}

// buildCoCoded builds the joint DDC group of a co-coded set into
// encoded[cols[0]], or, when the joint dictionary overflows or does not
// shrink the columns, each member's own DDC group. Tuples are told apart by
// their bits: a member's bit codes are its codes.
func (cu *codedUnit) buildCoCoded(cols []int, s *mergeScratch, encoded []ColGroup) {
	w := len(cols)
	dicts := make([][]float64, w)
	maps := make([][][]int32, w)
	merged := make([]bool, w)
	fits := true
	for j := range cols {
		dicts[j], maps[j], merged[j] = cu.merge(j, &s.table)
		fits = fits && merged[j] && len(dicts[j]) <= MaxDictSize
	}
	if fits {
		if g := cu.jointDDC(cols, dicts, maps, s.levels[:w]); g != nil {
			encoded[cols[0]] = g
			return
		}
	}
	for j, c := range cols {
		if !merged[j] {
			continue
		}
		// member j's merged code per local tuple
		member := make([][]int32, len(cu.tuples))
		for b, tuples := range cu.tuples {
			member[b] = make([]int32, len(tuples)/w)
			for k := range member[b] {
				member[b][k] = maps[j][b][tuples[k*w+j]]
			}
		}
		if g := cu.buildDDC([]int{c}, dicts[j], member, bitsAreEq(dicts[j]), false); g != nil {
			encoded[c] = g
		}
	}
}

// jointDDC merges the blocks' tuples in block order into the joint
// dictionary and builds the group, or returns nil. A tuple of merged member
// codes is numbered one member at a time, like a block's; each level's pair
// space is the product of the exact member cardinalities so far, indexed
// directly while it is small.
func (cu *codedUnit) jointDDC(cols []int, dicts [][]float64, maps [][][]int32, levels []pairCoder) ColGroup {
	w := len(cols)
	space := len(dicts[0])
	for j := 1; j < w; j++ {
		levels[j].init(space, len(dicts[j]))
		space = min(space*len(dicts[j]), MaxDictSize+1)
	}
	var dict []float64
	jmaps := make([][]int32, len(cu.tuples))
	var member []int32
	for b, tuples := range cu.tuples {
		nt := len(tuples) / w
		codes := make([]int32, nt)
		member = slices.Grow(member[:0], nt)[:nt]
		for k := range codes {
			codes[k] = maps[0][b][tuples[k*w]]
		}
		for j := 1; j < w; j++ {
			for k := range member {
				member[k] = maps[j][b][tuples[k*w+j]]
			}
			levels[j].number(codes, codes, member)
		}
		for k, id := range codes {
			if int(id) < len(dict)/w {
				continue
			}
			if len(dict)/w == MaxDictSize {
				return nil
			}
			for j := 0; j < w; j++ {
				dict = append(dict, dicts[j][maps[j][b][tuples[k*w+j]]])
			}
		}
		jmaps[b] = codes
	}
	return cu.buildDDC(append([]int(nil), cols...), dict, jmaps, true, true)
}

// buildRLE builds the run-length encoding of a column from its bit codes. A
// run continues while the value == the run's first, which is the run's
// value: +0 and -0 continue each other, and a NaN is a run of its own.
func (cu *codedUnit) buildRLE(col int, dict []float64, maps [][]int32) ColGroup {
	zero := make([]bool, len(dict))
	nan := make([]bool, len(dict))
	classes := len(dict)
	zeros := 0
	for k, v := range dict {
		zero[k], nan[k] = v == 0, v != v
		if zero[k] {
			zeros++
		}
		if nan[k] {
			classes--
		}
	}
	if zeros == 2 {
		classes--
	}
	g := &RLEGroup{Col: col}
	var cur int32
	start := 0
	run := func(end int) {
		g.Values = append(g.Values, dict[cur])
		g.Starts = append(g.Starts, int32(start))
		g.Lens = append(g.Lens, int32(end-start))
	}
	nanRuns := 0
	cu.forEachCode(maps, func(r int, k int32) {
		if nan[k] {
			nanRuns++
		}
		if r == 0 {
			cur = k
			return
		}
		if nan[k] || k != cur && !(zero[k] && zero[cur]) {
			run(r)
			cur, start = k, r
		}
	})
	if cu.rows == 0 {
		return g
	}
	run(cu.rows)
	// every class of == starts a run, and every NaN is one: a run value code
	// space past MaxDictSize cannot be addressed (see tooManyRunValues)
	if classes+nanRuns > MaxDictSize {
		return nil
	}
	return shrinks(g, cu.rows)
}

// buildSDC builds the sparse-dictionary encoding of a column around def
// from its bit codes: the rows == def are the default's, the others are
// exceptions coded by their classes of ==.
func (cu *codedUnit) buildSDC(col int, def float64, dict []float64, maps [][]int32) ColGroup {
	isDef := make([]bool, len(dict))
	for k, v := range dict {
		isDef[k] = v == def
	}
	g := &SDCGroup{Col: col, N: cu.rows, Default: def}
	eq := newEqClasses(dict)
	overflow := false
	cu.forEachCode(maps, func(r int, k int32) {
		if overflow || isDef[k] {
			return
		}
		e := eq.code(k)
		if overflow = e >= MaxDictSize; overflow {
			return
		}
		if int(e) == len(g.Counts) {
			g.Counts = append(g.Counts, 0)
		}
		g.Counts[e]++
		g.Pos = append(g.Pos, int32(r))
		g.Codes = append(g.Codes, uint16(e))
	})
	if overflow {
		return nil
	}
	g.Dict = eq.dict
	return shrinks(g, cu.rows)
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
