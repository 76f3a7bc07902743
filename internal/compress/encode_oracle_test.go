package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// The encoder this file keeps is the one compressBlock replaced: every unit
// scans its own columns top to bottom through Get. It is the oracle the
// row-pass encoder is held to, byte for byte.

func oracleCompressBlock(m *matrix.MatrixBlock, cfg PlannerConfig) (*CompressedMatrix, *Plan, bool) {
	plan := EstimatePlan(m, cfg)
	if !plan.Accepted {
		return nil, plan, false
	}
	rows, cols := m.Rows(), m.Cols()
	// one encode unit per planned group: co-coded sets plus single columns
	type encodeUnit struct {
		cols []int
		enc  Encoding
		def  float64
	}
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
	for i := range units {
		u := units[i]
		switch u.enc {
		case EncCoCoded:
			if g := oracleEncodeCoCoded(m, u.cols, rows); g != nil {
				encoded[u.cols[0]] = g
				continue
			}
			// the exact joint dictionary overflowed or did not pay off:
			// encode the members separately
			for _, c := range u.cols {
				encoded[c] = oracleEncodeDDC(m, c, rows)
			}
		case EncDDC:
			encoded[u.cols[0]] = oracleEncodeDDC(m, u.cols[0], rows)
		case EncRLE:
			encoded[u.cols[0]] = oracleEncodeRLE(m, u.cols[0], rows)
		case EncSDC:
			encoded[u.cols[0]] = oracleEncodeSDC(m, u.cols[0], rows, u.def)
		}
	}
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

// oracleEncodeDDC builds the exact dense-dictionary encoding of one column, or nil
// when the exact dictionary overflows the addressable code space.
func oracleEncodeDDC(m *matrix.MatrixBlock, col, rows int) ColGroup {
	dictIdx := map[float64]int{}
	var dict []float64
	var counts []int32
	codes := make([]uint16, rows)
	for r := 0; r < rows; r++ {
		v := m.Get(r, col)
		k, ok := dictIdx[v]
		if !ok {
			if len(dict) >= MaxDictSize {
				return nil
			}
			k = len(dict)
			dictIdx[v] = k
			dict = append(dict, v)
			counts = append(counts, 0)
		}
		counts[k]++
		codes[r] = uint16(k)
	}
	g := &DDCGroup{Cols: []int{col}, Dict: dict, Counts: counts}
	if len(dict) <= 256 {
		c8 := make([]uint8, rows)
		for r, k := range codes {
			c8[r] = uint8(k)
		}
		g.Codes8 = c8
	} else {
		g.Codes16 = codes
	}
	// the exact dictionary can be far larger than the sample suggested; keep
	// the plain column when the encoding does not actually shrink it
	if g.InMemorySize() >= int64(rows)*8 {
		return nil
	}
	return g
}

// oracleEncodeRLE builds the exact run-length encoding of one column, or nil when
// the runs make it larger than the plain column.
func oracleEncodeRLE(m *matrix.MatrixBlock, col, rows int) ColGroup {
	if rows == 0 {
		return &RLEGroup{Col: col}
	}
	g := &RLEGroup{Col: col}
	cur := m.Get(0, col)
	start := 0
	for r := 1; r < rows; r++ {
		v := m.Get(r, col)
		if v != cur {
			g.Values = append(g.Values, cur)
			g.Starts = append(g.Starts, int32(start))
			g.Lens = append(g.Lens, int32(r-start))
			cur, start = v, r
		}
	}
	g.Values = append(g.Values, cur)
	g.Starts = append(g.Starts, int32(start))
	g.Lens = append(g.Lens, int32(rows-start))
	if g.InMemorySize() >= int64(rows)*8 {
		return nil
	}
	return g
}

// oracleEncodeSDC builds the exact sparse-dictionary encoding of one column around
// the given default value, or nil when the exceptions overflow the code space
// or the encoding does not shrink the column.
func oracleEncodeSDC(m *matrix.MatrixBlock, col, rows int, def float64) ColGroup {
	g := &SDCGroup{Col: col, N: rows, Default: def}
	dictIdx := map[float64]int{}
	for r := 0; r < rows; r++ {
		v := m.Get(r, col)
		if v == def {
			continue
		}
		k, ok := dictIdx[v]
		if !ok {
			if len(g.Dict) >= MaxDictSize {
				return nil
			}
			k = len(g.Dict)
			dictIdx[v] = k
			g.Dict = append(g.Dict, v)
			g.Counts = append(g.Counts, 0)
		}
		g.Counts[k]++
		g.Pos = append(g.Pos, int32(r))
		g.Codes = append(g.Codes, uint16(k))
	}
	if g.InMemorySize() >= int64(rows)*8 {
		return nil
	}
	return g
}

// oracleEncodeCoCoded builds the exact joint dictionary encoding of a contiguous
// column set, or nil when the tuple dictionary overflows MaxDictSize or the
// encoding is larger than the plain columns.
func oracleEncodeCoCoded(m *matrix.MatrixBlock, set []int, rows int) ColGroup {
	w := len(set)
	key := make([]byte, w*8)
	dictIdx := map[string]int{}
	var dict []float64
	var counts []int32
	codes := make([]uint16, rows)
	for r := 0; r < rows; r++ {
		for j, c := range set {
			binary.LittleEndian.PutUint64(key[j*8:], math.Float64bits(m.Get(r, c)))
		}
		k, ok := dictIdx[string(key)]
		if !ok {
			if len(counts) >= MaxDictSize {
				return nil
			}
			k = len(counts)
			dictIdx[string(key)] = k
			for _, c := range set {
				dict = append(dict, m.Get(r, c))
			}
			counts = append(counts, 0)
		}
		counts[k]++
		codes[r] = uint16(k)
	}
	g := &DDCGroup{Cols: append([]int(nil), set...), Dict: dict, Counts: counts}
	if len(counts) <= 256 {
		c8 := make([]uint8, rows)
		for r, k := range codes {
			c8[r] = uint8(k)
		}
		g.Codes8 = c8
	} else {
		g.Codes16 = codes
	}
	if g.InMemorySize() >= int64(rows)*8*int64(w) {
		return nil
	}
	return g
}

// encodedBytes serializes a compression result; a rejected one is empty.
func encodedBytes(t *testing.T, cm *CompressedMatrix, ok bool) []byte {
	t.Helper()
	if !ok {
		return nil
	}
	var buf bytes.Buffer
	if err := cm.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncoderMatchesOracle holds the row-pass encoder to the column-scan one
// on every encoding and fallback, for dense and sparse inputs and any
// thread count.
func TestEncoderMatchesOracle(t *testing.T) {
	fill := func(rows, cols int, f func(r, c int) float64) *matrix.MatrixBlock {
		m := matrix.NewDense(rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				m.Set(r, c, f(r, c))
			}
		}
		m.RecomputeNNZ()
		return m
	}
	noise := matrix.RandUniform(70000, 40, 0, 1, 1.0, 5)
	rnd := func(r, c int) float64 { return noise.Get(r%70000, c%40) }
	cases := map[string]*matrix.MatrixBlock{
		"co-coded low cardinality": fill(6000, 37, func(r, c int) float64 { return math.Floor(rnd(r, c) * 5) }),
		"ddc wide dictionary":      fill(9000, 5, func(r, c int) float64 { return math.Floor(rnd(r, c) * 700) }),
		"rle runs":                 fill(5000, 6, func(r, c int) float64 { return float64(r / (50 * (c + 1))) }),
		"sdc mostly default":       fill(8000, 4, func(r, c int) float64 { return 7 * math.Floor(rnd(r, c)+0.03) * math.Ceil(rnd(r, c+1)*9) }),
		"mixed with plain columns": fill(4000, 21, func(r, c int) float64 {
			switch c % 3 {
			case 0:
				return rnd(r, c)
			case 1:
				return math.Floor(rnd(r, c) * 3)
			}
			return float64(r / 100)
		}),
		"signed zeros and NaN": fill(3000, 3, func(r, c int) float64 {
			return []float64{0, math.Copysign(0, -1), math.NaN(), 1}[int(rnd(r, c)*4)]
		}),
		// the sample sees three values per column in no order; off the sample
		// the columns have 600 each, so the exact joint dictionary overflows
		// and the set's members are encoded separately
		"joint dictionary overflow": fill(70000, 2, func(r, c int) float64 {
			if step := 70000 / DefaultSampleRows; r%step == 0 {
				return float64((r / step * (c + 1)) % 3)
			}
			return math.Floor(rnd(r, c) * 600)
		}),
		"one row": fill(1, 9, func(r, c int) float64 { return 1 }),
	}
	sparse := fill(5000, 30, func(r, c int) float64 { return math.Ceil(rnd(r, c)-0.97) * math.Ceil(rnd(r, c+1)*4) }).ExamineAndApplySparsity()
	if !sparse.IsSparse() {
		t.Fatal("fixture should be sparse")
	}
	cases["sparse input"] = sparse
	if over := cases["joint dictionary overflow"]; len(EstimatePlan(over, PlannerConfig{}).CoCoded) != 1 {
		t.Fatal("fixture should plan one co-coded set")
	}
	for name, m := range cases {
		for _, cfg := range []PlannerConfig{{}, {MinRatio: 0.01}} {
			wantCM, wantPlan, wantOK := oracleCompressBlock(m, cfg)
			want := encodedBytes(t, wantCM, wantOK)
			if wantOK {
				t.Logf("%s (min ratio %g): %s", name, cfg.MinRatio, wantCM.EncodingSummary())
			} else {
				t.Logf("%s (min ratio %g): rejected", name, cfg.MinRatio)
			}
			for _, threads := range []int{1, 2, 5} {
				cm, plan, ok := Compress(m, cfg, threads)
				if ok != wantOK || plan.ActualCompressedBytes != wantPlan.ActualCompressedBytes {
					t.Fatalf("%s, %d threads: accepted %v at %d B, oracle %v at %d B", name, threads,
						ok, plan.ActualCompressedBytes, wantOK, wantPlan.ActualCompressedBytes)
				}
				if !bytes.Equal(encodedBytes(t, cm, ok), want) {
					t.Fatalf("%s, %d threads: encoding differs from the oracle's (%s vs %s)", name, threads,
						cm.EncodingSummary(), wantCM.EncodingSummary())
				}
			}
			if m.IsSparse() != (name == "sparse input") {
				t.Fatalf("%s: encoding changed the input's representation", name)
			}
		}
	}
}
