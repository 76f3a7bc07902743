package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// The encoder this file keeps scans every unit's own columns top to bottom
// through Get, with a Go map per dictionary. It is the oracle the row-block
// coder is held to, byte for byte.

func oracleCompressBlock(m *matrix.MatrixBlock, cfg PlannerConfig) (*CompressedMatrix, *Plan, bool) {
	plan := oracleEstimatePlan(m, cfg)
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

// oracleThreads are the thread counts the coder is held to its oracles at.
var oracleThreads = []int{1, 2, 3, 7}

// fillMatrix returns a dense rows x cols matrix with cells f(r, c).
func fillMatrix(rows, cols int, f func(r, c int) float64) *matrix.MatrixBlock {
	m := matrix.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, f(r, c))
		}
	}
	m.RecomputeNNZ()
	return m
}

// oracleInputs are the generated inputs both the encoder and the planner
// are held to their oracles on.
func oracleInputs(t *testing.T) map[string]*matrix.MatrixBlock {
	t.Helper()
	noise := matrix.RandUniform(70000, 40, 0, 1, 1.0, 5)
	rnd := func(r, c int) float64 { return noise.Get(r%70000, c%40) }
	negZero := math.Copysign(0, -1)
	cases := map[string]*matrix.MatrixBlock{
		"co-coded low cardinality": fillMatrix(6000, 37, func(r, c int) float64 { return math.Floor(rnd(r, c) * 5) }),
		"ddc wide dictionary":      fillMatrix(9000, 5, func(r, c int) float64 { return math.Floor(rnd(r, c) * 700) }),
		"rle runs":                 fillMatrix(5000, 6, func(r, c int) float64 { return float64(r / (50 * (c + 1))) }),
		"sdc mostly default":       fillMatrix(8000, 4, func(r, c int) float64 { return 7 * math.Floor(rnd(r, c)+0.03) * math.Ceil(rnd(r, c+1)*9) }),
		"mixed with plain columns": fillMatrix(4000, 21, func(r, c int) float64 {
			switch c % 3 {
			case 0:
				return rnd(r, c)
			case 1:
				return math.Floor(rnd(r, c) * 3)
			}
			return float64(r / 100)
		}),
		"signed zeros and NaN": fillMatrix(3000, 3, func(r, c int) float64 {
			return []float64{0, negZero, math.NaN(), 1}[int(rnd(r, c)*4)]
		}),
		// co-coded sets tell tuples apart by bits: +0 and -0 are two values
		// there, and a NaN tuple repeats
		"signed zeros and NaN co-coded": fillMatrix(5000, 6, func(r, c int) float64 {
			if (r+c)%397 == 0 {
				return math.NaN()
			}
			return []float64{0, negZero, 1, 2}[int(rnd(r, c)*4)]
		}),
		// the sample sees three values per column in no order; off the sample
		// the columns have 600 each, so the exact joint dictionary overflows
		// and the set's members are encoded separately
		"joint dictionary overflow": fillMatrix(70000, 2, func(r, c int) float64 {
			if step := 70000 / DefaultSampleRows; r%step == 0 {
				return float64((r / step * (c + 1)) % 3)
			}
			return math.Floor(rnd(r, c) * 600)
		}),
		// the same, with signed zeros and NaN among the members' values, which
		// the separate DDC groups then compare with ==
		"joint overflow with signed zeros and NaN": fillMatrix(70000, 2, func(r, c int) float64 {
			if step := 70000 / DefaultSampleRows; r%step == 0 {
				return float64((r / step * (c + 1)) % 3)
			}
			switch {
			case r%7 == 0:
				return negZero
			case r%11 == 0:
				return math.NaN()
			}
			return math.Floor(rnd(r, c) * 600)
		}),
		// a DDC and an SDC column the sample makes low-cardinality, more than
		// MaxDictSize distinct values off the sample, and noise between them
		"dictionary past the code space": fillMatrix(140000, 3, func(r, c int) float64 {
			onSample := r%(140000/DefaultSampleRows) == 0
			switch {
			case c == 1:
				return rnd(r, c)
			case onSample && c == 0:
				return float64(r % 3)
			case onSample:
				return 7 * math.Floor(rnd(r, c)+0.02)
			}
			return float64(r) + 0.5
		}),
		// two members with 250 values each and a few more than 256 tuples:
		// a co-coded set with two-byte codes
		"co-coded past one byte": fillMatrix(2000, 2, func(r, c int) float64 {
			if c == 1 && r%97 == 0 {
				return float64((r + 1) % 250)
			}
			return float64(r % 250)
		}),
		// the first row block has 100 values, the later ones 600
		"dictionary growing past one byte": fillMatrix(8000, 1, func(r, c int) float64 {
			if r < encodeBlockRows {
				return math.Floor(rnd(r, c) * 100)
			}
			return math.Floor(rnd(r, c) * 600)
		}),
		"sorted and mostly constant": fillMatrix(10000, 6, func(r, c int) float64 {
			switch c {
			case 0:
				return float64(r / 37)
			case 1: // mostly 3
				if rnd(r, c) < 0.97 {
					return 3
				}
				return []float64{0, negZero, math.NaN(), 5}[int(rnd(r, c+1)*4)]
			case 2: // sorted runs, with zero runs of both signs and NaN runs
				switch v := float64(r / 700); {
				case v == 2:
					return []float64{0, negZero}[r/9%2]
				case v == 5:
					return math.NaN()
				default:
					return v
				}
			case 3: // mostly a zero of either sign
				if rnd(r, c) < 0.9 {
					return []float64{0, negZero}[int(rnd(r, c+1)*2)]
				}
				return math.Floor(rnd(r, c+2) * 50)
			case 4:
				return math.Floor(rnd(r, c) * 4)
			}
			return float64(r / 1000)
		}),
		// the sample's first zero is +0 and its last -0: a zero default has
		// the last one's sign
		"zero default of both signs": fillMatrix(3002, 2, func(r, c int) float64 {
			if r%5 == 4 {
				return float64(c + 1)
			}
			return []float64{0, negZero}[(r+c)%2]
		}),
		"rows off the block size": fillMatrix(3*encodeBlockRows+77, 12, func(r, c int) float64 {
			return math.Floor(rnd(r, c) * float64(2+c%4))
		}),
		"one block short": fillMatrix(encodeBlockRows-1, 4, func(r, c int) float64 { return math.Floor(rnd(r, c) * 3) }),
		"one block long":  fillMatrix(encodeBlockRows+1, 4, func(r, c int) float64 { return math.Floor(rnd(r, c) * 3) }),
		"one row":         fillMatrix(1, 9, func(r, c int) float64 { return 1 }),
	}
	sparse := fillMatrix(5000, 30, func(r, c int) float64 { return math.Ceil(rnd(r, c)-0.97) * math.Ceil(rnd(r, c+1)*4) }).ExamineAndApplySparsity()
	lowCardSparse := fillMatrix(7001, 40, func(r, c int) float64 {
		if rnd(r, c) < 0.9 {
			return 0
		}
		return math.Floor(rnd(r, c+1) * 3)
	}).ExamineAndApplySparsity()
	for _, s := range []*matrix.MatrixBlock{sparse, lowCardSparse} {
		if !s.IsSparse() {
			t.Fatal("fixture should be sparse")
		}
	}
	cases["sparse input"] = sparse
	cases["sparse low cardinality"] = lowCardSparse
	return cases
}

// TestEncoderMatchesOracle holds the row-block coder to the column-scan
// encoder on every encoding and fallback, for dense and sparse inputs and
// any thread count.
func TestEncoderMatchesOracle(t *testing.T) {
	cases := oracleInputs(t)
	if over := cases["joint dictionary overflow"]; len(EstimatePlan(over, PlannerConfig{}, 1).CoCoded) != 1 {
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
			for _, threads := range oracleThreads {
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
			if m.IsSparse() != strings.HasPrefix(name, "sparse") {
				t.Fatalf("%s: encoding changed the input's representation", name)
			}
		}
	}
}

// TestGroupEncodersMatchOracle encodes every test column under every
// encoding, whatever the planner would pick, and every co-coded set of
// adjacent columns: the groups, or their fallback, are the oracle encoders'.
func TestGroupEncodersMatchOracle(t *testing.T) {
	noise := matrix.RandUniform(5000, 8, 0, 1, 1.0, 11)
	rnd := func(r, c int) float64 { return noise.Get(r%5000, c) }
	negZero := math.Copysign(0, -1)
	columns := []func(r int) float64{
		func(r int) float64 { return []float64{0, negZero, math.NaN(), 1, 2}[int(rnd(r, 0)*5)] },
		func(r int) float64 { return math.Floor(rnd(r, 1) * 700) },
		func(r int) float64 {
			switch v := float64(r / 300); v {
			case 3:
				return []float64{0, negZero}[r/7%2]
			case 6:
				return math.NaN()
			default:
				return v
			}
		},
		func(r int) float64 {
			if rnd(r, 3) < 0.95 {
				return 3
			}
			return []float64{0, negZero, math.NaN(), 5, 6}[int(rnd(r, 4)*5)]
		},
		func(r int) float64 { return math.Floor(rnd(r, 5) * 3) },
	}
	rows := 2*encodeBlockRows + 300
	m := fillMatrix(rows, len(columns), func(r, c int) float64 { return columns[c](r) })
	wide := fillMatrix(MaxDictSize+4500, 2, func(r, c int) float64 {
		if c == 0 {
			return float64(r) + 0.5
		}
		return float64(r / 3)
	})
	// MaxDictSize+1 bit patterns: both zeros and 65535 other values, so the
	// classes of == just fit the code space
	edge := fillMatrix(140000, 1, func(r, c int) float64 {
		switch r % 997 {
		case 0:
			return 0
		case 1:
			return negZero
		}
		return float64(r%(MaxDictSize-1) + 1)
	})
	groupBytes := func(g ColGroup, rows, cols int) []byte {
		if g == nil {
			return nil
		}
		return encodedBytes(t, &CompressedMatrix{NumRows: rows, NumCols: cols, Groups: []ColGroup{g}}, true)
	}
	for _, x := range []*matrix.MatrixBlock{m, m.ToSparse(), wide, edge} {
		rows, cols := x.Rows(), x.Cols()
		type unitCase struct {
			unit encodeUnit
			want []ColGroup // indexed by column
		}
		var units []unitCase
		for c := 0; c < cols; c++ {
			one := func(enc Encoding, def float64, g ColGroup) unitCase {
				want := make([]ColGroup, cols)
				want[c] = g
				return unitCase{encodeUnit{cols: []int{c}, enc: enc, def: def}, want}
			}
			units = append(units,
				one(EncDDC, 0, oracleEncodeDDC(x, c, rows)),
				one(EncRLE, 0, oracleEncodeRLE(x, c, rows)))
			for _, def := range []float64{x.Get(0, c), 0, negZero, math.NaN(), 3} {
				units = append(units, one(EncSDC, def, oracleEncodeSDC(x, c, rows, def)))
			}
			for w := 2; c+w <= cols && w <= cocodeMaxWidth; w++ {
				set := make([]int, w)
				for j := range set {
					set[j] = c + j
				}
				want := make([]ColGroup, cols)
				if g := oracleEncodeCoCoded(x, set, rows); g != nil {
					want[c] = g
				} else {
					for _, cc := range set {
						want[cc] = oracleEncodeDDC(x, cc, rows)
					}
				}
				units = append(units, unitCase{encodeUnit{cols: set, enc: EncCoCoded}, want})
			}
		}
		if x == m {
			// the cases reach every encoding and the co-coded fallback
			kinds := map[string]bool{}
			for _, u := range units {
				for c, g := range u.want {
					switch {
					case g != nil && u.unit.enc == EncCoCoded && len(g.Columns()) == 1:
						kinds["fallback"] = true
					case g != nil && c == u.unit.cols[0]:
						kinds[u.unit.enc.String()] = true
					}
				}
			}
			if len(kinds) != 5 {
				t.Fatalf("the oracle encoded only %v", kinds)
			}
		}
		for _, threads := range oracleThreads {
			for _, u := range units {
				got := encodeGroups(x, []encodeUnit{u.unit}, threads)
				for c := range got {
					if !bytes.Equal(groupBytes(got[c], rows, cols), groupBytes(u.want[c], rows, cols)) {
						t.Fatalf("%dx%d sparse=%v, %d threads, %s unit %v (default %v): column %d encodes as %v, the oracle as %v",
							rows, cols, x.IsSparse(), threads, u.unit.enc, u.unit.cols, u.unit.def, c,
							groupSummary(got[c]), groupSummary(u.want[c]))
					}
				}
			}
		}
	}
}

func groupSummary(g ColGroup) string {
	if g == nil {
		return "nil"
	}
	return fmt.Sprintf("%s over %v (%d B)", g.Encoding(), g.Columns(), g.InMemorySize())
}
