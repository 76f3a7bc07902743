package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// spill lays out fields little-endian, the way Write does.
func spill(fields ...any) []byte {
	var buf bytes.Buffer
	for _, f := range fields {
		if err := binary.Write(&buf, binary.LittleEndian, f); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func writeBytes(tb testing.TB, cm *CompressedMatrix) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := cm.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// groupKindSpills returns the Write output of one small matrix per group kind
// and of one that holds them all.
func groupKindSpills(tb testing.TB) map[string][]byte {
	const rows = 12
	codes := make([]int, rows)
	wideDict := make([]float64, 300)
	for r := range codes {
		codes[r] = (r * 7) % 5
	}
	for k := range wideDict {
		wideDict[k] = float64(k) - 0.5
	}
	ddc8 := ddcGroup([]int{0}, []float64{0, 1.5, -2, math.Inf(1), 7}, codes, false)
	ddc16 := ddcGroup([]int{0}, wideDict, codes, true)
	cc := ddcGroup([]int{0, 1, 2}, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, codes, false)
	rle := &RLEGroup{Col: 0, Values: []float64{1, 0, -3}, Starts: []int32{0, 5, 6}, Lens: []int32{5, 1, 6}}
	sdc := &SDCGroup{Col: 0, N: rows, Default: 2, Dict: []float64{-1, 9}, Counts: []int32{2, 1},
		Pos: []int32{1, 4, 10}, Codes: []uint16{0, 1, 0}}
	dense := matrix.RandUniform(rows, 2, -1, 1, 1, 5)
	sparse := matrix.NewDense(rows, 2)
	sparse.Set(3, 1, 4.25)
	sparse = sparse.ExamineAndApplySparsity()
	negZero := matrix.NewDense(rows, 1)
	negZero.Set(2, 0, math.Copysign(0, -1))
	one := func(cols int, g ColGroup) []byte {
		return writeBytes(tb, &CompressedMatrix{NumRows: rows, NumCols: cols, Groups: []ColGroup{g}})
	}
	shift := func(g *DDCGroup, cols ...int) *DDCGroup {
		s := *g
		s.Cols = cols
		return &s
	}
	all := &CompressedMatrix{NumRows: rows, NumCols: 12, Groups: []ColGroup{
		ddc8, shift(ddc16, 1), shift(cc, 2, 3, 4),
		&RLEGroup{Col: 5, Values: rle.Values, Starts: rle.Starts, Lens: rle.Lens},
		&SDCGroup{Col: 6, N: rows, Default: sdc.Default, Dict: sdc.Dict, Counts: sdc.Counts, Pos: sdc.Pos, Codes: sdc.Codes},
		&UncompressedGroup{ColIdx: []int{7, 8}, Data: dense},
		&UncompressedGroup{ColIdx: []int{9, 10}, Data: sparse},
		&UncompressedGroup{ColIdx: []int{11}, Data: negZero},
	}}
	return map[string][]byte{
		"ddc-width1-codes8":   one(1, ddc8),
		"ddc-width1-codes16":  one(1, ddc16),
		"ddc-width3":          one(3, cc),
		"rle":                 one(1, rle),
		"sdc":                 one(1, sdc),
		"uncompressed-dense":  one(2, &UncompressedGroup{ColIdx: []int{0, 1}, Data: dense}),
		"uncompressed-sparse": one(2, &UncompressedGroup{ColIdx: []int{0, 1}, Data: sparse}),
		"every-kind":          writeBytes(tb, all),
		"empty-matrix":        writeBytes(tb, &CompressedMatrix{}),
	}
}

// hostileSpills returns spill files that must decode to an error: each one
// breaks one rule Read checks.
func hostileSpills(tb testing.TB) map[string][]byte {
	valid := groupKindSpills(tb)["every-kind"]
	head := func(rows, cols int64, groups int32) []byte {
		return spill(serializeMagic, rows, cols, groups)
	}
	h41 := head(4, 1, 1)
	ddc := func(cols []int32, nv int32, width uint8, n int64, codes any) []byte {
		w := len(cols)
		return append(bytes.Clone(h41), spill(uint8(EncDDC), int32(w), cols, nv,
			make([]float64, int(max(nv, 0))*w), make([]int32, max(nv, 0)), width, n, codes)...)
	}
	rle := func(starts, lens []int32) []byte {
		return append(bytes.Clone(h41), spill(uint8(EncRLE), int32(0), int32(len(starts)),
			make([]float64, len(starts)), starts, lens)...)
	}
	sdc := func(n int64, pos []int32, codes []uint16) []byte {
		return append(bytes.Clone(h41), spill(uint8(EncSDC), int32(0), n, 1.0, int32(2),
			[]float64{3, 4}, []int32{1, 1}, int64(len(pos)), pos, codes)...)
	}
	unc := func(rows, width int64) []byte {
		return append(bytes.Clone(h41), spill(uint8(EncUncompressed), int32(1), int32(0), rows, width,
			make([]float64, rows*width))...)
	}
	codes4 := []uint8{0, 1, 0, 1}
	return map[string][]byte{
		// a dictionary length of -1 in the single-column record layout that
		// preceded the shared dictionary-group record
		"negative-dictionary-length-33-bytes": append(bytes.Clone(h41), spill(uint8(EncDDC), int32(0), int32(-1))...),
		"negative-dictionary-length":          ddc([]int32{0}, -1, 1, 4, codes4),
		"empty":                               {},
		"bad-magic":                           spill(uint32(0x1234), int64(4), int64(1), int32(0)),
		"truncated":                           valid[:len(valid)-3],
		"header-only":                         valid[:24],
		"huge-rows":                           head(1<<40, 1, 0),
		"negative-cols":                       head(4, -1, 0),
		"negative-group-count":                head(4, 1, -1),
		"more-groups-than-columns":            head(4, 1, 2),
		"unknown-tag":                         append(bytes.Clone(h41), 9),
		"column-outside-matrix":               ddc([]int32{1}, 2, 1, 4, codes4),
		"negative-column":                     ddc([]int32{-1}, 2, 1, 4, codes4),
		"empty-column-set":                    ddc([]int32{}, 2, 1, 4, codes4),
		"columns-descending": append(head(4, 2, 1), spill(uint8(EncDDC), int32(2), []int32{1, 0}, int32(1),
			[]float64{1, 2}, []int32{4}, uint8(1), int64(4), make([]uint8, 4))...),
		"overlapping-groups": append(head(4, 2, 2),
			append(spill(uint8(EncRLE), int32(0), int32(1), []float64{1}, []int32{0}, []int32{4}),
				spill(uint8(EncRLE), int32(0), int32(1), []float64{1}, []int32{0}, []int32{4})...)...),
		"dictionary-beyond-code-space":  append(bytes.Clone(h41), spill(uint8(EncDDC), int32(1), int32(0), int32(MaxDictSize+1))...),
		"huge-dictionary":               append(bytes.Clone(h41), spill(uint8(EncDDC), int32(1), int32(0), int32(math.MaxInt32))...),
		"code-width-3":                  ddc([]int32{0}, 2, 3, 4, codes4),
		"one-byte-codes-for-257-tuples": ddc([]int32{0}, 257, 1, 4, codes4),
		"code-count-short":              ddc([]int32{0}, 2, 1, 3, codes4[:3]),
		"code-count-huge":               ddc([]int32{0}, 2, 1, 1<<40, codes4),
		"code-beyond-dictionary":        ddc([]int32{0}, 2, 1, 4, []uint8{0, 1, 2, 0}),
		"wide-code-beyond-dictionary":   ddc([]int32{0}, 2, 2, 4, []uint16{0, 1, 0, 300}),
		"rle-gap":                       rle([]int32{0, 3}, []int32{2, 1}),
		"rle-short":                     rle([]int32{0}, []int32{3}),
		"rle-zero-length":               rle([]int32{0, 0}, []int32{0, 4}),
		"rle-overlong":                  rle([]int32{0}, []int32{math.MaxInt32}),
		"rle-too-many-runs":             rle([]int32{0, 1, 2, 3, 4}, []int32{1, 1, 1, 1, 1}),
		"rle-negative-run-count":        append(bytes.Clone(h41), spill(uint8(EncRLE), int32(0), int32(-5))...),
		"sdc-row-count":                 sdc(5, []int32{1}, []uint16{0}),
		"sdc-positions-descending":      sdc(4, []int32{2, 1}, []uint16{0, 1}),
		"sdc-repeated-position":         sdc(4, []int32{1, 1}, []uint16{0, 1}),
		"sdc-position-beyond-rows":      sdc(4, []int32{4}, []uint16{0}),
		"sdc-negative-position":         sdc(4, []int32{-1}, []uint16{0}),
		"sdc-code-beyond-dictionary":    sdc(4, []int32{1}, []uint16{2}),
		"sdc-too-many-exceptions":       sdc(4, []int32{0, 1, 2, 3, 4}, []uint16{0, 0, 0, 0, 0}),
		"uncompressed-rows":             unc(3, 1),
		"uncompressed-width":            unc(4, 2),
		"uncompressed-huge":             append(bytes.Clone(h41), spill(uint8(EncUncompressed), int32(1), int32(0), int64(4), int64(1<<40))...),
	}
}

// TestReadRejectsNegativeDictionaryLength: a 33-byte spill file whose
// dictionary length is -1 made the decoder panic in makeslice.
func TestReadRejectsNegativeDictionaryLength(t *testing.T) {
	data := hostileSpills(t)["negative-dictionary-length-33-bytes"]
	if len(data) != 33 {
		t.Fatalf("fixture is %d bytes, want 33", len(data))
	}
	if cm, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatalf("decoded %v from a negative dictionary length", cm)
	}
}

func TestReadRejectsHostileSpills(t *testing.T) {
	for name, data := range hostileSpills(t) {
		t.Run(name, func(t *testing.T) {
			if cm, err := Read(bytes.NewReader(data)); err == nil {
				t.Errorf("decoded %v", cm)
			}
		})
	}
}

// rlePastCodeSpace is X = [a, 1] over 210 000 rows, where a steps through
// 70 000 distinct values in runs of three rows: an RLE group with more
// distinct run values than two-byte codes address, next to a constant DDC
// column.
func rlePastCodeSpace() *CompressedMatrix {
	const runs, runLen = 70000, 3
	rows := runs * runLen
	rle := &RLEGroup{Col: 0, Values: make([]float64, runs), Starts: make([]int32, runs), Lens: make([]int32, runs)}
	for i := range runs {
		rle.Values[i], rle.Starts[i], rle.Lens[i] = float64(i), int32(i*runLen), runLen
	}
	return &CompressedMatrix{NumRows: rows, NumCols: 2,
		Groups: []ColGroup{rle, ddcGroup([]int{1}, []float64{1}, make([]int, rows), false)}}
}

// TestReadRejectsRLEPastTheCodeSpace: TSMM and t(X) %*% B expand an RLE group
// into two-byte codes, which wrap past MaxDictSize distinct run values, so a
// spill file holding such a group is malformed.
func TestReadRejectsRLEPastTheCodeSpace(t *testing.T) {
	cm, err := Read(bytes.NewReader(writeBytes(t, rlePastCodeSpace())))
	if err == nil {
		x := cm.Decompress()
		ones := matrix.Fill(cm.NumRows, 1, 1)
		xtb, err := cm.TransMatMultDense(ones, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := matrix.TransposeMultiply(x, ones, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("decoded %d distinct run values: t(X) %%*%% X cell (0,1) = %g (dense %g), t(X) %%*%% B cell (0,0) = %g (dense %g)",
			len(cm.Groups[0].(*RLEGroup).Values), cm.TSMM(1).Get(0, 1), matrix.TSMM(x, 1).Get(0, 1), xtb.Get(0, 0), want.Get(0, 0))
	}
}

// TestSpillRoundTripsEveryGroupKind: each group kind decodes and writes the
// bytes it came from, a negative zero in an uncompressed block included.
func TestSpillRoundTripsEveryGroupKind(t *testing.T) {
	for name, data := range groupKindSpills(t) {
		t.Run(name, func(t *testing.T) {
			cm, err := Read(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(writeBytes(t, cm), data) {
				t.Fatal("re-encoding differs from the decoded bytes")
			}
		})
	}
}

// FuzzCompressedRead: whatever the bytes, Read returns a matrix or an error,
// never panics, and allocates in proportion to its input; a decoded matrix
// writes exactly the bytes it was decoded from, and its kernels run.
func FuzzCompressedRead(f *testing.F) {
	for _, data := range groupKindSpills(f) {
		f.Add(data)
	}
	for _, data := range hostileSpills(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cm, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+4<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		if out := writeBytes(t, cm); !bytes.HasPrefix(data, out) {
			t.Fatalf("re-encoding gives %d bytes that differ from the %d-byte input", len(out), len(data))
		}
		// the kernels allocate rows x cols and cols x cols outputs
		if cm.NumCols > 64 || cm.NumRows > 4096 {
			return
		}
		v := matrix.Fill(cm.NumCols, 1, 1)
		if _, err := cm.MatVec(v, 2); err != nil {
			t.Fatal(err)
		}
		cm.TSMM(2)
		cm.RowSums(2)
		cm.Decompress()
		cm.ColSums()
	})
}
