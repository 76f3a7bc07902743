package runtime

import (
	"bytes"
	"math"
	goruntime "runtime"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

func TestLineagePayloadMatrixRoundTrip(t *testing.T) {
	dense := matrix.RandUniform(17, 9, -1, 1, 1.0, 7)
	dense.Set(0, 0, math.Pi)
	dense.Set(16, 8, -0.0)
	sparse := matrix.RandUniform(40, 30, -5, 5, 0.05, 8)
	sparse.ExamineAndApplySparsity()
	for _, blk := range []*matrix.MatrixBlock{dense, sparse} {
		payload, ok := encodeLineagePayload(NewMatrixObject(blk, nil))
		if !ok {
			t.Fatal("matrix object must encode")
		}
		v, err := decodeLineagePayload(bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("payload must decode: %v", err)
		}
		got, err := v.(*MatrixObject).Acquire()
		if err != nil {
			t.Fatal(err)
		}
		// bitwise equality, the property warm-run reuse depends on
		if !blk.Equals(got, 0) {
			t.Error("decoded matrix differs bitwise from the original")
		}
	}
}

func TestLineagePayloadScalarRoundTrip(t *testing.T) {
	for _, s := range []*Scalar{
		NewDouble(math.Pi), NewInt(-42), NewBool(true), NewString("hello world"),
	} {
		payload, ok := encodeLineagePayload(s)
		if !ok {
			t.Fatalf("scalar %v must encode", s)
		}
		v, err := decodeLineagePayload(bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("payload must decode: %v", err)
		}
		got := v.(*Scalar)
		if got.VT != s.VT || got.F != s.F || got.B != s.B || got.S != s.S {
			t.Errorf("round trip %+v -> %+v", s, got)
		}
	}
}

func TestLineagePayloadUnsupportedKinds(t *testing.T) {
	if _, ok := encodeLineagePayload("a plain string"); ok {
		t.Error("unsupported values must not encode")
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty payload", nil},
		{"unknown kind tag", []byte{'?', 1, 2}},
		{"truncated scalar", []byte{'S', 1}},
		{"corrupt matrix payload", []byte{'M', 0, 1, 2}},
	} {
		if _, err := decodeLineagePayload(bytes.NewReader(tc.payload)); err == nil {
			t.Errorf("%s must not decode", tc.name)
		}
	}
}

func TestFingerprintDistinguishesContent(t *testing.T) {
	a := matrix.RandUniform(6, 6, -1, 1, 1.0, 1)
	same := a.Copy()
	b := a.Copy()
	b.Set(3, 3, b.Get(3, 3)+1e-12)

	fa, ok := Fingerprint(NewMatrixObject(a, nil))
	if !ok {
		t.Fatal("matrix must fingerprint")
	}
	fSame, _ := Fingerprint(NewMatrixObject(same, nil))
	fb, _ := Fingerprint(NewMatrixObject(b, nil))
	if fa != fSame {
		t.Error("identical content must fingerprint identically")
	}
	if fa == fb {
		t.Error("a one-cell change must change the fingerprint")
	}

	// scalars fingerprint by value and type
	f1, _ := Fingerprint(NewDouble(2))
	f2, _ := Fingerprint(NewInt(2))
	if f1 == f2 {
		t.Error("2.0 and 2L must fingerprint differently")
	}
}

// TestFingerprintSparseDoesNotDensify guards the side-effect hazard: reading
// a sparse block through DenseValues would convert it in place; the
// fingerprint must leave the representation untouched and agree with the
// dense fingerprint of equal content.
func TestFingerprintSparseDoesNotDensify(t *testing.T) {
	sparse := matrix.RandUniform(50, 40, -1, 1, 0.04, 9)
	sparse.ExamineAndApplySparsity()
	if !sparse.IsSparse() {
		t.Skip("block did not convert to sparse at this density")
	}
	dense := sparse.Copy()
	dense.ToDense()

	fs, _ := Fingerprint(NewMatrixObject(sparse, nil))
	fd, _ := Fingerprint(NewMatrixObject(dense, nil))
	if fs != fd {
		t.Error("sparse and dense fingerprints of equal content differ")
	}
	if !sparse.IsSparse() {
		t.Error("fingerprinting densified the sparse block")
	}
}

func TestFingerprintIncludesShape(t *testing.T) {
	// same cell bits, different shape: 2x3 of zeros vs 3x2 of zeros
	a := matrix.NewDense(2, 3)
	b := matrix.NewDense(3, 2)
	fa, _ := Fingerprint(NewMatrixObject(a, nil))
	fb, _ := Fingerprint(NewMatrixObject(b, nil))
	if fa == fb {
		t.Error("shape must be part of the fingerprint")
	}
}

// TestPersistentLineageStoreEndToEnd drives the adapter through the
// lineage.BackingStore interface.
func TestPersistentLineageStoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenPersistentLineage(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	blk := matrix.RandUniform(12, 12, -1, 1, 1.0, 3)
	if !store.Persist(99, "tsmm(input·X)", NewMatrixObject(blk, nil), blk.InMemorySize(), 12345) {
		t.Fatal("matrix must persist")
	}
	// unsupported values are skipped, not errors
	if store.Persist(100, "k", &ListObject{}, 10, 1) {
		t.Error("list objects must not persist")
	}

	// a second store over the same directory simulates the next process
	store2, err := OpenPersistentLineage(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	v, size, computeNs, ok := store2.Lookup(99, "tsmm(input·X)")
	if !ok || computeNs != 12345 || size <= 0 {
		t.Fatalf("Lookup = (_, %d, %d, %v)", size, computeNs, ok)
	}
	got, err := v.(*MatrixObject).Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if !blk.Equals(got, 0) {
		t.Error("cross-open matrix not bitwise-equal")
	}
	if _, _, _, ok := store2.Lookup(99, "different lineage"); ok {
		t.Error("key mismatch must miss")
	}
}

func TestConfigValueType(t *testing.T) {
	// Scalar VT must survive the one-byte encoding used by the codec
	for _, vt := range []types.ValueType{types.FP64, types.INT64, types.Boolean, types.String} {
		if types.ValueType(byte(vt)) != vt {
			t.Fatalf("value type %v does not fit one byte", vt)
		}
	}
}

// FuzzDecodeLineagePayload: whatever bytes a lineage-store entry holds,
// decoding returns a value or an error — never a panic, and nothing allocated
// from a length field beyond what the bytes hold — and a decoded value encodes
// to a payload that decodes to the same bits.
func FuzzDecodeLineagePayload(f *testing.F) {
	for _, v := range []any{
		NewMatrixObject(matrix.RandUniform(5, 4, -1, 1, 1.0, 3), nil),
		NewMatrixObject(matrix.RandUniform(30, 20, -1, 1, 0.05, 4), nil),
		NewDouble(math.Pi), NewInt(-42), NewBool(true), NewString("hello"),
	} {
		payload, ok := encodeLineagePayload(v)
		if !ok {
			f.Fatalf("%v must encode", v)
		}
		f.Add(payload)
	}
	f.Add([]byte{'S', 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		v, err := decodeLineagePayload(bytes.NewReader(data))
		goruntime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		payload, ok := encodeLineagePayload(v)
		if !ok {
			t.Fatalf("decoded %T does not encode", v)
		}
		again, err := decodeLineagePayload(bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		switch x := v.(type) {
		case *Scalar:
			y := again.(*Scalar)
			if x.VT != y.VT || math.Float64bits(x.F) != math.Float64bits(y.F) || x.B != y.B || x.S != y.S {
				t.Fatalf("scalar %+v came back as %+v", x, y)
			}
		case *MatrixObject:
			a, _ := x.Acquire()
			b, _ := again.(*MatrixObject).Acquire()
			if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
				t.Fatalf("%dx%d matrix came back %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
			}
			for r := 0; r < a.Rows(); r++ {
				for c := 0; c < a.Cols(); c++ {
					if math.Float64bits(a.Get(r, c)) != math.Float64bits(b.Get(r, c)) {
						t.Fatalf("cell (%d, %d) came back %v, was %v", r, c, b.Get(r, c), a.Get(r, c))
					}
				}
			}
		}
	})
}
