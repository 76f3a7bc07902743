package lineage

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestContentHashKnownValues pins the function: it is xxHash64 with seed 0,
// so store checksums and input fingerprints mean the same thing in every
// build.
func TestContentHashKnownValues(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"abc", 0x44bc2cf5ad770999},
	} {
		if got := HashBytes([]byte(tc.in)); got != tc.want {
			t.Errorf("HashBytes(%q) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

// TestContentHashSplitInvariant: the sum of a byte string is the same however
// it is cut into Write calls, at every boundary that crosses the 8-byte word
// and the 32-byte stripe, and through any mix of Write and WriteFloats.
func TestContentHashSplitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 200, 1031} {
		data := make([]byte, n)
		rng.Read(data)
		want := HashBytes(data)
		for _, cut := range []int{0, 1, 7, 31, 32, 33, n - 1, n} {
			if cut < 0 || cut > n {
				continue
			}
			h := NewContentHash()
			h.Write(data[:cut])
			h.Write(data[cut:])
			if got := h.Sum64(); got != want {
				t.Errorf("n=%d cut=%d: %#x, want %#x", n, cut, got, want)
			}
		}
		// one byte at a time, and random pieces
		h := NewContentHash()
		for i := range data {
			h.Write(data[i : i+1])
		}
		if got := h.Sum64(); got != want {
			t.Errorf("n=%d bytewise: %#x, want %#x", n, got, want)
		}
		h = NewContentHash()
		for rest := data; len(rest) > 0; {
			k := min(len(rest), rng.Intn(40))
			h.Write(rest[:k])
			rest = rest[k:]
		}
		if got := h.Sum64(); got != want {
			t.Errorf("n=%d random pieces: %#x, want %#x", n, got, want)
		}
	}
}

// TestContentHashFloatsEqualBytes: WriteFloats(v) is Write of v's
// little-endian bytes, whatever was fed before it (word-aligned or not).
func TestContentHashFloatsEqualBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 3, 4, 5, 9, 100} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if n > 2 {
			v[1], v[2] = math.Copysign(0, -1), math.NaN()
		}
		enc := make([]byte, 8*n)
		for i, f := range v {
			binary.LittleEndian.PutUint64(enc[8*i:], math.Float64bits(f))
		}
		for _, lead := range []int{0, 3, 8, 24, 31, 40} {
			prefix := make([]byte, lead)
			rng.Read(prefix)
			bytesHash := NewContentHash()
			bytesHash.Write(prefix)
			bytesHash.Write(enc)
			floatHash := NewContentHash()
			floatHash.Write(prefix)
			floatHash.WriteFloats(v)
			if a, b := floatHash.Sum64(), bytesHash.Sum64(); a != b {
				t.Errorf("n=%d lead=%d: WriteFloats %#x, Write %#x", n, lead, a, b)
			}
		}
	}
}

func TestContentHashSumDoesNotConsume(t *testing.T) {
	h := NewContentHash()
	h.Write([]byte("0123456789abcdef0123456789abcdef-tail"))
	if a, b := h.Sum64(), h.Sum64(); a != b {
		t.Fatalf("Sum64 changed the state: %#x then %#x", a, b)
	}
}

// BenchmarkContentHash reports the hash's throughput over bytes and over
// float64 cells (the input-fingerprint path).
func BenchmarkContentHash(b *testing.B) {
	const size = 4 << 20
	data := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(data)
	b.Run("bytes", func(b *testing.B) {
		b.SetBytes(size)
		for b.Loop() {
			HashBytes(data)
		}
	})
	floats := make([]float64, size/8)
	for i := range floats {
		floats[i] = float64(i) * 0.5
	}
	b.Run("floats", func(b *testing.B) {
		b.SetBytes(size)
		for b.Loop() {
			h := NewContentHash()
			h.WriteFloats(floats)
			h.Sum64()
		}
	})
}
