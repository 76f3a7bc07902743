package lineage

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// ContentHash is the streaming 64-bit content hash behind input fingerprints
// and store checksums: xxHash64 (seed 0). Four independent lanes each take one
// 8-byte little-endian word per 32-byte stripe, so the loop runs at memory
// speed rather than a byte at a time. The sum depends only on the bytes fed,
// never on how they were split across calls. Use NewContentHash; the zero
// value is not a valid state.
type ContentHash struct {
	v1, v2, v3, v4 uint64
	total          uint64
	mem            [32]byte // the unfinished stripe
	n              int      // bytes buffered in mem
}

const (
	prime1 uint64 = 11400714785074694791
	prime2 uint64 = 14029467366897019727
	prime3 uint64 = 1609587929392839161
	prime4 uint64 = 9650029242287828579
	prime5 uint64 = 2870177450012600261
)

// NewContentHash returns a hash over no bytes yet.
func NewContentHash() ContentHash {
	var seed uint64 // a variable, so the lane offsets wrap instead of overflowing as constants
	return ContentHash{v1: seed + prime1 + prime2, v2: seed + prime2, v3: seed, v4: seed - prime1}
}

// HashBytes is the content hash of p in one call.
func HashBytes(p []byte) uint64 {
	h := NewContentHash()
	h.Write(p)
	return h.Sum64()
}

func round(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

func mergeRound(acc, v uint64) uint64 {
	return (acc^round(0, v))*prime1 + prime4
}

// stripes consumes the whole 32-byte stripes of p and returns how many bytes
// it used.
func (h *ContentHash) stripes(p []byte) int {
	v1, v2, v3, v4 := h.v1, h.v2, h.v3, h.v4
	n := len(p) &^ 31
	for i := 0; i < n; i += 32 {
		s := p[i : i+32 : i+32]
		v1 = round(v1, binary.LittleEndian.Uint64(s[0:]))
		v2 = round(v2, binary.LittleEndian.Uint64(s[8:]))
		v3 = round(v3, binary.LittleEndian.Uint64(s[16:]))
		v4 = round(v4, binary.LittleEndian.Uint64(s[24:]))
	}
	h.v1, h.v2, h.v3, h.v4 = v1, v2, v3, v4
	return n
}

// Write feeds p.
func (h *ContentHash) Write(p []byte) {
	h.total += uint64(len(p))
	if h.n > 0 {
		k := copy(h.mem[h.n:], p)
		h.n += k
		p = p[k:]
		if h.n < len(h.mem) {
			return
		}
		h.stripes(h.mem[:])
		h.n = 0
	}
	p = p[h.stripes(p):]
	h.n = copy(h.mem[:], p)
}

// WriteFloats feeds the little-endian bits of every value of v: the same sum
// as Write over the encoded bytes, without encoding them first.
func (h *ContentHash) WriteFloats(v []float64) {
	if h.n%8 != 0 {
		// a byte-granular tail is pending: go through the byte path
		var buf [256]byte
		for len(v) > 0 {
			k := min(len(v), len(buf)/8)
			for i, f := range v[:k] {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
			}
			h.Write(buf[:8*k])
			v = v[k:]
		}
		return
	}
	h.total += 8 * uint64(len(v))
	for h.n > 0 && len(v) > 0 {
		binary.LittleEndian.PutUint64(h.mem[h.n:], math.Float64bits(v[0]))
		h.n += 8
		v = v[1:]
		if h.n == len(h.mem) {
			h.stripes(h.mem[:])
			h.n = 0
		}
	}
	v1, v2, v3, v4 := h.v1, h.v2, h.v3, h.v4
	n := len(v) &^ 3
	for i := 0; i < n; i += 4 {
		s := v[i : i+4 : i+4]
		v1 = round(v1, math.Float64bits(s[0]))
		v2 = round(v2, math.Float64bits(s[1]))
		v3 = round(v3, math.Float64bits(s[2]))
		v4 = round(v4, math.Float64bits(s[3]))
	}
	h.v1, h.v2, h.v3, h.v4 = v1, v2, v3, v4
	for _, f := range v[n:] {
		binary.LittleEndian.PutUint64(h.mem[h.n:], math.Float64bits(f))
		h.n += 8
	}
}

// Sum64 returns the hash of everything fed so far; the state is unchanged.
func (h *ContentHash) Sum64() uint64 {
	var s uint64
	if h.total >= 32 {
		s = bits.RotateLeft64(h.v1, 1) + bits.RotateLeft64(h.v2, 7) +
			bits.RotateLeft64(h.v3, 12) + bits.RotateLeft64(h.v4, 18)
		s = mergeRound(s, h.v1)
		s = mergeRound(s, h.v2)
		s = mergeRound(s, h.v3)
		s = mergeRound(s, h.v4)
	} else {
		s = h.v3 + prime5
	}
	s += h.total
	tail := h.mem[:h.n]
	for ; len(tail) >= 8; tail = tail[8:] {
		s ^= round(0, binary.LittleEndian.Uint64(tail))
		s = bits.RotateLeft64(s, 27)*prime1 + prime4
	}
	if len(tail) >= 4 {
		s ^= uint64(binary.LittleEndian.Uint32(tail)) * prime1
		s = bits.RotateLeft64(s, 23)*prime2 + prime3
		tail = tail[4:]
	}
	for _, b := range tail {
		s ^= uint64(b) * prime5
		s = bits.RotateLeft64(s, 11) * prime1
	}
	s ^= s >> 33
	s *= prime2
	s ^= s >> 29
	s *= prime3
	s ^= s >> 32
	return s
}
