package compress

import (
	"math"
	"math/bits"
)

// The one coder both the planner and the exact encoder are built on: a
// column's values are numbered by their bits in first-occurrence order, and
// joint codes of several columns are numbered from their members' codes. No
// Go map is probed; keys are 64-bit words in an open-addressed table.

// codeTable numbers 64-bit keys in first-insertion order: open addressing
// with linear probing. A slot belongs to the table only when it carries the
// current generation, so reset empties it in O(1).
type codeTable struct {
	slots []tableSlot
	shift uint // 64 - log2(len(slots))
	gen   uint32
	n     int32 // keys numbered since the last reset
}

type tableSlot struct {
	key uint64
	gen uint32
	id  int32
}

// reset empties the table and sizes it for about hint keys.
func (t *codeTable) reset(hint int) {
	size := 16
	for size < 2*hint {
		size <<= 1
	}
	if len(t.slots) < size {
		t.slots = make([]tableSlot, size)
		t.shift = uint(64 - bits.TrailingZeros(uint(size)))
		t.gen = 0
	}
	t.gen++
	if t.gen == 0 { // wrapped: stale stamps could read as live
		clear(t.slots)
		t.gen = 1
	}
	t.n = 0
}

// slot returns the index of key's home slot. Folding the high word into the
// low one first lets the multiply spread the exponent bits of a float, which
// are all that differ between small integers.
func (t *codeTable) slot(key uint64) uint64 {
	return ((key ^ key>>32) * 0x9E3779B97F4A7C15) >> t.shift
}

// code returns key's number, numbering it next when it is new.
func (t *codeTable) code(key uint64) (int32, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.slot(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			if 2*int(t.n+1) > len(t.slots) {
				t.grow()
				return t.code(key)
			}
			*s = tableSlot{key: key, gen: t.gen, id: t.n}
			t.n++
			return s.id, true
		}
		if s.key == key {
			return s.id, false
		}
	}
}

// grow doubles the table, keeping every key's number.
func (t *codeTable) grow() {
	old, gen := t.slots, t.gen
	t.slots = make([]tableSlot, 2*len(old))
	t.shift--
	t.gen = 1
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.gen != gen {
			continue
		}
		i := t.slot(s.key)
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = tableSlot{key: s.key, gen: t.gen, id: s.id}
	}
}

// fastRows is the most values codeColumn codes on its fast path: a row
// block, or a default sample (which can reach twice DefaultSampleRows). Its
// table then has exactly fastSlots slots, so a key's home slot is its hash's
// top fastBits bits, which the compiler knows are in range.
const (
	fastRows  = 1 << (fastBits - 1)
	fastBits  = 13
	fastSlots = 1 << fastBits
)

// codeColumn numbers the values x[0], x[stride], … (len(out) of them) by
// their bits after a reset: out[i] is the code of the i-th value, and dict
// gets every value the first time it is seen. Two values share a code
// exactly when their bits are equal.
func (t *codeTable) codeColumn(out []int32, x []float64, stride int, dict []float64) []float64 {
	t.reset(max(len(out), fastRows))
	if len(t.slots) != fastSlots {
		for i := range out {
			out[i], dict = t.codeMiss(x[i*stride], dict)
		}
		return dict
	}
	slots := (*[fastSlots]tableSlot)(t.slots)
	for i := 0; i < len(out); i++ {
		i += codeHits(out[i:], x[i*stride:], stride, slots, t.gen)
		if i < len(out) {
			out[i], dict = t.codeMiss(x[i*stride], dict)
		}
	}
	return dict
}

// codeHits codes values while each is in its home slot and returns how many
// it coded. It reads nothing else and calls nothing, so its state stays in
// registers.
//
//go:noinline
func codeHits(out []int32, x []float64, stride int, slots *[fastSlots]tableSlot, gen uint32) int {
	p := 0
	for i := range out {
		key := math.Float64bits(x[p])
		s := &slots[((key^key>>32)*0x9E3779B97F4A7C15)>>(64-fastBits)]
		if s.key != key || s.gen != gen {
			return i
		}
		out[i] = s.id
		p += stride
	}
	return len(out)
}

// codeMiss is code for a value whose key is not in its home slot; a new
// value goes to dict. reset sized the table for codeColumn's keys, so on the
// fast path it never grows.
//
//go:noinline
func (t *codeTable) codeMiss(v float64, dict []float64) (int32, []float64) {
	id, isNew := t.code(math.Float64bits(v))
	if isNew {
		dict = append(dict, v)
	}
	return id, dict
}

// pairDirectMax is the largest key space a pairCoder indexes directly.
const pairDirectMax = 1 << 16

// pairCoder numbers pairs (a, b), a < ka and b < kb, in first-occurrence
// order. While ka·kb is at most pairDirectMax the pair's mixed-radix index
// a·kb + b addresses a direct table; past that the packed pair is a key of a
// codeTable. Numbering continues across calls to number until init.
type pairCoder struct {
	kb     int
	hashed bool
	direct []int32 // id+1 per a*kb+b
	used   []int32 // direct indexes set since init, cleared by the next one
	table  codeTable
	n      int32
	// first[id] is the index, within its call of number, of the pair that
	// was numbered id
	first []int32
}

// init starts a fresh numbering over a < ka, b < kb.
func (p *pairCoder) init(ka, kb int) {
	for _, k := range p.used {
		p.direct[k] = 0
	}
	p.used, p.first = p.used[:0], p.first[:0]
	p.kb, p.n = kb, 0
	hi, lo := bits.Mul64(uint64(ka), uint64(kb))
	if p.hashed = hi != 0 || lo > pairDirectMax; p.hashed {
		p.table.reset(16)
	} else if len(p.direct) < int(lo) {
		p.direct = make([]int32, lo)
	}
}

// number writes the number of the pair (a[i], b[i]) to out[i]; out may alias a.
func (p *pairCoder) number(out, a, b []int32) {
	b = b[:len(a)]
	out = out[:len(a)]
	if p.hashed {
		for i := range a {
			id, isNew := p.table.code(uint64(uint32(a[i]))<<32 | uint64(uint32(b[i])))
			if isNew {
				p.first = append(p.first, int32(i))
			}
			out[i] = id
		}
		p.n = p.table.n
		return
	}
	kb := int32(p.kb)
	for i := range a {
		out[i] = a[i]*kb + b[i]
	}
	p.numberDirect(out)
}

// numberDirect replaces every mixed-radix index in keys by its number.
func (p *pairCoder) numberDirect(keys []int32) {
	direct := p.direct
	for i, k := range keys {
		id := direct[k]
		if id == 0 {
			p.n++
			id = p.n
			direct[k] = id
			p.used = append(p.used, k)
			p.first = append(p.first, int32(i))
		}
		keys[i] = id - 1
	}
}

// eqClasses renumbers a column's bit codes into the classes of ==, fed in
// row order: +0 and -0 share a class, and every NaN is a class of its own.
// A class's value is its first occurrence's.
type eqClasses struct {
	src  []float64 // the bit-code dictionary
	of   []int32   // class+1 per bit code; never set for NaN
	zero int32     // class+1 of the zeros
	dict []float64
}

func newEqClasses(src []float64) *eqClasses {
	return &eqClasses{src: src, of: make([]int32, len(src))}
}

// code returns the class of the next row, whose bit code is k.
func (e *eqClasses) code(k int32) int32 {
	v := e.src[k]
	switch {
	case v != v:
		e.dict = append(e.dict, v)
		return int32(len(e.dict) - 1)
	case v == 0:
		if e.zero == 0 {
			e.dict = append(e.dict, v)
			e.zero = int32(len(e.dict))
		}
		return e.zero - 1
	}
	if e.of[k] == 0 {
		e.dict = append(e.dict, v)
		e.of[k] = int32(len(e.dict))
	}
	return e.of[k] - 1
}

// bitsAreEq reports whether a bit-code dictionary's codes are already the
// classes of ==: it holds no NaN and not both zeros.
func bitsAreEq(dict []float64) bool {
	zeros := 0
	for _, v := range dict {
		if v != v {
			return false
		}
		if v == 0 {
			zeros++
		}
	}
	return zeros < 2
}
