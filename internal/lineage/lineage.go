// Package lineage implements fine-grained lineage tracing and the
// lineage-based reuse cache of SystemDS (Section 3.1 of the paper). Every
// executed logical operation is recorded as a lineage item referencing the
// lineage of its inputs; the resulting DAGs identify intermediates, enable
// reproducibility, and serve as cache keys for reuse of redundantly computed
// intermediates.
package lineage

import (
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// ItemKind distinguishes leaves (literals, input reads) from operation nodes.
type ItemKind int

// Lineage item kinds.
const (
	KindLiteral ItemKind = iota
	KindCreation
	KindInstruction
)

// Hash is the 128-bit structural hash of a lineage DAG: two independently
// mixed 64-bit lanes over (kind, opcode, data, input hashes).
type Hash struct{ Hi, Lo uint64 }

// String renders the hash as 32 lower-case hex digits. The fixed-width
// rendering is the verification key of the persistent store.
func (h Hash) String() string {
	var raw [16]byte
	binary.BigEndian.PutUint64(raw[:8], h.Hi)
	binary.BigEndian.PutUint64(raw[8:], h.Lo)
	return hex.EncodeToString(raw[:])
}

// Item is a node of a lineage DAG. Items are immutable after creation; the
// hash is computed by the constructor from the node's own fields and the
// hashes its inputs already carry, so building an item costs O(fan-in)
// however deep the DAG below it is.
type Item struct {
	Kind   ItemKind
	Opcode string
	Data   string // a literal's typed value, an input's key, or opcode-level text
	Inputs []*Item

	hash Hash
}

// NewLiteral creates a literal leaf item: data is the encoded value.
func NewLiteral(data string) *Item {
	return newItem(KindLiteral, "lit", data, nil)
}

// NewCreation creates a leaf item for an external input (file read, named
// script input).
func NewCreation(op, data string) *Item {
	return newItem(KindCreation, op, data, nil)
}

// NewInstruction creates an operation item with the given inputs.
func NewInstruction(opcode, data string, inputs ...*Item) *Item {
	return newItem(KindInstruction, opcode, data, inputs)
}

func newItem(kind ItemKind, opcode, data string, inputs []*Item) *Item {
	h := hasher{a: 0xcbf29ce484222325, b: 0x9e3779b97f4a7c15}
	h.word(uint64(kind)<<32 | uint64(len(inputs)))
	h.str(opcode)
	h.str(data)
	for _, in := range inputs {
		h.word(in.hash.Hi)
		h.word(in.hash.Lo)
	}
	return &Item{Kind: kind, Opcode: opcode, Data: data, Inputs: inputs, hash: h.sum()}
}

// hasher is the allocation-free two-lane mixer behind Item hashes. The lanes
// use different multipliers and different feedback (shift-xor vs rotate), so
// a collision in one is not a collision in the other.
type hasher struct{ a, b uint64 }

func (h *hasher) word(w uint64) {
	h.a = (h.a ^ w) * 0x100000001b3
	h.a ^= h.a >> 32
	h.b = (bits.RotateLeft64(h.b, 27) ^ w) * 0xff51afd7ed558ccd
}

// str feeds the length and then the bytes, eight per word, so neighbouring
// strings cannot run into each other.
func (h *hasher) str(s string) {
	h.word(uint64(len(s)))
	for len(s) > 0 {
		var w uint64
		n := len(s)
		if n > 8 {
			n = 8
		}
		for i := 0; i < n; i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h.word(w)
		s = s[n:]
	}
}

func (h *hasher) sum() Hash { return Hash{Hi: fmix64(h.a), Lo: fmix64(h.b)} }

// fmix64 is the MurmurHash3 finalizer: every input bit reaches every output
// bit.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Hash returns the structural hash over the item's kind, opcode, data and
// transitive inputs. Identical computations produce identical hashes, which
// makes the hash the reuse-cache key.
func (it *Item) Hash() Hash { return it.hash }

// Equals reports whether two lineage DAGs are identical: the same node, or
// equal 128-bit hashes and equal own fields. The inputs are not compared — the
// hash covers them — so equality below this node is hash equality and a probe
// costs O(1); the own-field check only keeps the cache from trusting its map
// key alone.
func (it *Item) Equals(o *Item) bool {
	if it == o {
		return true
	}
	if it == nil || o == nil || it.hash != o.hash {
		return false
	}
	return it.Kind == o.Kind && it.Opcode == o.Opcode && it.Data == o.Data && len(it.Inputs) == len(o.Inputs)
}

// String renders the lineage DAG in a compact nested form, e.g.
// "tsmm(cbind(tread(X),tread(Z)))". It walks the whole input tree (shared
// nodes once per reference) and is meant for EXPLAIN and debugging; nothing on
// the reuse path calls it.
func (it *Item) String() string {
	var sb strings.Builder
	it.render(&sb)
	return sb.String()
}

func (it *Item) render(sb *strings.Builder) {
	sb.WriteString(it.Opcode)
	if it.Data != "" {
		sb.WriteString("·")
		sb.WriteString(it.Data)
	}
	if len(it.Inputs) > 0 {
		sb.WriteString("(")
		for i, in := range it.Inputs {
			if i > 0 {
				sb.WriteString(",")
			}
			in.render(sb)
		}
		sb.WriteString(")")
	}
}

// Size returns the number of nodes in the lineage DAG (distinct nodes counted
// once).
func (it *Item) Size() int {
	seen := map[*Item]bool{}
	var count func(i *Item)
	count = func(i *Item) {
		if seen[i] {
			return
		}
		seen[i] = true
		for _, in := range i.Inputs {
			count(in)
		}
	}
	count(it)
	return len(seen)
}

// Tracer maintains the lineage items of the live variables of one execution
// context. Tracers are cheap to create; parfor workers and function calls get
// their own tracer seeded with the items of their inputs.
type Tracer struct {
	mu    sync.Mutex
	items map[string]*Item
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{items: map[string]*Item{}}
}

// Get returns the lineage item of a variable, creating a leaf item lazily for
// a variable whose creation was not traced (one bound directly on a context,
// not by an instruction or the engine).
func (t *Tracer) Get(name string) *Item {
	t.mu.Lock()
	defer t.mu.Unlock()
	if it, ok := t.items[name]; ok {
		return it
	}
	it := NewCreation("tread", name)
	t.items[name] = it
	return it
}

// Set assigns the lineage item of a variable.
func (t *Tracer) Set(name string, it *Item) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.items[name] = it
}

// Has reports whether a variable has a traced lineage item.
func (t *Tracer) Has(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.items[name]
	return ok
}

// Copy returns a tracer with a copied variable map (items are shared, they
// are immutable).
func (t *Tracer) Copy() *Tracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp := NewTracer()
	for k, v := range t.items {
		cp.items[k] = v
	}
	return cp
}

// Variables returns the sorted names of traced variables.
func (t *Tracer) Variables() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.items))
	for k := range t.items {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
