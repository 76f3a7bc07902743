package runtime

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/types"
)

// PersistentLineageStore adapts a bufferpool.FileStore to the
// lineage.BackingStore interface: it owns the value codec (matrix blocks in
// the SDSB binary format, scalars in a small fixed encoding) while the file
// store owns budgets, eviction and corruption handling. This is the cross-run
// half of Section 3.1's lineage-based reuse — a second process pointed at the
// same directory reloads intermediates instead of recomputing them.
type PersistentLineageStore struct {
	files *bufferpool.FileStore
}

// payload kind tags, first byte of every encoded value.
const (
	payloadKindMatrix byte = 'M'
	payloadKindScalar byte = 'S'
)

// OpenPersistentLineage opens (creating if needed) a persistent lineage store
// rooted at dir under the given payload byte budget.
func OpenPersistentLineage(dir string, budgetBytes int64) (*PersistentLineageStore, error) {
	fs, err := bufferpool.OpenFileStore(dir, budgetBytes)
	if err != nil {
		return nil, err
	}
	return &PersistentLineageStore{files: fs}, nil
}

// Stats returns the underlying file-store statistics.
func (s *PersistentLineageStore) Stats() bufferpool.FileStoreStats {
	if s == nil {
		return bufferpool.FileStoreStats{}
	}
	return s.files.Stats()
}

// Lookup implements lineage.BackingStore: it decodes the persisted payload
// into a runtime data object. Undecodable payloads are dropped and reported
// as misses, mirroring the file store's corruption policy.
func (s *PersistentLineageStore) Lookup(hash uint64, key string) (any, int64, int64, bool) {
	sp := obs.Begin(obs.CatLineage, "get")
	value, size, computeNs, ok := s.lookup(hash, key)
	sp.EndBytes(size)
	return value, size, computeNs, ok
}

func (s *PersistentLineageStore) lookup(hash uint64, key string) (any, int64, int64, bool) {
	payload, computeNs, ok := s.files.Get(hash, key)
	if !ok {
		return nil, 0, 0, false
	}
	value, ok := decodeLineagePayload(payload)
	if !ok {
		s.files.Remove(hash)
		return nil, 0, 0, false
	}
	return value, int64(len(payload)), computeNs, true
}

// Persist implements lineage.BackingStore: encodable values are written
// through to the spill directory. Unsupported value kinds (frames, lists,
// compressed blocks) are skipped without error — they stay memory-only.
func (s *PersistentLineageStore) Persist(hash uint64, key string, value any, sizeBytes, computeNs int64) bool {
	payload, ok := encodeLineagePayload(value)
	if !ok {
		return false
	}
	sp := obs.Begin(obs.CatLineage, "put")
	err := s.files.Put(hash, key, payload, computeNs)
	sp.EndBytes(int64(len(payload)))
	return err == nil
}

// encodeLineagePayload serializes a runtime value. Matrix objects use the
// SDSB binary blocked format (bitwise-preserving float64 round trips, the
// property the reuse-on-vs-off acceptance test depends on); scalars use a
// one-byte value-type tag plus the value bits.
func encodeLineagePayload(value any) ([]byte, bool) {
	switch v := value.(type) {
	case *MatrixObject:
		blk, err := v.Acquire()
		if err != nil || blk == nil {
			return nil, false
		}
		var buf bytes.Buffer
		buf.Grow(1 + int(io.EncodedSize(blk.Rows(), blk.Cols(), 1024)))
		buf.WriteByte(payloadKindMatrix)
		if err := io.WriteMatrixBinaryTo(&buf, blk, 1024); err != nil {
			return nil, false
		}
		return buf.Bytes(), true
	case *Scalar:
		buf := make([]byte, 0, 16+len(v.S))
		buf = append(buf, payloadKindScalar, byte(v.VT))
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(v.F))
		buf = append(buf, bits[:]...)
		if v.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = append(buf, []byte(v.S)...)
		return buf, true
	default:
		return nil, false
	}
}

// decodeLineagePayload is the inverse of encodeLineagePayload.
func decodeLineagePayload(payload []byte) (any, bool) {
	if len(payload) == 0 {
		return nil, false
	}
	switch payload[0] {
	case payloadKindMatrix:
		blk, err := io.ReadMatrixBinaryFrom(bytes.NewReader(payload[1:]), "lineage-store")
		if err != nil {
			return nil, false
		}
		return NewMatrixObject(blk, nil), true
	case payloadKindScalar:
		if len(payload) < 11 {
			return nil, false
		}
		return &Scalar{
			VT: types.ValueType(payload[1]),
			F:  math.Float64frombits(binary.LittleEndian.Uint64(payload[2:10])),
			B:  payload[10] == 1,
			S:  string(payload[11:]),
		}, true
	default:
		return nil, false
	}
}

// Fingerprint returns a content hash of a runtime input value, used to key
// lineage leaves when persistence is on: a leaf named by content instead of
// by variable name cannot falsely match across processes when the caller
// rebinds the name to different data. Values without a cheap stable
// fingerprint report ok=false and must be keyed by a per-run nonce instead.
func Fingerprint(d Data) (uint64, bool) {
	switch v := d.(type) {
	case *MatrixObject:
		blk, err := v.Acquire()
		if err != nil || blk == nil {
			return 0, false
		}
		return fingerprintBlock(blk), true
	case *Scalar:
		h := fnv.New64a()
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(v.F))
		h.Write([]byte{byte(v.VT)})
		h.Write(bits[:])
		if v.B {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		h.Write([]byte(v.S))
		return h.Sum64(), true
	default:
		return 0, false
	}
}

// fingerprintBlock hashes dimensions plus every cell's float bits in
// row-major order. Sparse blocks are read through Get so the block is not
// densified as a side effect (DenseValues converts in place).
func fingerprintBlock(blk *matrix.MatrixBlock) uint64 {
	h := fnv.New64a()
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], uint64(blk.Rows()))
	h.Write(bits[:])
	binary.LittleEndian.PutUint64(bits[:], uint64(blk.Cols()))
	h.Write(bits[:])
	if blk.IsSparse() {
		for r := 0; r < blk.Rows(); r++ {
			for c := 0; c < blk.Cols(); c++ {
				binary.LittleEndian.PutUint64(bits[:], math.Float64bits(blk.Get(r, c)))
				h.Write(bits[:])
			}
		}
		return h.Sum64()
	}
	for _, v := range blk.DenseValues() {
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(v))
		h.Write(bits[:])
	}
	return h.Sum64()
}

// compile-time interface check
var _ lineage.BackingStore = (*PersistentLineageStore)(nil)
