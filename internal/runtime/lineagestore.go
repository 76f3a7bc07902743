package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/systemds/systemds-go/internal/bufferpool"
	sdsio "github.com/systemds/systemds-go/internal/io"
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
// straight from the store file into a runtime data object. The file store
// verifies the checksum over the bytes the decoder read before the value is
// returned; an undecodable or mismatching payload is dropped there and
// reported as a miss.
func (s *PersistentLineageStore) Lookup(hash uint64, key string) (any, int64, int64, bool) {
	sp := obs.Begin(obs.CatLineage, "get")
	var value any
	size, computeNs, ok := s.files.Get(hash, key, func(r io.Reader) (err error) {
		value, err = decodeLineagePayload(r)
		return err
	})
	sp.EndBytes(size)
	if !ok {
		return nil, 0, 0, false
	}
	return value, size, computeNs, true
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
		buf.Grow(1 + int(sdsio.EncodedSize(blk.Rows(), blk.Cols(), 1024)))
		buf.WriteByte(payloadKindMatrix)
		if err := sdsio.WriteMatrixBinaryTo(&buf, blk, 1024); err != nil {
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

// decodeLineagePayload is the inverse of encodeLineagePayload, reading the
// payload from r.
func decodeLineagePayload(r io.Reader) (any, error) {
	var kind [1]byte
	if _, err := io.ReadFull(r, kind[:]); err != nil {
		return nil, err
	}
	switch kind[0] {
	case payloadKindMatrix:
		blk, err := sdsio.ReadMatrixBinaryFrom(r, "lineage-store")
		if err != nil {
			return nil, err
		}
		return NewMatrixObject(blk, nil), nil
	case payloadKindScalar:
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		if len(rest) < 10 {
			return nil, errors.New("runtime: truncated scalar payload")
		}
		return &Scalar{
			VT: types.ValueType(rest[0]),
			F:  math.Float64frombits(binary.LittleEndian.Uint64(rest[1:9])),
			B:  rest[9] == 1,
			S:  string(rest[10:]),
		}, nil
	default:
		return nil, fmt.Errorf("runtime: unknown lineage payload kind %#x", kind[0])
	}
}

// Fingerprint returns a content hash of a runtime input value, used to key
// lineage leaves when reuse is on: a leaf named by content instead of by
// variable name cannot falsely match, within a session or across processes,
// when the caller rebinds the name to different data. Values without a cheap stable
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
		payload, _ := encodeLineagePayload(v)
		return lineage.HashBytes(payload), true
	default:
		return 0, false
	}
}

// fingerprintBlock hashes the dimensions and then every cell's float bits in
// row-major order with lineage.ContentHash. A sparse block is fed row by row
// through CopyRow into one reused row buffer, so it is not densified
// (DenseValues converts in place) and hashes like a dense block of equal
// content.
func fingerprintBlock(blk *matrix.MatrixBlock) uint64 {
	h := lineage.NewContentHash()
	var shape [16]byte
	binary.LittleEndian.PutUint64(shape[0:], uint64(blk.Rows()))
	binary.LittleEndian.PutUint64(shape[8:], uint64(blk.Cols()))
	h.Write(shape[:])
	if !blk.IsSparse() {
		h.WriteFloats(blk.DenseValues())
		return h.Sum64()
	}
	row := make([]float64, blk.Cols())
	for r := range blk.Rows() {
		blk.CopyRow(row, r, 0)
		h.WriteFloats(row)
	}
	return h.Sum64()
}

// compile-time interface check
var _ lineage.BackingStore = (*PersistentLineageStore)(nil)
