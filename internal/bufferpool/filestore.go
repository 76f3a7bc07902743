package bufferpool

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/systemds/systemds-go/internal/lineage"
)

// FileStore is a budgeted directory of spill files keyed by a 64-bit hash,
// used by the persistent lineage store to keep reuse-cache entries alive
// across processes (the cross-run half of Section 3.1's lineage-based reuse).
// Each entry is one self-describing file carrying a verification key (the
// fixed-width rendering of the full lineage hash), the compute time the
// payload saved, and a payload checksum (lineage.ContentHash). The store
// tolerates corruption: a file that fails any structural check is deleted and
// reported as a miss, never an error — the caller simply recomputes.
//
// Eviction under the byte budget is cost-benefit, not LRU: the entry with the
// lowest computeNs-saved-per-byte-retained score is dropped first, so a large
// cheap intermediate never crowds out a small expensive one.
type FileStore struct {
	dir    string
	budget int64

	mu      sync.Mutex
	entries map[uint64]*fileEntry
	total   int64
	stats   FileStoreStats
}

// fileEntry is the in-memory index record of one store file. It is never
// modified, so Get may read it after releasing the lock.
type fileEntry struct {
	key       string
	size      int64 // payload bytes (the budget-relevant quantity)
	computeNs int64
}

// FileStoreStats reports persistent-store activity.
type FileStoreStats struct {
	// Files and Bytes describe the current store contents (payload bytes).
	Files int
	Bytes int64
	// Hits/Misses/Puts count Get and Put outcomes; Skipped counts Puts of
	// already-present entries.
	Hits    int64
	Misses  int64
	Puts    int64
	Skipped int64
	// Evictions counts budget evictions, CorruptDropped files deleted because
	// a structural check failed (bad magic, another format version,
	// truncation, checksum mismatch, a payload the decoder rejected).
	Evictions      int64
	CorruptDropped int64
	// BytesWritten and BytesRead count payload traffic.
	BytesWritten int64
	BytesRead    int64
}

const (
	// fileStoreMagic identifies lineage store files ("SDSL").
	fileStoreMagic uint32 = 0x5344534C
	// fileStoreVersion changes whenever the file layout or the meaning of
	// hash and key does (2: 128-bit lineage hash, key = its hex rendering;
	// 3: every scalar operand traced by its typed value; 4: checksum and input
	// fingerprints are lineage.ContentHash). Files of any other version are
	// dropped at open like corrupt ones: a store is a cache, so an old one
	// costs a cold start, never a wrong hit.
	fileStoreVersion uint32 = 4
	// fileStoreHeaderLen is the fixed-length prefix before key and payload:
	// magic(4) version(4) hash(8) computeNs(8) keyLen(4) payloadLen(8)
	// checksum(8).
	fileStoreHeaderLen = 44
	filePrefix         = "lin_"
	fileSuffix         = ".bin"
)

// OpenFileStore opens (creating if needed) a store directory and indexes the
// entries already present. Files failing the structural checks are deleted
// and counted, not reported as errors.
func OpenFileStore(dir string, budgetBytes int64) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bufferpool: filestore dir %s: %w", dir, err)
	}
	s := &FileStore{dir: dir, budget: budgetBytes, entries: map[uint64]*fileEntry{}}
	listing, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("bufferpool: filestore scan %s: %w", dir, err)
	}
	for _, de := range listing {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			// leftover from an interrupted atomic write
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		path := filepath.Join(dir, name)
		hash, e, ok := readIndexEntry(path)
		if !ok {
			os.Remove(path)
			s.stats.CorruptDropped++
			continue
		}
		s.entries[hash] = e
		s.total += e.size
	}
	return s, nil
}

// fileHeader is the fixed-length prefix of a store file.
type fileHeader struct {
	hash, checksum     uint64
	computeNs          int64
	keyLen, payloadLen int64
}

// readHeader reads and validates the header of an open store file: magic,
// version, and lengths that add up to the file's size. Nothing is allocated
// from the length fields.
func readHeader(f *os.File) (fileHeader, bool) {
	var raw [fileStoreHeaderLen]byte
	if _, err := io.ReadFull(f, raw[:]); err != nil {
		return fileHeader{}, false
	}
	h := fileHeader{
		hash:       binary.LittleEndian.Uint64(raw[8:]),
		computeNs:  int64(binary.LittleEndian.Uint64(raw[16:])),
		keyLen:     int64(binary.LittleEndian.Uint32(raw[24:])),
		payloadLen: int64(binary.LittleEndian.Uint64(raw[28:])),
		checksum:   binary.LittleEndian.Uint64(raw[36:]),
	}
	if binary.LittleEndian.Uint32(raw[0:]) != fileStoreMagic || binary.LittleEndian.Uint32(raw[4:]) != fileStoreVersion || h.payloadLen < 0 {
		return fileHeader{}, false
	}
	// keyLen < 2^32 and payloadLen < 2^63, so an overflowing sum is negative
	// and never equals a size
	info, err := f.Stat()
	if err != nil || info.Size() != fileStoreHeaderLen+h.keyLen+h.payloadLen {
		return fileHeader{}, false
	}
	return h, true
}

// readIndexEntry validates a store file's header and name and returns its
// index record without reading the payload.
func readIndexEntry(path string) (uint64, *fileEntry, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, false
	}
	defer f.Close()
	h, ok := readHeader(f)
	if !ok || filepath.Base(path) != fileName(h.hash) {
		return 0, nil, false
	}
	keyBytes := make([]byte, h.keyLen)
	if _, err := io.ReadFull(f, keyBytes); err != nil {
		return 0, nil, false
	}
	return h.hash, &fileEntry{key: string(keyBytes), size: h.payloadLen, computeNs: h.computeNs}, true
}

func fileName(hash uint64) string {
	return fmt.Sprintf("%s%016x%s", filePrefix, hash, fileSuffix)
}

func (s *FileStore) path(hash uint64) string {
	return filepath.Join(s.dir, fileName(hash))
}

// Put stores a payload under (hash, key). A Put whose hash is already present
// with the same key is skipped (the entry is immutable); a different key on
// the same hash (a hash collision or stale file) is overwritten. Payloads
// larger than the whole budget are rejected. Writes are atomic
// (tmp + rename), so a crash never leaves a half-written entry visible.
func (s *FileStore) Put(hash uint64, key string, payload []byte, computeNs int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && int64(len(payload)) > s.budget {
		return fmt.Errorf("bufferpool: filestore payload of %d bytes exceeds budget %d", len(payload), s.budget)
	}
	if e, ok := s.entries[hash]; ok {
		if e.key == key {
			s.stats.Skipped++
			return nil
		}
		s.removeLocked(hash)
	}
	for s.budget > 0 && s.total+int64(len(payload)) > s.budget && len(s.entries) > 0 {
		s.evictMinBenefitLocked()
	}
	path := s.path(hash)
	tmp := path + ".tmp"
	if err := s.writeFile(tmp, hash, key, payload, computeNs); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("bufferpool: filestore rename: %w", err)
	}
	s.entries[hash] = &fileEntry{key: key, size: int64(len(payload)), computeNs: computeNs}
	s.total += int64(len(payload))
	s.stats.Puts++
	s.stats.BytesWritten += int64(len(payload))
	return nil
}

func (s *FileStore) writeFile(path string, hash uint64, key string, payload []byte, computeNs int64) error {
	var header [fileStoreHeaderLen]byte
	binary.LittleEndian.PutUint32(header[0:], fileStoreMagic)
	binary.LittleEndian.PutUint32(header[4:], fileStoreVersion)
	binary.LittleEndian.PutUint64(header[8:], hash)
	binary.LittleEndian.PutUint64(header[16:], uint64(computeNs))
	binary.LittleEndian.PutUint32(header[24:], uint32(len(key)))
	binary.LittleEndian.PutUint64(header[28:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(header[36:], lineage.HashBytes(payload))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bufferpool: filestore create: %w", err)
	}
	for _, chunk := range [][]byte{header[:], []byte(key), payload} {
		if _, err := f.Write(chunk); err != nil {
			f.Close()
			return fmt.Errorf("bufferpool: filestore write: %w", err)
		}
	}
	return f.Close()
}

// payloadReader hands a decoder the payload of one store file. It stops at
// the payload length, reports what is left through Len (so a decoder that
// checks a length field against its source streams instead of buffering the
// whole payload first), and hashes every byte it passes on.
type payloadReader struct {
	f    *os.File
	left int64
	sum  lineage.ContentHash
}

func (r *payloadReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.left {
		p = p[:r.left]
	}
	n, err := r.f.Read(p)
	r.sum.Write(p[:n])
	r.left -= int64(n)
	if err == io.EOF && r.left > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (r *payloadReader) Len() int { return int(r.left) }

// Get decodes the payload stored under (hash, key) straight from its file:
// decode reads the payload from r, and the store then drains what decode left
// unread through the checksum before comparing it. decode must keep what it
// built to itself until Get reports ok — only then was every payload byte
// verified. The file is read outside the store lock. A mismatched key, a
// truncated or rotted file, a decode error or a checksum mismatch drops the
// file and reports a miss, never an error. size is the payload length.
func (s *FileStore) Get(hash uint64, key string, decode func(r io.Reader) error) (size, computeNs int64, ok bool) {
	s.mu.Lock()
	e, present := s.entries[hash]
	if !present || e.key != key {
		s.stats.Misses++
		s.mu.Unlock()
		return 0, 0, false
	}
	s.mu.Unlock()
	ok = s.read(hash, e, decode)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.stats.Hits++
		s.stats.BytesRead += e.size
		return e.size, e.computeNs, true
	}
	// the file changed or rotted underneath the index: drop it and recompute,
	// unless a Put or an eviction has replaced or removed the entry meanwhile
	if s.entries[hash] == e {
		s.removeLocked(hash)
		s.stats.CorruptDropped++
	}
	s.stats.Misses++
	return 0, 0, false
}

// read checks the file of an indexed entry against its index record, streams
// its payload through decode and verifies the checksum.
func (s *FileStore) read(hash uint64, e *fileEntry, decode func(r io.Reader) error) bool {
	f, err := os.Open(s.path(hash))
	if err != nil {
		return false
	}
	defer f.Close()
	h, ok := readHeader(f)
	if !ok || h.hash != hash || h.keyLen != int64(len(e.key)) || h.payloadLen != e.size {
		return false
	}
	keyBytes := make([]byte, len(e.key))
	if _, err := io.ReadFull(f, keyBytes); err != nil || string(keyBytes) != e.key {
		return false
	}
	r := &payloadReader{f: f, left: e.size, sum: lineage.NewContentHash()}
	if err := decode(r); err != nil {
		return false
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		return false
	}
	return r.sum.Sum64() == h.checksum
}

func (s *FileStore) removeLocked(hash uint64) {
	e, ok := s.entries[hash]
	if !ok {
		return
	}
	delete(s.entries, hash)
	s.total -= e.size
	os.Remove(s.path(hash))
}

// evictMinBenefitLocked drops the entry with the lowest cost-benefit score
// (computeNs saved per payload byte retained). Ties break towards the lower
// hash so eviction order is deterministic regardless of map iteration.
func (s *FileStore) evictMinBenefitLocked() {
	hashes := make([]uint64, 0, len(s.entries))
	for h := range s.entries {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	victim, found := uint64(0), false
	var victimScore float64
	for _, h := range hashes {
		e := s.entries[h]
		size := e.size
		if size < 1 {
			size = 1
		}
		score := float64(e.computeNs) / float64(size)
		if !found || score < victimScore {
			victim, victimScore, found = h, score, true
		}
	}
	if !found {
		return
	}
	s.removeLocked(victim)
	s.stats.Evictions++
}

// Len returns the number of indexed entries.
func (s *FileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the store statistics.
func (s *FileStore) Stats() FileStoreStats {
	if s == nil {
		return FileStoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Files = len(s.entries)
	st.Bytes = s.total
	return st
}
