package bufferpool

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// getBytes reads a whole payload through Get.
func getBytes(s *FileStore, hash uint64, key string) ([]byte, int64, bool) {
	var payload []byte
	_, computeNs, ok := s.Get(hash, key, func(r io.Reader) (err error) {
		payload, err = io.ReadAll(r)
		return err
	})
	return payload, computeNs, ok
}

func TestFileStoreRoundTrip(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("intermediate-bytes")
	if err := s.Put(42, "tsmm(X)", payload, 5_000_000); err != nil {
		t.Fatal(err)
	}
	got, computeNs, ok := getBytes(s, 42, "tsmm(X)")
	if !ok || !bytes.Equal(got, payload) || computeNs != 5_000_000 {
		t.Fatalf("Get = (%q, %d, %v), want (%q, 5000000, true)", got, computeNs, ok, payload)
	}
	// wrong key on the right hash (a hash collision) is a miss, but the
	// entry survives for its rightful owner
	if _, _, ok := getBytes(s, 42, "tsmm(Y)"); ok {
		t.Fatal("mismatched key must miss")
	}
	if _, _, ok := getBytes(s, 42, "tsmm(X)"); !ok {
		t.Fatal("colliding probe must not destroy the entry")
	}
}

func TestFileStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenFileStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(7, "k", []byte("payload"), 99); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, computeNs, ok := getBytes(s2, 7, "k")
	if !ok || string(got) != "payload" || computeNs != 99 {
		t.Fatalf("reopened store Get = (%q, %d, %v)", got, computeNs, ok)
	}
}

func TestFileStoreDuplicatePutSkipped(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(1, "k", []byte("v"), 10); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Puts != 1 || st.Skipped != 2 {
		t.Fatalf("puts=%d skipped=%d, want 1 and 2", st.Puts, st.Skipped)
	}
}

// TestFileStoreCostBenefitEviction checks the eviction order under budget
// pressure: the entry with the lowest computeNs-per-byte score goes first,
// regardless of insertion order.
func TestFileStoreCostBenefitEviction(t *testing.T) {
	payload := make([]byte, 400)
	s, err := OpenFileStore(t.TempDir(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	// cheap entry first (score 1000/400), then expensive (1e9/400)
	if err := s.Put(1, "cheap", payload, 1_000); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, "expensive", payload, 1_000_000_000); err != nil {
		t.Fatal(err)
	}
	// a third 400-byte entry exceeds the 1000-byte budget: the cheap one
	// must be the victim even though the expensive one is equally old
	if err := s.Put(3, "mid", payload, 500_000); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := getBytes(s, 1, "cheap"); ok {
		t.Fatal("cheap entry should have been evicted first")
	}
	if _, _, ok := getBytes(s, 2, "expensive"); !ok {
		t.Fatal("expensive entry must survive eviction")
	}
	if _, _, ok := getBytes(s, 3, "mid"); !ok {
		t.Fatal("new entry must be present")
	}
	if ev := s.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestFileStoreOversizedPayloadRejected(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, "big", make([]byte, 200), 1); err == nil {
		t.Fatal("payload larger than the whole budget must be rejected")
	}
}

// TestFileStoreCorruptFileRecovery covers the recovery paths: truncated and
// bit-flipped files are dropped (at scan time or Get time) and reported as
// misses, never as errors.
func TestFileStoreCorruptFileRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for h, v := range map[uint64]string{1: "aaa", 2: "bbb", 3: "ccc"} {
		if err := s.Put(h, "k", []byte(v), 10); err != nil {
			t.Fatal(err)
		}
	}
	// truncate entry 1, flip a payload bit of entry 2
	p1 := filepath.Join(dir, "lin_0000000000000001.bin")
	data, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p1, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "lin_0000000000000002.bin")
	data2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	data2[len(data2)-1] ^= 0xFF
	if err := os.WriteFile(p2, data2, 0o644); err != nil {
		t.Fatal(err)
	}

	// a fresh open drops the truncated file during the scan
	s2, err := OpenFileStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := getBytes(s2, 1, "k"); ok {
		t.Fatal("truncated entry must miss")
	}
	// the checksum mismatch is only detectable at Get time
	if _, _, ok := getBytes(s2, 2, "k"); ok {
		t.Fatal("bit-flipped entry must miss")
	}
	if _, _, ok := getBytes(s2, 3, "k"); !ok {
		t.Fatal("intact entry must still hit")
	}
	if cd := s2.Stats().CorruptDropped; cd < 2 {
		t.Fatalf("corrupt-dropped = %d, want >= 2", cd)
	}
	// dropped files are gone from disk
	if _, err := os.Stat(p1); !os.IsNotExist(err) {
		t.Error("truncated file not deleted")
	}
	if _, err := os.Stat(p2); !os.IsNotExist(err) {
		t.Error("bit-flipped file not deleted")
	}
}

// TestFileStorePreviousVersionOpensEmpty: files written under the previous
// format version (other hash scheme, other key) are intact by every other
// check, yet a fresh open indexes none of them, deletes them, counts each drop
// and reports no error — an old store is a cold start, never a wrong hit.
func TestFileStorePreviousVersionOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(1); h <= 3; h++ {
		if err := s.Put(h, "tsmm(tread·X)", []byte("payload"), 10); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, filePrefix+"*"+fileSuffix))
	if err != nil || len(files) != 3 {
		t.Fatalf("store files = %v (%v), want 3", files, err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(data[4:], fileStoreVersion-1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := OpenFileStore(dir, 1<<20)
	if err != nil {
		t.Fatalf("opening a previous-version store must not fail: %v", err)
	}
	if st := old.Stats(); st.Files != 0 || st.Bytes != 0 || st.CorruptDropped != 3 {
		t.Errorf("stats = %+v, want an empty store with 3 counted drops", st)
	}
	if _, _, ok := getBytes(old, 1, "tsmm(tread·X)"); ok {
		t.Error("a previous-version entry was served")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Errorf("previous-version files left on disk: %v", left)
	}
}

func TestFileStoreCleansTmpLeftovers(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "lin_00ff.bin.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("interrupted tmp file not cleaned up")
	}
}

// TestFileStoreVerifiesUnreadTail: a decoder that stops reading early still
// has the rest of the payload checked — the store drains it through the
// checksum before it reports a hit.
func TestFileStoreVerifiesUnreadTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := s.Put(5, "k", payload, 10); err != nil {
		t.Fatal(err)
	}
	readTen := func(r io.Reader) error {
		_, err := io.ReadFull(r, make([]byte, 10))
		return err
	}
	if _, _, ok := s.Get(5, "k", readTen); !ok {
		t.Fatal("an intact entry read in part must hit")
	}
	path := s.path(5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(5, "k", readTen); ok {
		t.Fatal("a flipped byte past what the decoder read was served")
	}
	if st := s.Stats(); st.CorruptDropped != 1 || st.Files != 0 {
		t.Errorf("stats = %+v, want one counted drop and no files", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("mismatching file not deleted")
	}
}

// TestFileStoreDecodeErrorIsCountedDrop: a payload the decoder rejects is a
// corrupt entry — dropped, counted, a miss — not an error for the caller.
func TestFileStoreDecodeErrorIsCountedDrop(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(9, "k", []byte("not a value"), 10); err != nil {
		t.Fatal(err)
	}
	reject := func(io.Reader) error { return errors.New("undecodable") }
	if _, _, ok := s.Get(9, "k", reject); ok {
		t.Fatal("a rejected payload was reported as a hit")
	}
	st := s.Stats()
	if st.CorruptDropped != 1 || st.Misses != 1 || st.Hits != 0 || st.Files != 0 {
		t.Errorf("stats = %+v, want one counted drop, one miss, no files", st)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Errorf("rejected file left on disk: %v", left)
	}
	if _, _, ok := getBytes(s, 9, "k"); ok {
		t.Error("a dropped entry hit afterwards")
	}
}

// validStoreFile returns the bytes of one intact store file.
func validStoreFile(t testing.TB) []byte {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("S\x01\x00\x00\x00\x00\x00\x00\xf0\x3f\x00cached-value")
	if err := s.Put(0x5eed, "0123456789abcdef0123456789abcdef", payload, 1234); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzFileStoreOpenGet: whatever bytes a store file holds, opening the store
// and reading the entry either serves it or drops and counts it — never a
// panic, never an error, and nothing allocated from a length field before the
// file size has vouched for it. The file is named after the hash its header
// claims, so an intact file is indexed.
func FuzzFileStoreOpenGet(f *testing.F) {
	valid := validStoreFile(f)
	f.Add(valid)
	f.Add(valid[:fileStoreHeaderLen])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		name := fileName(0)
		if len(data) >= 16 {
			name = fileName(binary.LittleEndian.Uint64(data[8:]))
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := OpenFileStore(dir, 1<<30)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("open failed: %v", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(data))+1<<20 {
			t.Fatalf("opening a %d-byte file allocated %d bytes", len(data), grew)
		}
		var hashes []uint64
		for h := range s.entries {
			hashes = append(hashes, h)
		}
		for _, h := range hashes {
			e := s.entries[h]
			size, _, ok := s.Get(h, e.key, func(r io.Reader) error {
				want := r.(interface{ Len() int }).Len()
				n, err := io.Copy(io.Discard, r)
				if err == nil && n != int64(want) {
					t.Errorf("payload reader delivered %d bytes, Len said %d", n, want)
				}
				return err
			})
			if ok && size != e.size {
				t.Errorf("hit of size %d, index says %d", size, e.size)
			}
		}
		st := s.Stats()
		left, _ := filepath.Glob(filepath.Join(dir, "*"))
		switch {
		case st.Hits == 1 && st.CorruptDropped == 0 && len(left) == 1:
		case st.Hits == 0 && st.CorruptDropped == 1 && len(left) == 0:
		default:
			t.Fatalf("neither served nor dropped: stats %+v, files %v", st, left)
		}
	})
}

// BenchmarkFileStoreGet streams a 10 MB payload out of the store through a
// chunked decoder: open, header and key checks, and the checksum over every
// byte. MB/s is over the payload.
func BenchmarkFileStoreGet(b *testing.B) {
	const size = 10 << 20
	s, err := OpenFileStore(b.TempDir(), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(payload)
	if err := s.Put(1, "k", payload, 1); err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 256<<10)
	decode := func(r io.Reader) error {
		for {
			if _, err := r.Read(chunk); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, ok := s.Get(1, "k", decode); !ok {
			b.Fatal("miss")
		}
	}
}

// TestFileStoreConcurrentGetPut: Gets decode outside the store lock while
// other goroutines put and evict. Every hit must deliver exactly the bytes
// put under its key, and nothing may be counted as corrupt.
func TestFileStoreConcurrentGetPut(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), 8*512)
	if err != nil {
		t.Fatal(err)
	}
	payloadOf := func(h uint64) []byte { return bytes.Repeat([]byte{byte(h)}, 512) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := uint64(i*7+w) % 16
				if err := s.Put(h, "k", payloadOf(h), int64(i)); err != nil {
					t.Error(err)
					return
				}
				if got, _, ok := getBytes(s, h, "k"); ok && !bytes.Equal(got, payloadOf(h)) {
					t.Errorf("hash %d served the wrong bytes", h)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cd := s.Stats().CorruptDropped; cd != 0 {
		t.Errorf("corrupt-dropped = %d under concurrent puts and evictions, want 0", cd)
	}
}
