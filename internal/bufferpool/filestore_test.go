package bufferpool

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

func TestFileStoreRoundTrip(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("intermediate-bytes")
	if err := s.Put(42, "tsmm(X)", payload, 5_000_000); err != nil {
		t.Fatal(err)
	}
	got, computeNs, ok := s.Get(42, "tsmm(X)")
	if !ok || !bytes.Equal(got, payload) || computeNs != 5_000_000 {
		t.Fatalf("Get = (%q, %d, %v), want (%q, 5000000, true)", got, computeNs, ok, payload)
	}
	// wrong key on the right hash (a hash collision) is a miss, but the
	// entry survives for its rightful owner
	if _, _, ok := s.Get(42, "tsmm(Y)"); ok {
		t.Fatal("mismatched key must miss")
	}
	if _, _, ok := s.Get(42, "tsmm(X)"); !ok {
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
	got, computeNs, ok := s2.Get(7, "k")
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
	if _, _, ok := s.Get(1, "cheap"); ok {
		t.Fatal("cheap entry should have been evicted first")
	}
	if _, _, ok := s.Get(2, "expensive"); !ok {
		t.Fatal("expensive entry must survive eviction")
	}
	if _, _, ok := s.Get(3, "mid"); !ok {
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
	if _, _, ok := s2.Get(1, "k"); ok {
		t.Fatal("truncated entry must miss")
	}
	// the checksum mismatch is only detectable at Get time
	if _, _, ok := s2.Get(2, "k"); ok {
		t.Fatal("bit-flipped entry must miss")
	}
	if _, _, ok := s2.Get(3, "k"); !ok {
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
	if _, _, ok := old.Get(1, "tsmm(tread·X)"); ok {
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
