package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"refrint/internal/faults"
)

// indexState is what an open builds, read back under the mutex.
type indexState struct {
	Entries map[string]entry
	Bytes   int64
	Clock   int64
}

func stateOf(s *Store) indexState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := indexState{Entries: make(map[string]entry, len(s.entries)), Bytes: s.bytes, Clock: s.clock}
	for ck, e := range s.entries {
		st.Entries[ck] = *e
	}
	return st
}

// readIndexFile parses the index file of the store rooted at dir.
func readIndexFile(t testing.TB, dir string) indexFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "v1", "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var idx indexFile
	if err := json.Unmarshal(data, &idx); err != nil {
		t.Fatal(err)
	}
	return idx
}

// writeIndexFile replaces the index file of the store rooted at dir, in
// the store's own layout.
func writeIndexFile(t testing.TB, dir string, idx indexFile) {
	t.Helper()
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "v1", "index.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// populate puts n cells at mixed ranks plus one sweep, reads some of them
// back so the access clock moves, and closes the store cleanly.
func populate(t testing.TB, dir string, n int) {
	t.Helper()
	s, err := Open(dir, Options{MemEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.PutRanked(KindCell, key(i), i%NumRanks, testPayload(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := s.Put(KindSweep, key(1000), testPayload(1000)); err != nil {
		t.Fatal(err)
	}
	var got payload
	for i := 0; i < n; i += 3 {
		if !s.Get(KindCell, key(i), &got) {
			t.Fatalf("Get %d missed", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanOpenMatchesScan checks the two open paths against each other:
// after a clean Close, installing the index and scanning the blobs must
// build the same entries, sizes, access clock and ranks.
func TestCleanOpenMatchesScan(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 40)
	if idx := readIndexFile(t, dir); !idx.Clean {
		t.Fatal("Close wrote an unclean index")
	}

	trusted := open(t, dir, Options{})
	if trusted.Stats().OpenScanned {
		t.Fatal("open after a clean Close scanned the blobs")
	}
	fromIndex := stateOf(trusted)
	if err := trusted.Close(); err != nil {
		t.Fatal(err)
	}

	// The same directory, with only the clean mark taken off the index.
	idx := readIndexFile(t, dir)
	idx.Clean = false
	writeIndexFile(t, dir, idx)
	scanned := open(t, dir, Options{})
	if !scanned.Stats().OpenScanned {
		t.Fatal("open of an unclean index did not scan")
	}
	fromScan := stateOf(scanned)

	if len(fromIndex.Entries) != 41 {
		t.Fatalf("index open installed %d entries, want 41", len(fromIndex.Entries))
	}
	if !reflect.DeepEqual(fromIndex, fromScan) {
		t.Fatalf("index open and scan disagree:\nindex: %+v\nscan:  %+v", fromIndex, fromScan)
	}
}

// TestVanishedBlobIsPlainMiss deletes a blob behind a trusted store's back:
// the read is a miss that drops the entry, not a quarantine.
func TestVanishedBlobIsPlainMiss(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 4)
	s := open(t, dir, Options{})
	if s.Stats().OpenScanned {
		t.Fatal("open after a clean Close scanned the blobs")
	}
	before := s.Stats()
	if err := os.Remove(s.blobPath(KindCell, key(2))); err != nil {
		t.Fatal(err)
	}

	var got payload
	if s.Get(KindCell, key(2), &got) {
		t.Fatal("Get hit a deleted blob")
	}
	after := s.Stats()
	if after.Quarantined != 0 {
		t.Errorf("Quarantined = %d, want 0", after.Quarantined)
	}
	if after.Entries != before.Entries-1 {
		t.Errorf("Entries = %d, want %d", after.Entries, before.Entries-1)
	}
	if after.CellMisses != before.CellMisses+1 {
		t.Errorf("CellMisses = %d, want %d", after.CellMisses, before.CellMisses+1)
	}
	if s.Contains(KindCell, key(2)) {
		t.Error("vanished blob still indexed")
	}
}

// TestPutAfterCloseFails checks that a closed store refuses puts and writes
// nothing the clean index does not list.
func TestPutAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindCell, key(2), testPayload(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, err := os.Stat(s.blobPath(KindCell, key(2))); !os.IsNotExist(err) {
		t.Fatalf("Put after Close wrote a blob (stat: %v)", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if idx := readIndexFile(t, dir); !idx.Clean || len(idx.Entries) != 1 {
		t.Fatalf("index after Close = clean %v with %d entries, want clean with 1", idx.Clean, len(idx.Entries))
	}
}

// TestPutAfterTrustedOpenThenCrash writes a blob after a trusted open and
// reopens without Close: the index was rewritten unclean before the blob
// landed, so the next open scans and adopts it.
func TestPutAfterTrustedOpenThenCrash(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 4)
	s := open(t, dir, Options{})
	if s.Stats().OpenScanned {
		t.Fatal("open after a clean Close scanned the blobs")
	}
	if err := s.Put(KindCell, key(99), testPayload(99)); err != nil {
		t.Fatal(err)
	}
	if readIndexFile(t, dir).Clean {
		t.Fatal("index still clean after a blob write")
	}

	// s is abandoned as if the process had died.
	again := open(t, dir, Options{})
	if !again.Stats().OpenScanned {
		t.Fatal("open after a crash trusted the index")
	}
	var got payload
	if !again.Get(KindCell, key(99), &got) || got.Name != testPayload(99).Name {
		t.Fatalf("blob written before the crash not adopted (got %+v)", got)
	}
	if n := again.Stats().Entries; n != 6 {
		t.Fatalf("Entries = %d, want 6", n)
	}
}

// TestFailedPutAfterTrustedOpenThenCrash crashes between the index rewrite
// and the blob write: the next open scans even though no blob changed.
func TestFailedPutAfterTrustedOpenThenCrash(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 4)
	opt := fastOptions()
	opt.DegradeAfter = 100
	s := open(t, dir, opt)
	inj, err := faults.Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)
	if err := s.Put(KindCell, key(99), testPayload(99)); err == nil {
		t.Fatal("Put succeeded through injected write failures")
	}
	faults.Disable()
	if readIndexFile(t, dir).Clean {
		t.Fatal("index still clean after a blob write was attempted")
	}

	again := open(t, dir, Options{})
	if !again.Stats().OpenScanned {
		t.Fatal("open after a crash trusted the index")
	}
	if n := again.Stats().Entries; n != 5 {
		t.Fatalf("Entries = %d, want 5", n)
	}
}

// TestCloseWithPutInFlight closes the store while a put is held inside its
// blob write: Close must leave the index unclean, and the next open adopts
// the blob the put lands afterwards.
func TestCloseWithPutInFlight(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	inj, err := faults.Parse("store.put:latency:300ms")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)

	done := make(chan error, 1)
	go func() { done <- s.Put(KindCell, key(7), testPayload(7)) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("put never reached its blob write")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if readIndexFile(t, dir).Clean {
		t.Fatal("Close marked the index clean with a put in flight")
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight Put: %v", err)
	}
	faults.Disable()

	again := open(t, dir, Options{})
	if !again.Stats().OpenScanned {
		t.Fatal("open after an unclean Close trusted the index")
	}
	if !again.Contains(KindCell, key(7)) {
		t.Fatal("blob of the in-flight put not adopted")
	}
}

// TestBadCleanIndexRescans checks that a clean index holding an entry this
// store could not have written is not trusted.
func TestBadCleanIndexRescans(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 3)
	idx := readIndexFile(t, dir)
	idx.Entries = append(idx.Entries, idx.Entries[0]) // a duplicate
	writeIndexFile(t, dir, idx)

	s := open(t, dir, Options{})
	if !s.Stats().OpenScanned {
		t.Fatal("a clean index with a duplicate entry was trusted")
	}
	if n := s.Stats().Entries; n != 4 {
		t.Fatalf("Entries = %d, want 4", n)
	}
}

// TestDegradedCloseIsUnclean checks that a degraded store never vouches for
// its index.
func TestDegradedCloseIsUnclean(t *testing.T) {
	dir := t.TempDir()
	opt := fastOptions()
	opt.ProbeInterval = time.Hour
	s := open(t, dir, opt)
	inj, err := faults.Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)
	for i := 0; i < opt.DegradeAfter; i++ {
		_ = s.Put(KindCell, key(i), testPayload(i))
	}
	faults.Disable()
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("store did not degrade")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if readIndexFile(t, dir).Clean {
		t.Fatal("a degraded store wrote a clean index")
	}
}

// TestFailedEvictionIsUnclean checks that a blob an eviction could not
// unlink keeps Close from vouching for the index, so the next open's scan
// finds it again.
func TestFailedEvictionIsUnclean(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: 16})
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory in place of the blob makes the unlink fail.
	path := s.blobPath(KindCell, key(1))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindCell, key(2), testPayload(2)); err != nil {
		t.Fatal(err)
	}
	if s.Contains(KindCell, key(1)) {
		t.Fatal("over-budget put did not evict the older blob")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if readIndexFile(t, dir).Clean {
		t.Fatal("Close marked the index clean after a failed eviction")
	}
}

// BenchmarkStoreOpen opens a store of about 400 blobs from a clean index
// and by scanning the blob directories.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := s.Put(KindCell, fmt.Sprintf("%064x", i*7919), testPayload(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	idx := readIndexFile(b, dir)

	for _, scan := range []bool{false, true} {
		name := "clean"
		if scan {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			idx.Clean = !scan
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				writeIndexFile(b, dir, idx)
				b.StartTimer()
				s, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if s.Stats().OpenScanned != scan {
					b.Fatalf("OpenScanned = %v, want %v", s.Stats().OpenScanned, scan)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
