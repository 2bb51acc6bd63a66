package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// blobVerifies is the fuzz oracle for one blob file: whether the bytes are an
// envelope this store would accept for kind/key, and if so its payload.
func blobVerifies(data []byte, kind Kind, key string) (json.RawMessage, bool) {
	var env envelope
	if json.Unmarshal(data, &env) != nil || env.Version != Version || env.Kind != kind || env.Key != key {
		return nil, false
	}
	return env.Payload, checksum(env.Payload) == env.Checksum
}

// FuzzStoreBlob writes arbitrary bytes where a blob belongs and opens the
// store over it (a scan, since there is no index).  Get must not panic.  A
// blob that does not verify reads as a miss and is quarantined: moved out
// of the blob tree and dropped from the index.  One that verifies hits
// exactly when its payload decodes.
func FuzzStoreBlob(f *testing.F) {
	const k = "00000000000000000000000000000007"
	seedDir := f.TempDir()
	seed, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, kind := range []Kind{KindCell, KindSweep} {
		if err := seed.Put(kind, k, testPayload(7)); err != nil {
			f.Fatal(err)
		}
		valid, err := os.ReadFile(seed.blobPath(kind, k))
		if err != nil {
			f.Fatal(err)
		}
		sweepKind := kind == KindSweep
		f.Add(sweepKind, valid)
		f.Add(sweepKind, valid[:len(valid)/2])
		f.Add(sweepKind, bytes.Replace(valid, []byte("payload-7"), []byte("payload-8"), 1))
		f.Add(sweepKind, bytes.Replace(valid, []byte(`"version": 1`), []byte(`"version": 2`), 1))
		f.Add(!sweepKind, valid) // identifies as the other kind
	}
	seed.Close()
	for _, s := range []string{"", "{}", "null", "[]", `{"version":1,"payload":null}`} {
		f.Add(false, []byte(s))
	}

	f.Fuzz(func(t *testing.T, sweepKind bool, data []byte) {
		kind := KindCell
		if sweepKind {
			kind = KindSweep
		}
		dir := t.TempDir()
		path := filepath.Join(dir, versionDir, string(kind), k[:2], k+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if !s.Contains(kind, k) {
			t.Fatal("the scan did not index the blob")
		}

		var out any
		hit := s.Get(kind, k, &out)
		payload, ok := blobVerifies(data, kind, k)
		if ok {
			if want := json.Unmarshal(payload, new(any)) == nil; hit != want {
				t.Fatalf("verified blob: Get = %v, want %v", hit, want)
			}
			if q := s.Stats().Quarantined; q != 0 {
				t.Fatalf("verified blob quarantined (%d)", q)
			}
			return
		}
		if hit {
			t.Fatal("Get hit a blob that does not verify")
		}
		if q := s.Stats().Quarantined; q != 1 {
			t.Fatalf("Quarantined = %d, want 1", q)
		}
		if s.Contains(kind, k) {
			t.Fatal("bad blob still indexed")
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("bad blob still in place: %v", err)
		}
		moved, err := os.ReadDir(filepath.Join(dir, versionDir, "quarantine"))
		if err != nil || len(moved) != 1 {
			t.Fatalf("quarantine holds %d files (%v), want 1", len(moved), err)
		}
	})
}

// FuzzStoreIndex writes arbitrary bytes as index.json over a populated
// store and opens it.  Open and Get must not panic.  Only a well-formed,
// clean, current-version index whose entries could all have been written by
// this store is trusted as it is; anything else falls back to the scan,
// which finds every blob on disk.
func FuzzStoreIndex(f *testing.F) {
	template := f.TempDir()
	populate(f, template, 3)
	clean, err := os.ReadFile(filepath.Join(template, versionDir, "index.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(bytes.Replace(clean, []byte(`"clean": true`), []byte(`"clean": false`), 1))
	f.Add(bytes.Replace(clean, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add(bytes.Replace(clean, []byte(`"bytes": `), []byte(`"bytes": -`), 1))
	f.Add(bytes.Replace(clean, []byte(`"key": "0`), []byte(`"key": "../0`), 1))
	f.Add(clean[:len(clean)/2])
	for _, s := range []string{"", "{}", "null", "[]", `{"version":1,"clean":true}`, `{"version":1,"clean":true,"entries":[{"kind":"cells","key":"x"},{"kind":"cells","key":"x"}]}`} {
		f.Add([]byte(s))
	}
	blobs := map[string]bool{}
	for i := 0; i < 3; i++ {
		blobs[compositeKey(KindCell, key(i))] = true
	}
	blobs[compositeKey(KindSweep, key(1000))] = true

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(template)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, versionDir, "index.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st := stateOf(s)

		var idx indexFile
		trusted := json.Unmarshal(data, &idx) == nil && idx.Version == Version && idx.Clean
		seen := map[string]bool{}
		for _, e := range idx.Entries {
			ck := compositeKey(e.Kind, e.Key)
			trusted = trusted && !seen[ck] && e.Kind.valid() && validKey(e.Key) == nil && e.Bytes >= 0
			seen[ck] = true
		}
		if scanned := s.Stats().OpenScanned; scanned == trusted {
			t.Fatalf("OpenScanned = %v for an index that should be trusted = %v", scanned, trusted)
		}
		want := blobs
		if trusted {
			want = seen
		}
		if len(st.Entries) != len(want) {
			t.Fatalf("%d entries, want %d", len(st.Entries), len(want))
		}
		for ck := range want {
			if _, ok := st.Entries[ck]; !ok {
				t.Fatalf("entry %s missing", ck)
			}
		}
		for ck, e := range st.Entries {
			var got payload
			if hit := s.Get(e.kind, e.key, &got); !hit && blobs[ck] {
				t.Fatalf("Get(%s) missed an intact blob", ck)
			}
		}
	})
}
