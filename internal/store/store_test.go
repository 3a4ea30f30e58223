package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func open(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	k := key("a")
	want := []byte(`{"result": 42}`)
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	if _, err := s.Get(key("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: got %v, want ErrNotFound", err)
	}
}

// TestGetReturnsCallerOwnedCopy: mutating a Get result must not corrupt
// the cached object for later readers — on the hot path and after a
// cold disk read alike.
func TestGetReturnsCallerOwnedCopy(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	k := key("owned")
	want := []byte(`{"result": "pristine"}`)
	if err := s.Put(k, append([]byte(nil), want...)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k) // hot-layer hit
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = 'X'
	}
	if again, err := s.Get(k); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("hot object corrupted by caller mutation: %q, %v", again, err)
	}

	// Reopen drops the hot layer; the disk-read path must also hand out
	// a private slice.
	s2 := open(t, dir, Options{})
	got, err = s2.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = 'X'
	}
	if again, err := s2.Get(k); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("object corrupted after cold-read mutation: %q, %v", again, err)
	}
}

// TestPutDoesNotAliasCallerSlice: the hot layer must keep its own copy
// of a stored payload, not the caller's slice.
func TestPutDoesNotAliasCallerSlice(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	k := key("aliased")
	payload := []byte(`{"result": "pristine"}`)
	want := append([]byte(nil), payload...)
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 'X'
	}
	if got, err := s.Get(k); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("hot object aliases Put's argument: %q, %v", got, err)
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, k := range []string{"", "short", "nothexnothexnothex", "ABCDEF0123456789"} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", k)
		}
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	k := key("persist")
	if err := s.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	if !s2.Has(k) {
		t.Fatal("reopened store lost the object")
	}
	got, err := s2.Get(k)
	if err != nil || string(got) != "payload" {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
	if s2.Len() != 1 || s2.Bytes() != int64(len("payload")) {
		t.Fatalf("reopened index: %d objects, %d bytes", s2.Len(), s2.Bytes())
	}
}

// TestCorruptionDetected: a flipped payload byte must yield a
// CorruptError and evict the object, never serve bad bytes.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{HotBytes: -1}) // force the disk path
	k := key("corrupt")
	if err := s.Put(k, []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	path := s.path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(k)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Get on corrupted object: got %v, want CorruptError", err)
	}
	if s.Has(k) {
		t.Fatal("corrupted object still indexed")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupted object file not removed")
	}
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after eviction: got %v, want ErrNotFound", err)
	}
}

// TestHotLayerMasksDiskTampering: a resident payload is served from
// memory, so the hot layer really is a separate tier.
func TestHotLayerServesFromMemory(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	k := key("hot")
	if err := s.Put(k, []byte("resident")); err != nil {
		t.Fatal(err)
	}
	os.Remove(s.path(k)) // gone from disk, still resident
	got, err := s.Get(k)
	if err != nil || string(got) != "resident" {
		t.Fatalf("hot Get = %q, %v", got, err)
	}
}

func TestLRUEvictionRespectsBudget(t *testing.T) {
	payload := make([]byte, 100)
	s := open(t, t.TempDir(), Options{MaxBytes: 350})
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = key(fmt.Sprint("k", i))
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Bytes(); got > 350 {
		t.Fatalf("store holds %d bytes over the 350 budget", got)
	}
	// The two oldest must have been evicted, the newest three kept.
	for _, k := range keys[:2] {
		if s.Has(k) {
			t.Errorf("LRU kept old object %s", k)
		}
	}
	for _, k := range keys[2:] {
		if !s.Has(k) {
			t.Errorf("LRU evicted recent object %s", k)
		}
	}
	// Touch keys[2] (now oldest) then insert: keys[3] should go next.
	if _, err := s.Get(keys[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key("k5"), payload); err != nil {
		t.Fatal(err)
	}
	if !s.Has(keys[2]) {
		t.Error("recently-touched object evicted before a colder one")
	}
	if s.Has(keys[3]) {
		t.Error("coldest object survived eviction")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxBytes: 10_000, HotBytes: 2_000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(fmt.Sprint("obj", i%10))
				if i%3 == 0 {
					if err := s.Put(k, []byte(fmt.Sprint("payload", i%10))); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := s.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestWriteProbe(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.WriteProbe(); err != nil {
		t.Fatalf("probe on a healthy store: %v", err)
	}
	// Break the objects directory out from under the store. The verdict
	// is cached, so the breakage only shows once the TTL lapses.
	if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteProbe(); err != nil {
		t.Fatalf("cached verdict should still be healthy: %v", err)
	}
	s.probeMu.Lock()
	s.probeAt = time.Time{} // expire the cache
	s.probeMu.Unlock()
	if err := s.WriteProbe(); err == nil {
		t.Fatal("probe passed with the objects dir gone")
	}
	// Cached failure, then recovery after the next expiry.
	if err := s.WriteProbe(); err == nil {
		t.Fatal("failure verdict should be cached")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.probeMu.Lock()
	s.probeAt = time.Time{}
	s.probeMu.Unlock()
	if err := s.WriteProbe(); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
}

func TestCorruptErrorMessage(t *testing.T) {
	e := &CorruptError{Key: "k1", Reason: "checksum mismatch"}
	if msg := e.Error(); !strings.Contains(msg, "k1") || !strings.Contains(msg, "checksum mismatch") {
		t.Fatalf("Error() = %q", msg)
	}
}
