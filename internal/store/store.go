// Package store is a content-addressed result/artifact cache: results
// are keyed by the canonical hash of the job spec that produced them
// (config.Spec.JobID), so a repeated figure/sweep/MC/chaos request is a
// cache hit served without recomputation. The store is crash-safe and
// self-verifying:
//
//   - Atomic writes: objects land via write-to-temp-then-rename, so a
//     crash mid-Put never leaves a partial object under a valid key.
//   - Corruption detection: every object carries the SHA-256 of its
//     payload in a header; a mismatch on read evicts the object and
//     reports CorruptError instead of serving bad bytes.
//   - LRU byte budget: when MaxBytes is set, least-recently-used
//     objects are deleted to keep the disk footprint bounded.
//   - Hot layer: recently used payloads stay resident in memory (own
//     LRU byte budget), so repeat hits are served in microseconds
//     without touching the filesystem.
//
// All methods are safe for concurrent use.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/metrics"
)

// ErrNotFound reports a key with no stored object.
var ErrNotFound = errors.New("store: object not found")

// CorruptError reports an object whose payload no longer matches its
// recorded checksum. The object is evicted before the error returns.
type CorruptError struct {
	Key    string
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: object %s corrupt: %s", e.Key, e.Reason)
}

// Options tunes a store.
type Options struct {
	// MaxBytes bounds the on-disk payload bytes; 0 means unlimited.
	// Least-recently-used objects are deleted to stay under it.
	MaxBytes int64
	// HotBytes bounds the in-memory payload cache; 0 selects the
	// default (32 MiB), negative disables the hot layer.
	HotBytes int64
	// Metrics, when non-nil, receives store_* counters and gauges.
	Metrics *metrics.Registry
}

const defaultHotBytes = 32 << 20

// header is the first line of every object file.
type header struct {
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// entry is the in-memory index record of one stored object.
type entry struct {
	size int64
	seq  uint64 // last-access stamp; smallest = least recently used
	data []byte // payload when resident in the hot layer, else nil
}

// Store is a content-addressed object cache rooted at a directory.
type Store struct {
	dir       string
	maxBytes  int64
	hotBudget int64

	mu       sync.Mutex
	entries  map[string]*entry
	total    int64 // on-disk payload bytes
	hotTotal int64 // resident payload bytes
	seq      uint64

	hits, misses, corruptions, evictions *metrics.Counter
	bytesGauge, objectsGauge             *metrics.Gauge
	writableGauge                        *metrics.Gauge

	probeMu  sync.Mutex
	probeAt  time.Time
	probeErr error
}

// Open opens (creating if needed) a store rooted at dir and rebuilds
// the index from the objects already present.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	hot := opt.HotBytes
	if hot == 0 {
		hot = defaultHotBytes
	}
	if hot < 0 {
		hot = 0
	}
	reg := opt.Metrics
	s := &Store{
		dir:           dir,
		maxBytes:      opt.MaxBytes,
		hotBudget:     hot,
		entries:       make(map[string]*entry),
		hits:          reg.Counter("store_hits_total", "Cache lookups served from the store."),
		misses:        reg.Counter("store_misses_total", "Cache lookups that found no object."),
		corruptions:   reg.Counter("store_corruptions_total", "Objects evicted after a checksum mismatch."),
		evictions:     reg.Counter("store_evictions_total", "Objects evicted by the LRU byte budget."),
		bytesGauge:    reg.Gauge("store_bytes", "Payload bytes currently on disk."),
		objectsGauge:  reg.Gauge("store_objects", "Objects currently stored."),
		writableGauge: reg.Gauge("store_writable", "1 when the store directory accepts writes, 0 when result persistence is failing."),
	}
	// Occupancy against the configured budget, for capacity dashboards
	// and the observatory's fleet view. An unlimited store reports
	// occupancy 0.
	reg.Gauge("store_capacity_bytes", "Configured disk byte budget (0 = unlimited).").
		Set(float64(opt.MaxBytes))
	reg.GaugeFunc("store_occupancy_ratio", "Fraction of the disk byte budget in use (0 when unlimited).", func() float64 {
		if opt.MaxBytes <= 0 {
			return 0
		}
		return float64(s.Bytes()) / float64(opt.MaxBytes)
	})
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		key := d.Name()
		if !validKey(key) {
			return nil // stray temp file or foreign object; leave it alone
		}
		h, err := readHeader(path)
		if err != nil || h.Key != key {
			// Unreadable header: drop the object rather than index junk.
			os.Remove(path)
			return nil
		}
		s.seq++
		s.entries[key] = &entry{size: h.Size, seq: s.seq}
		s.total += h.Size
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.publish()
	return s, nil
}

// validKey accepts lowercase-hex content addresses (any even length ≥ 8
// bytes of digest, so tests can use short hashes).
func validKey(key string) bool {
	if len(key) < 16 || len(key)%2 != 0 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key)
}

func readHeader(path string) (header, error) {
	f, err := os.Open(path)
	if err != nil {
		return header{}, err
	}
	defer f.Close()
	var h header
	dec := json.NewDecoder(f)
	if err := dec.Decode(&h); err != nil {
		return header{}, err
	}
	return h, nil
}

// Put stores payload under key, atomically. An existing object under
// the same key is replaced (content addressing makes that a no-op in
// practice: same key, same bytes).
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q (want lowercase hex)", key)
	}
	sum := sha256.Sum256(payload)
	h := header{Key: key, SHA256: hex.EncodeToString(sum[:]), Size: int64(len(payload))}
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(append(hb, '\n')); err != nil {
		return cleanup(err)
	}
	if _, err := tmp.Write(payload); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(name, s.path(key)); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		s.total -= old.size
		if old.data != nil {
			s.hotTotal -= old.size
		}
	}
	s.seq++
	e := &entry{size: int64(len(payload)), seq: s.seq}
	s.entries[key] = e
	s.total += e.size
	s.admitHot(key, e, payload)
	s.evictOverBudget()
	s.publish()
	return nil
}

// Get returns the payload stored under key. The returned slice is the
// caller's to keep (and mutate); it never aliases the hot layer. A
// checksum mismatch evicts the object and returns a *CorruptError; a
// missing object returns ErrNotFound.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.seq++
		e.seq = s.seq
		if e.data != nil {
			s.hits.Inc()
			data := append([]byte(nil), e.data...)
			s.mu.Unlock()
			return data, nil
		}
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Inc()
		return nil, ErrNotFound
	}

	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		// Index said present but the file is gone (external tampering):
		// treat as a miss after dropping the entry.
		s.drop(key)
		s.misses.Inc()
		return nil, ErrNotFound
	}
	nl := bytes.IndexByte(raw, '\n')
	corrupt := func(reason string) ([]byte, error) {
		s.drop(key)
		os.Remove(s.path(key))
		s.corruptions.Inc()
		return nil, &CorruptError{Key: key, Reason: reason}
	}
	if nl < 0 {
		return corrupt("missing header")
	}
	var h header
	if err := json.Unmarshal(raw[:nl], &h); err != nil {
		return corrupt("unreadable header")
	}
	payload := raw[nl+1:]
	if int64(len(payload)) != h.Size {
		return corrupt(fmt.Sprintf("size %d, header says %d", len(payload), h.Size))
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return corrupt("checksum mismatch")
	}

	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.admitHot(key, e, payload)
	}
	s.hits.Inc()
	s.mu.Unlock()
	return payload, nil
}

// Has reports whether key is indexed (without touching LRU order).
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the on-disk payload byte total.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// drop removes key from the index (not the filesystem).
func (s *Store) drop(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.total -= e.size
		if e.data != nil {
			s.hotTotal -= e.size
		}
		delete(s.entries, key)
	}
	s.publish()
}

// admitHot makes a payload resident, evicting colder residents to stay
// under the hot budget. The resident copy is private to the store —
// payload stays the caller's (Put's argument, Get's return value), so
// later mutation of it cannot corrupt the cache. Caller holds s.mu.
func (s *Store) admitHot(key string, e *entry, payload []byte) {
	if s.hotBudget <= 0 || e.size > s.hotBudget {
		return
	}
	if e.data == nil {
		e.data = append([]byte(nil), payload...)
		s.hotTotal += e.size
	}
	for s.hotTotal > s.hotBudget {
		_, victim := s.coldest(true, key)
		if victim == nil {
			break
		}
		victim.data = nil
		s.hotTotal -= victim.size
	}
}

// evictOverBudget deletes least-recently-used objects until the disk
// budget holds. Caller holds s.mu.
func (s *Store) evictOverBudget() {
	if s.maxBytes <= 0 {
		return
	}
	for s.total > s.maxBytes && len(s.entries) > 1 {
		key, victim := s.coldest(false, "")
		if victim == nil {
			break
		}
		s.total -= victim.size
		if victim.data != nil {
			s.hotTotal -= victim.size
		}
		delete(s.entries, key)
		os.Remove(s.path(key))
		s.evictions.Inc()
	}
}

// coldest returns the least-recently-used entry (hot residents only
// when hotOnly), skipping key skip.
func (s *Store) coldest(hotOnly bool, skip string) (string, *entry) {
	var (
		bestKey string
		best    *entry
	)
	for k, e := range s.entries {
		if k == skip || (hotOnly && e.data == nil) {
			continue
		}
		if best == nil || e.seq < best.seq {
			bestKey, best = k, e
		}
	}
	return bestKey, best
}

// publish refreshes the gauges. Caller holds s.mu (or is single-threaded
// during Open).
func (s *Store) publish() {
	s.bytesGauge.Set(float64(s.total))
	s.objectsGauge.Set(float64(len(s.entries)))
}

// --- write probe ---

const writeProbeTTL = 2 * time.Second

// WriteProbe verifies the objects directory still accepts writes — the
// readiness failure (disk full, permission flip) that would make every
// subsequent Put fail and lose results. The verdict is cached for
// writeProbeTTL so health scrapes stay cheap, and published as the
// store_writable gauge.
func (s *Store) WriteProbe() error {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	if time.Since(s.probeAt) < writeProbeTTL {
		return s.probeErr
	}
	s.probeAt = time.Now()
	s.probeErr = probeWritable(filepath.Join(s.dir, "objects"))
	if s.probeErr != nil {
		s.writableGauge.Set(0)
	} else {
		s.writableGauge.Set(1)
	}
	return s.probeErr
}

// probeWritable attempts a small write-and-remove in dir.
func probeWritable(dir string) error {
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	_, werr := f.Write([]byte("probe"))
	cerr := f.Close()
	os.Remove(name)
	if werr != nil {
		return werr
	}
	return cerr
}
