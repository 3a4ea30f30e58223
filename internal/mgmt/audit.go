package mgmt

// Append-only audit log: one JSON object per line, fsynced per entry,
// with a monotone sequence number that continues across restarts — a
// drain + restart loses no entries and duplicates none (pinned
// byte-for-byte by the mgmt e2e wall). Rotation is size-based: the
// active file moves to <name>.1 and a fresh file continues the
// sequence, so the durable history is bounded at roughly twice the
// rotation threshold.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Entry is one audit record.
type Entry struct {
	Seq     uint64 `json:"seq"`
	UnixMs  int64  `json:"unix_ms"`
	Tenant  string `json:"tenant"`
	Verb    string `json:"verb"`
	Job     string `json:"job,omitempty"`
	Outcome string `json:"outcome"` // "ok" or the refusal class
	Detail  string `json:"detail,omitempty"`
}

// Audit is the append-only log.
type Audit struct {
	mu       sync.Mutex
	path     string // "" = disabled (no state dir)
	f        *os.File
	size     int64
	maxBytes int64
	seq      uint64
	rotated  uint64
	now      func() time.Time
}

// DefaultAuditMaxBytes is the rotation threshold when the caller passes 0.
const DefaultAuditMaxBytes = 4 << 20

// OpenAudit opens (or creates) the audit log at path, scanning the
// existing tail to continue the sequence. maxBytes bounds the active
// file before rotation (0 selects DefaultAuditMaxBytes); path "" yields
// a disabled log whose Append is a no-op.
func OpenAudit(path string, maxBytes int64) (*Audit, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultAuditMaxBytes
	}
	a := &Audit{path: path, maxBytes: maxBytes, now: time.Now}
	if path == "" {
		return a, nil
	}
	// Continue the sequence from whatever survives on disk — the rotated
	// file too, in case a rotation happened right before a crash.
	for _, p := range []string{path + ".1", path} {
		if seq, ok := lastSeq(p); ok && seq > a.seq {
			a.seq = seq
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mgmt: opening audit log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	a.f, a.size = f, st.Size()
	return a, nil
}

// lastSeq scans a JSONL file for the highest seq. Unparseable lines
// (a torn final write) are skipped.
func lastSeq(path string) (uint64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	var max uint64
	found := false
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil {
			continue
		}
		if e.Seq >= max {
			max = e.Seq
			found = true
		}
	}
	return max, found
}

// Append writes one entry, stamping its seq and time, and returns the
// stamped entry. Disabled logs return the stamped entry without
// persisting.
func (a *Audit) Append(e Entry) (Entry, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	e.Seq = a.seq
	e.UnixMs = a.now().UnixMilli()
	if a.f == nil {
		return e, nil
	}
	line, err := json.Marshal(e)
	if err != nil {
		return e, err
	}
	line = append(line, '\n')
	if a.size+int64(len(line)) > a.maxBytes && a.size > 0 {
		if err := a.rotateLocked(); err != nil {
			return e, err
		}
	}
	n, err := a.f.Write(line)
	a.size += int64(n)
	if err != nil {
		return e, err
	}
	return e, a.f.Sync()
}

// rotateLocked moves the active file aside and starts a fresh one.
func (a *Audit) rotateLocked() error {
	if err := a.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(a.path, a.path+".1"); err != nil {
		return err
	}
	f, err := os.OpenFile(a.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	a.f, a.size = f, 0
	a.rotated++
	return nil
}

// Rotations counts rotations since open (metrics hook).
func (a *Audit) Rotations() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rotated
}

// Size returns the active file's size in bytes.
func (a *Audit) Size() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.size
}

// QueryOpts filters an audit query.
type QueryOpts struct {
	// Since excludes entries with Seq <= Since.
	Since uint64
	// Tenant filters by tenant when non-empty.
	Tenant string
	// Verb filters by verb when non-empty.
	Verb string
	// Limit caps the result count (0 = no cap). The newest entries win:
	// the query returns the LAST Limit matches in sequence order.
	Limit int
}

// Query reads matching entries (rotated file first, then active) in
// sequence order.
func (a *Audit) Query(opts QueryOpts) ([]Entry, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.path == "" {
		return nil, nil
	}
	var out []Entry
	for _, p := range []string{a.path + ".1", a.path} {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var e Entry
			if json.Unmarshal(line, &e) != nil {
				continue
			}
			if e.Seq <= opts.Since {
				continue
			}
			if opts.Tenant != "" && e.Tenant != opts.Tenant {
				continue
			}
			if opts.Verb != "" && e.Verb != opts.Verb {
				continue
			}
			out = append(out, e)
		}
		f.Close()
	}
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[len(out)-opts.Limit:]
	}
	return out, nil
}

// Close flushes and closes the active file.
func (a *Audit) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}
