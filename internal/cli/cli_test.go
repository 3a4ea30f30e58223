package cli

import (
	"bytes"
	"errors"
	"os"
	"syscall"
	"testing"
	"time"
)

func TestExitRunsFlushersLIFO(t *testing.T) {
	l := New("t")
	defer l.Close()
	l.stderr = &bytes.Buffer{}
	var order []string
	l.OnExit("first", func() error { order = append(order, "first"); return nil })
	l.OnExit("second", func() error { order = append(order, "second"); return nil })
	if code := l.Exit(ExitOK); code != ExitOK {
		t.Fatalf("Exit = %d, want 0", code)
	}
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Fatalf("flush order %v, want LIFO", order)
	}
}

func TestFlusherErrorTurnsCleanExitFatal(t *testing.T) {
	l := New("t")
	defer l.Close()
	var buf bytes.Buffer
	l.stderr = &buf
	l.OnExit("broken", func() error { return errors.New("disk full") })
	if code := l.Exit(ExitOK); code != ExitFatal {
		t.Fatalf("Exit = %d, want %d after flush failure", code, ExitFatal)
	}
	if !bytes.Contains(buf.Bytes(), []byte("disk full")) {
		t.Fatalf("flush error not reported: %q", buf.String())
	}

	// A run that already failed keeps its code.
	l2 := New("t")
	defer l2.Close()
	l2.stderr = &bytes.Buffer{}
	l2.OnExit("broken", func() error { return errors.New("disk full") })
	if code := l2.Exit(3); code != 3 {
		t.Fatalf("Exit = %d, want the run's own code 3", code)
	}
}

func TestExitIdempotent(t *testing.T) {
	l := New("t")
	defer l.Close()
	l.stderr = &bytes.Buffer{}
	runs := 0
	l.OnExit("count", func() error { runs++; return nil })
	l.Exit(ExitOK)
	l.Exit(ExitOK)
	if runs != 1 {
		t.Fatalf("flusher ran %d times across two Exits", runs)
	}
}

// TestSignalThenFlushThenExitCode pins the shared shutdown ordering:
// the signal cancels the context first, the artifact flushers run
// second, and only then does Exit report 130 — so every command that
// threads Context() into its engines and registers its artifact writers
// via OnExit gets flush-partial-artifacts-then-exit-130 for free.
func TestSignalThenFlushThenExitCode(t *testing.T) {
	l := New("t")
	var buf bytes.Buffer
	l.stderr = &buf

	var order []string
	l.OnExit("artifact", func() error {
		// The context must already be cancelled when flushers run: the
		// engines observed the signal before any artifact was written.
		if l.Context().Err() == nil {
			t.Error("flusher ran before the signal cancelled the context")
		}
		order = append(order, "flush")
		return nil
	})

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.Context().Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the lifecycle context")
	}
	if !l.Interrupted() {
		t.Fatal("Interrupted() false after SIGTERM")
	}

	// Even a run that thought it failed reports 130: interruption
	// outranks the engine's own verdict.
	code := l.Exit(ExitFatal)
	order = append(order, "exit")
	if code != ExitInterrupted {
		t.Fatalf("Exit = %d, want %d", code, ExitInterrupted)
	}
	if len(order) != 2 || order[0] != "flush" || order[1] != "exit" {
		t.Fatalf("ordering %v, want flush before exit", order)
	}
	if !bytes.Contains(buf.Bytes(), []byte("interrupted")) {
		t.Fatalf("no interruption notice on stderr: %q", buf.String())
	}
}

// Close releases the signal registration without running flushers (for
// early error paths that exit through Fatal/UsageError).
func (l *Lifecycle) Close() { l.stop() }
