// Package cli factors the process lifecycle shared by every dra*
// command: SIGINT/SIGTERM cancel a context that reaches the engines,
// registered artifact flushers (metrics dumps, timelines, benchmark
// files) run on the way out — interrupted or not — and the process
// exits with the shared code conventions:
//
//	0    success
//	1    fatal error
//	2    flag/usage error
//	130  interrupted (SIGINT/SIGTERM); partial artifacts were flushed
//
// The ordering contract, pinned by TestSignalThenFlushThenExitCode, is
// signal → context cancellation → engines stop at their next boundary →
// flushers run (LIFO) → exit 130.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// The exit-code conventions shared by the dra* commands.
const (
	ExitOK          = 0
	ExitFatal       = 1
	ExitUsage       = 2
	ExitInterrupted = 130
)

// Lifecycle owns a command's interrupt context and exit-time flushers.
type Lifecycle struct {
	name   string
	ctx    context.Context
	stop   context.CancelFunc
	stderr io.Writer

	mu      sync.Mutex
	flushes []flush
	exited  bool
}

type flush struct {
	label string
	fn    func() error
}

// New builds a lifecycle for the named command: its Context cancels on
// SIGINT or SIGTERM.
func New(name string) *Lifecycle {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return &Lifecycle{name: name, ctx: ctx, stop: stop, stderr: os.Stderr}
}

// Context returns the interrupt context; thread it into every engine so
// a signal stops work at the next batch/step/cell boundary.
func (l *Lifecycle) Context() context.Context { return l.ctx }

// Interrupted reports whether a signal has cancelled the context.
func (l *Lifecycle) Interrupted() bool { return l.ctx.Err() != nil }

// OnExit registers an artifact flusher to run when Exit is called,
// whatever the outcome — flushing partial artifacts on the interrupted
// path is the whole point. Flushers run in reverse registration order
// (LIFO, like defer).
func (l *Lifecycle) OnExit(label string, fn func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushes = append(l.flushes, flush{label, fn})
}

// Exit runs the registered flushers and maps the run's outcome to the
// process exit code: the given code normally, ExitFatal if a flusher
// failed on an otherwise-clean run, ExitInterrupted when a signal
// cancelled the context (which outranks the given code — an interrupted
// run is reported as interrupted even if the engine also surfaced an
// error). It is idempotent; only the first call runs the flushers.
func (l *Lifecycle) Exit(code int) int {
	l.mu.Lock()
	if l.exited {
		l.mu.Unlock()
		return code
	}
	l.exited = true
	fl := l.flushes
	l.flushes = nil
	l.mu.Unlock()

	for i := len(fl) - 1; i >= 0; i-- {
		if err := fl[i].fn(); err != nil {
			fmt.Fprintf(l.stderr, "%s: flushing %s: %v\n", l.name, fl[i].label, err)
			if code == ExitOK {
				code = ExitFatal
			}
		}
	}
	if l.Interrupted() {
		fmt.Fprintf(l.stderr, "%s: interrupted; partial results flushed\n", l.name)
		code = ExitInterrupted
	}
	l.stop()
	return code
}

// Fatal prints the error under the command's name and exits 1. It does
// NOT run OnExit flushers: fatal errors are malfunctions, and a flusher
// that writes an artifact from half-initialized state does more harm
// than a missing file.
func (l *Lifecycle) Fatal(err error) {
	fmt.Fprintf(l.stderr, "%s: %v\n", l.name, err)
	os.Exit(ExitFatal)
}

// UsageError prints a flag-validation failure and exits 2, the flag
// package's own convention for bad invocations.
func (l *Lifecycle) UsageError(err error) {
	fmt.Fprintf(l.stderr, "%s: %v\n", l.name, err)
	os.Exit(ExitUsage)
}
