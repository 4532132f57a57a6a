// Package cli holds the small pieces the command-line entry points in
// cmd/* share: signal-driven cancellation, the -metrics JSON dump, and
// the -dataset / -csv task loader (task.go). Centralizing them keeps the
// binaries' shutdown semantics identical — in particular, all of them
// drain gracefully on SIGTERM (what init systems and container runtimes
// send) as well as SIGINT (what a terminal sends).
package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/metrics"
)

// NotifyContext returns a context cancelled on SIGINT or SIGTERM, and
// the stop function releasing the signal registration. First signal
// cancels (the anytime path: commands return partial results); a second
// signal kills the process with the Go runtime's default behavior once
// stop has run.
func NotifyContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// WriteMetrics snapshots mc into path as JSON. A nil collector or empty
// path is a no-op, so commands call it unconditionally at exit.
func WriteMetrics(mc *metrics.Collector, path string) error {
	if mc == nil || path == "" {
		return nil
	}
	if err := mc.Snapshot().WriteFile(path); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	return nil
}
