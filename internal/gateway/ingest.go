package gateway

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"choir/internal/ctxutil"
	"choir/internal/trace"
)

// IngestFiles submits every trace named by paths to the gateway. A
// directory path is expanded (non-recursively) to its *.iq files in sorted
// order. Unreadable traces are skipped with their errors collected; a
// rejected Submit under ShedReject likewise becomes a collected error
// rather than aborting the walk. The walk stops early when ctx fires or
// the gateway stops accepting. It returns how many frames were accepted.
func IngestFiles(ctx context.Context, g *Gateway, paths []string) (int, []error) {
	ctx = ctxutil.Background(ctx)
	var errs []error
	accepted := 0
	for _, path := range expandDirs(paths, &errs) {
		if ctx.Err() != nil {
			errs = append(errs, fmt.Errorf("gateway: ingest canceled: %w", ctx.Err()))
			break
		}
		h, samples, err := trace.ReadFile(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
			continue
		}
		if _, err := g.Submit(ctx, path, h, samples); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
			if errors.Is(err, ErrStopped) {
				break
			}
			continue
		}
		accepted++
	}
	return accepted, errs
}

// expandDirs replaces directory entries in paths with their *.iq contents.
// A directory that exists but contains no traces is reported as ErrNoTraces.
func expandDirs(paths []string, errs *[]error) []string {
	var out []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			*errs = append(*errs, err)
			continue
		}
		if !info.IsDir() {
			out = append(out, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			*errs = append(*errs, err)
			continue
		}
		var found []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".iq") {
				found = append(found, filepath.Join(p, e.Name()))
			}
		}
		sort.Strings(found)
		if len(found) == 0 {
			*errs = append(*errs, fmt.Errorf("%s: %w (no *.iq files)", p, ErrNoTraces))
		}
		out = append(out, found...)
	}
	return out
}

// reply writes a one-line status reply, bounded by ConnTimeout. A peer that
// vanished or stalled past the deadline can't receive it; those failures
// are counted on gateway.conn.reply_errors rather than silently dropped.
func (g *Gateway) reply(conn net.Conn, format string, args ...any) {
	if g.cfg.ConnTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(g.cfg.ConnTimeout))
	}
	if _, err := fmt.Fprintf(conn, format, args...); err != nil {
		mReplyErrors.Inc()
	}
}
