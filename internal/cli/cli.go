// Package cli is the shell every command under cmd/ runs in: the signal
// context, the exit codes, the observability flags and the one rule for when
// a command was interrupted. A command is
//
//	func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int
//
// whose main is cli.Main(run), so its tests drive the whole command
// in-process with their own context, arguments and streams.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"choir/internal/obs"
)

// Exit codes: 0 success, 1 failure, 2 usage, 130 interrupted by a signal
// (128+SIGINT, the shell convention).
const (
	ExitOK          = 0
	ExitFailed      = 1
	ExitUsage       = 2
	ExitInterrupted = 130
)

// Main runs a command with the process's arguments and standard streams,
// under a context that SIGINT and SIGTERM cancel, and exits the process
// with the code the command returns.
func Main(run func(ctx context.Context, argv []string, stdout, stderr io.Writer) int) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// A Command is a command's flag set, holding the three observability flags
// every command shares: -metrics, -metrics-out and -debug-addr.
type Command struct {
	*flag.FlagSet
	metrics    *bool
	metricsOut *string
	debugAddr  *string
}

// New returns the flag set of the command name. Parse reports a bad flag
// (or -help) on stderr and returns it instead of exiting; the command then
// exits ExitUsage.
func New(name string, stderr io.Writer) *Command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Command{
		FlagSet:    fs,
		metrics:    fs.Bool("metrics", false, "record metrics and dump a JSON snapshot at exit"),
		metricsOut: fs.String("metrics-out", "", "metrics snapshot destination (\"-\": stderr); implies -metrics"),
		debugAddr:  fs.String("debug-addr", "", "serve expvar, pprof and health probes on this address (e.g. localhost:6060); implies metrics recording"),
	}
}

// Start turns metrics recording on when -metrics, -metrics-out or
// -debug-addr asks for it, and serves the debug surface (obs.ServeDebug) on
// -debug-addr. It creates the -metrics-out file first, so a path that cannot
// be written fails the command before it does any work. The returned stop,
// which the command defers, writes the snapshot when -metrics or
// -metrics-out asked for one — into that file, or to stderr — and then
// shuts the debug server down within a short grace period. A failed dump is
// reported on stderr and leaves the exit code alone.
func (c *Command) Start() (stop func(), err error) {
	dump := *c.metrics || *c.metricsOut != ""
	var file *os.File
	if out := *c.metricsOut; out != "" && out != "-" {
		if file, err = os.Create(out); err != nil {
			return nil, err
		}
	}
	if dump || *c.debugAddr != "" {
		obs.Enable()
	}
	shutdown := func(context.Context) error { return nil }
	if *c.debugAddr != "" {
		bound, sd, err := obs.ServeDebug(*c.debugAddr)
		if err != nil {
			if file != nil {
				file.Close()
				os.Remove(file.Name())
			}
			return nil, err
		}
		fmt.Fprintf(c.Output(), "debug server listening on http://%s/debug/pprof/\n", bound)
		shutdown = sd
	}
	return func() {
		if dump {
			if err := c.dump(file); err != nil {
				fmt.Fprintf(c.Output(), "%s: metrics dump: %v\n", c.Name(), err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = shutdown(ctx)
	}, nil
}

// dump writes the metrics snapshot into file and closes it, or to stderr
// when there is no file (-metrics-out empty or "-").
func (c *Command) dump(file *os.File) error {
	if file == nil {
		return obs.WriteJSON(c.Output())
	}
	if err := obs.WriteJSON(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// Exit is the one interrupt rule: a command whose context fired exits
// ExitInterrupted, whatever code its work reached, and says so on stderr;
// any other command exits with code.
func (c *Command) Exit(ctx context.Context, code int) int {
	if ctx.Err() == nil {
		return code
	}
	fmt.Fprintf(c.Output(), "%s: interrupted\n", c.Name())
	return ExitInterrupted
}
