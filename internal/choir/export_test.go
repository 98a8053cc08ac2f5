package choir

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// AssertSameResult is assertSameResult for the external test package.
func AssertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	assertSameResult(t, got, want)
}

// WindowTask names a fanned-out window loop for a window hook.
type WindowTask = windowTask

// The four fanned-out window loops.
const (
	WindowRefine   = refineTask
	WindowSubtract = subtractTask
	WindowPeaks    = peaksTask
	WindowSymbols  = symbolsTask
)

// SetWindowHook makes fn run before every window a fan-out hands out — with
// the loop, the window and whether a helper lane runs it — until the
// returned function removes it. fn may run on several goroutines at once.
// Install it before, and remove it after, the decodes it should see.
func SetWindowHook(fn func(task WindowTask, i int, helper bool)) (remove func()) {
	windowHook = fn
	return func() { windowHook = nil }
}

// PanicOnHelper returns a window hook that panics, with a string starting
// "injected panic ", in every window a helper runs for task. The decoding
// goroutine, at each window of task it takes, waits (up to 5 s) until some
// helper has run one, so the panic is raised off the decoding goroutine.
func PanicOnHelper(task WindowTask) func(WindowTask, int, bool) {
	helperRan := make(chan struct{})
	var once sync.Once
	return func(tk WindowTask, i int, helper bool) {
		if tk != task {
			return
		}
		if helper {
			once.Do(func() { close(helperRan) })
			panic(fmt.Sprintf("injected panic in window %d", i))
		}
		select {
		case <-helperRan:
		case <-time.After(5 * time.Second):
		}
	}
}
