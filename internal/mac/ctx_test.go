package mac

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestRunCtxCanceledAbandonsSimulation pins the slot-boundary cancel: a
// dead context yields the context's error and no partial metrics.
func TestRunCtxCanceledAbandonsSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := Run(ctx, baseConfig(SchemeAloha, 20), AlohaReceiver{})
	if m != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, %v; want nil, context.Canceled", m, err)
	}
}

// TestRunManyCtxCanceledStopsFanOut pins batch cancellation: once the
// context fires no new job starts and the error is the context's.
func TestRunManyCtxCanceledStopsFanOut(t *testing.T) {
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Config: baseConfig(SchemeAloha, 10), Receiver: AlohaReceiver{}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMany(ctx, jobs, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMany err = %v, want context.Canceled", err)
	}

	// And with a live context the batch matches the serial runner.
	want, err := RunMany(context.Background(), jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMany(context.Background(), jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("RunMany results depend on worker count")
	}
}
