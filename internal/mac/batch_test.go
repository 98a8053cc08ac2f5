package mac

import (
	"context"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

func batchTestConfig(seed uint64, scheme Scheme) Config {
	return Config{
		Scheme:         scheme,
		Nodes:          5,
		Slots:          400,
		ArrivalPerSlot: 0.5,
		SlotSeconds:    0.1,
		PacketBits:     64,
		Seed:           seed,
	}
}

func TestRunManyMatchesRunInOrder(t *testing.T) {
	var jobs []Job
	for seed := uint64(1); seed <= 4; seed++ {
		for _, scheme := range []Scheme{SchemeAloha, SchemeOracle, SchemeChoir} {
			jobs = append(jobs, Job{
				Config:   batchTestConfig(seed, scheme),
				Receiver: ModelReceiver{Success: []float64{1, 0.9, 0.8}},
			})
		}
	}
	for _, workers := range []int{1, 8} {
		got, err := RunMany(context.Background(), jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(got), len(jobs))
		}
		for i, j := range jobs {
			want, err := Run(context.Background(), j.Config, j.Receiver)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("workers=%d job %d: batch %+v != serial %+v", workers, i, got[i], want)
			}
		}
	}
}

func TestRunManyPropagatesFirstError(t *testing.T) {
	jobs := []Job{
		{Config: batchTestConfig(1, SchemeAloha), Receiver: AlohaReceiver{}},
		{Config: Config{}, Receiver: AlohaReceiver{}}, // invalid
	}
	if _, err := RunMany(context.Background(), jobs, 4); err == nil {
		t.Error("invalid job config not reported")
	}
}

// countingReceiver records whether any simulation touched the PHY.
type countingReceiver struct{ calls *atomic.Int64 }

func (c countingReceiver) Decode(tx []NodeID, rng *rand.Rand) []NodeID {
	c.calls.Add(1)
	return tx
}

func (c countingReceiver) Capacity() int { return 16 }

// TestRunManyFailsFastBeforeAnyWork is the regression test for the original
// bug: a validation error in ANY job must be reported before a single
// simulation goroutine runs, not after the whole batch has been simulated
// and discarded.
func TestRunManyFailsFastBeforeAnyWork(t *testing.T) {
	var calls atomic.Int64
	rx := countingReceiver{calls: &calls}
	jobs := []Job{
		{Config: batchTestConfig(1, SchemeChoir), Receiver: rx},
		{Config: batchTestConfig(2, SchemeChoir), Receiver: rx},
		{Config: Config{}, Receiver: rx}, // invalid: caught up front
	}
	_, err := RunMany(context.Background(), jobs, 4)
	if err == nil {
		t.Fatal("invalid job config not reported")
	}
	if !strings.Contains(err.Error(), "job 2") {
		t.Errorf("error does not identify the failing job: %v", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d Decode calls ran before the validation error surfaced", n)
	}
}

func TestRunManyRejectsNilReceiver(t *testing.T) {
	jobs := []Job{{Config: batchTestConfig(1, SchemeAloha)}}
	if _, err := RunMany(context.Background(), jobs, 1); err == nil {
		t.Error("nil receiver not reported")
	}
}

func TestValidateRejectsUnknownSchemeAndNegativeKnobs(t *testing.T) {
	bad := []Config{
		func() Config { c := batchTestConfig(1, Scheme(42)); return c }(),
		func() Config { c := batchTestConfig(1, Scheme(-1)); return c }(),
		func() Config { c := batchTestConfig(1, SchemeAloha); c.QueueCap = -1; return c }(),
		func() Config { c := batchTestConfig(1, SchemeAloha); c.MaxBackoffExp = -1; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestRunManyEmpty(t *testing.T) {
	out, err := RunMany(context.Background(), nil, 4)
	if err != nil || len(out) != 0 {
		t.Errorf("RunMany(context.Background(), nil) = %v, %v", out, err)
	}
}
