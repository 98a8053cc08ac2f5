package mac

import "testing"

func TestAlohaReceiverSemantics(t *testing.T) {
	rx := AlohaReceiver{}
	if p := rx.PerTxProb(1); p != 1 {
		t.Errorf("single TX decodes with p=%g, want 1", p)
	}
	for _, k := range []int{2, 3, 10} {
		if p := rx.PerTxProb(k); p != 0 {
			t.Errorf("%d-way collision decodes with p=%g, want 0", k, p)
		}
	}
	if rx.Capacity() != 1 {
		t.Errorf("capacity %d", rx.Capacity())
	}
}

func TestModelReceiverProbability(t *testing.T) {
	rx := ModelReceiver{Success: []float64{1, 0.8, 0}}
	for k, want := range map[int]float64{1: 1, 2: 0.8, 3: 0} {
		if got := rx.PerTxProb(k); got != want {
			t.Errorf("PerTxProb(%d) = %g, want %g", k, got, want)
		}
	}
	// Beyond the table: uses last entry (0).
	if got := rx.PerTxProb(100); got != 0 {
		t.Errorf("beyond-table PerTxProb = %g, want the last entry", got)
	}
	if rx.Capacity() != 3 {
		t.Errorf("uncapped Capacity = %d, want the table length", rx.Capacity())
	}
	defer func() {
		if recover() == nil {
			t.Error("empty success table did not panic")
		}
	}()
	ModelReceiver{}.PerTxProb(1)
}

func TestSchemeString(t *testing.T) {
	if SchemeAloha.String() != "ALOHA" || SchemeOracle.String() != "Oracle" || SchemeChoir.String() != "Choir" {
		t.Error("Scheme strings wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme string empty")
	}
}
