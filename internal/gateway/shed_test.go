package gateway

import "testing"

// TestParseShedPolicy pins the round trip.
func TestParseShedPolicy(t *testing.T) {
	for _, p := range []ShedPolicy{ShedBlock, ShedDropOldest, ShedReject} {
		got, err := ParseShedPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseShedPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseShedPolicy("bogus"); err == nil {
		t.Error("ParseShedPolicy(bogus) did not error")
	}
}
