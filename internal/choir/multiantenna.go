package choir

import (
	"context"
	"errors"
	"fmt"
	"math"

	"choir/internal/dsp"
)

// DecodeMultiAntenna runs the Choir decoder independently on each antenna's
// stream and merges the results with selection diversity — the Sec. 9.5
// "Choir run on all three antennas" configuration. Unlike MU-MIMO the
// antennas are not used to invert a channel matrix (so the user count is
// not capped by the antenna count); each antenna simply offers an
// independent fading realization, and a user is recovered if ANY antenna's
// run recovers it.
//
// Users are matched across antennas by their aggregate-offset fingerprint
// (the offset is a transmitter property, identical at every antenna; the
// channels differ). The merged Result contains one entry per distinct
// user, carrying the payload of the first antenna that decoded it and the
// strongest observed channel.
func (d *Decoder) DecodeMultiAntenna(ctx context.Context, antennas [][]complex128, payloadLen int) (*Result, error) {
	if len(antennas) == 0 {
		return nil, errors.New("choir: no antenna streams")
	}
	type obs struct {
		user *User
		ant  int
	}
	var all []obs
	var firstErr error
	decodedAny := false
	for a, samples := range antennas {
		res, err := d.Decode(ctx, samples, payloadLen)
		if err != nil {
			if firstErr == nil && !errors.Is(err, ErrNoUsers) {
				firstErr = fmt.Errorf("antenna %d: %w", a, err)
			}
			continue
		}
		decodedAny = true
		for _, u := range res.Users {
			all = append(all, obs{user: u, ant: a})
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if !decodedAny || len(all) == 0 {
		return nil, ErrNoUsers
	}

	// Group observations by offset fingerprint (< 0.5 bin circular).
	period := float64(d.n)
	var groups [][]obs
	for _, o := range all {
		placed := false
		for gi := range groups {
			if dsp.CircularBinDist(groups[gi][0].user.Offset, o.user.Offset, period) < 0.5 {
				groups[gi] = append(groups[gi], o)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []obs{o})
		}
	}

	res := &Result{}
	for _, g := range groups {
		merged := &User{Offset: g[0].user.Offset, Err: g[0].user.Err}
		bestGain := 0.0
		for _, o := range g {
			if m := cmplxAbs(o.user.Gain); m > bestGain {
				bestGain = m
				merged.Gain = o.user.Gain
				merged.Offset = o.user.Offset
			}
			merged.WindowOffsets = append(merged.WindowOffsets, o.user.WindowOffsets...)
			if merged.Payload == nil && o.user.Decoded() {
				merged.Payload = o.user.Payload
				merged.Symbols = o.user.Symbols
				merged.Err = nil
			}
		}
		res.Users = append(res.Users, merged)
	}
	// Strongest first, as the single-antenna decoder reports.
	sortUsersByGain(res.Users)
	return res, nil
}

func sortUsersByGain(users []*User) {
	for i := 1; i < len(users); i++ {
		for j := i; j > 0 && cmplxAbs(users[j].Gain) > cmplxAbs(users[j-1].Gain); j-- {
			users[j], users[j-1] = users[j-1], users[j]
		}
	}
}

// AntennaDiversityGain estimates the per-user success improvement from
// running Choir on a antennas when a single antenna succeeds with
// probability p, assuming independent fading: 1-(1-p)^a. Exposed for the
// MAC-layer model used in the Fig. 12 sweep.
func AntennaDiversityGain(p float64, a int) float64 {
	if p < 0 || p > 1 || a < 1 {
		panic(fmt.Sprintf("choir: invalid diversity args p=%g a=%d", p, a))
	}
	return 1 - math.Pow(1-p, float64(a))
}
