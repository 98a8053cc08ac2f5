package mac

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the beacon-round team scheduler of Sec. 7.1 ("Whom
// do we coordinate?"): the base station knows each sensor's approximate
// link quality (learned from past receptions) and groups far sensors into
// teams large enough that their pooled power clears the decode threshold,
// while near sensors keep transmitting individually at full resolution. The
// result is the paper's graceful-degradation property — resolution falls
// with distance instead of coverage ending at the single-client range.

// SensorLink is the scheduler's view of one sensor.
type SensorLink struct {
	ID int
	// SNRdB is the sensor's estimated per-sample receive SNR.
	SNRdB float64
	// Correlate is an application-provided locality key: sensors with equal
	// keys measure correlated values and may share a team (e.g. a
	// floor/ring identifier from sensor.Group).
	Correlate int
}

// ScheduleEntry is one beacon slot of the resulting schedule.
type ScheduleEntry struct {
	// Team lists the sensors answering this beacon concurrently. A team of
	// one is an ordinary individual uplink.
	Team []int
	// PooledSNRdB is the expected SNR of the combined reception.
	PooledSNRdB float64
}

// ScheduleConfig tunes BuildSchedule.
type ScheduleConfig struct {
	// ThresholdDB is the per-sample SNR needed to decode at the minimum
	// rate (SF12-equivalent).
	ThresholdDB float64
	// MarginDB is added headroom above the threshold.
	MarginDB float64
	// MaxTeam caps team sizes (paper: up to 30).
	MaxTeam int
}

// DefaultScheduleConfig mirrors the evaluation's settings.
func DefaultScheduleConfig() ScheduleConfig {
	return ScheduleConfig{ThresholdDB: -20, MarginDB: 1, MaxTeam: 30}
}

// BuildSchedule partitions sensors into beacon slots. Sensors at or above
// the threshold get individual slots. Sensors below it are grouped — only
// with others sharing their Correlate key, so the pooled MSBs mean
// something — into the smallest teams whose pooled power clears
// threshold+margin. Sensors that cannot be served even by a MaxTeam-sized
// team of their correlation group are returned in unreachable.
func BuildSchedule(sensors []SensorLink, cfg ScheduleConfig) (schedule []ScheduleEntry, unreachable []int, err error) {
	if cfg.MaxTeam < 1 {
		return nil, nil, fmt.Errorf("mac: MaxTeam %d < 1", cfg.MaxTeam)
	}
	seen := map[int]bool{}
	for _, s := range sensors {
		if seen[s.ID] {
			return nil, nil, fmt.Errorf("mac: duplicate sensor id %d", s.ID)
		}
		seen[s.ID] = true
	}

	// Near sensors: individual slots.
	groups := map[int][]SensorLink{}
	for _, s := range sensors {
		if s.SNRdB >= cfg.ThresholdDB+cfg.MarginDB {
			schedule = append(schedule, ScheduleEntry{Team: []int{s.ID}, PooledSNRdB: s.SNRdB})
			continue
		}
		groups[s.Correlate] = append(groups[s.Correlate], s)
	}

	// Far sensors: greedy team formation per correlation group, strongest
	// first so each team needs as few members as possible.
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		members := groups[k]
		sort.Slice(members, func(i, j int) bool {
			if members[i].SNRdB != members[j].SNRdB {
				return members[i].SNRdB > members[j].SNRdB
			}
			return members[i].ID < members[j].ID
		})
		for len(members) > 0 {
			var team []int
			pooled := 0.0 // linear power sum
			size := 0
			for size < len(members) && size < cfg.MaxTeam {
				pooled += math.Pow(10, members[size].SNRdB/10)
				team = append(team, members[size].ID)
				size++
				if 10*math.Log10(pooled) >= cfg.ThresholdDB+cfg.MarginDB {
					break
				}
			}
			pooledDB := 10 * math.Log10(pooled)
			if pooledDB < cfg.ThresholdDB+cfg.MarginDB {
				// Even the whole remaining group (up to MaxTeam) is too
				// weak: everything left in this group is unreachable.
				for _, s := range members {
					unreachable = append(unreachable, s.ID)
				}
				break
			}
			schedule = append(schedule, ScheduleEntry{Team: team, PooledSNRdB: pooledDB})
			members = members[size:]
		}
	}
	return schedule, unreachable, nil
}
