package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"choir/internal/mac"
)

// bandsOf splits c into w bands as the event driver's Start does.
func bandsOf(c *core, w int) []*band {
	bands := make([]*band, w)
	for k := range bands {
		bands[k] = c.newBand(k*c.gwRows/w, (k+1)*c.gwRows/w, nil)
	}
	return bands
}

// ownersOf returns the indexes of the bands whose node range holds node i
// and that own it.
func ownersOf(bands []*band, i int32) []int {
	var owners []int
	for k, b := range bands {
		if i >= b.lo && i < b.hi && b.owns(i) {
			owners = append(owners, k)
		}
	}
	return owners
}

// TestBandsPartitionNodes holds newBand and owns to the geometry: at every
// width from one band to one per gateway row, each node lies in exactly one
// band's node range and is owned there, and that band's rows hold the row
// of the gateway resolveChannel attaches the node to. The layouts include
// node rows that straddle band edges, clamped gateway grids (a count short
// of a full grid), fewer node rows than gateway rows, a one-node city and a
// city square much smaller than its default.
func TestBandsPartitionNodes(t *testing.T) {
	for _, tc := range []struct {
		nodes, gateways int
		sideM           float64
	}{
		{2000, 16, 0}, {600, 3, 0}, {1000, 7, 0}, {10_007, 64, 0}, {999, 100, 0},
		{4096, 16, 0}, {3, 16, 0}, {1, 4, 0}, {50, 9, 37.5}, {20_000, 16, 1e-3},
	} {
		c := newCore(Config{
			Scheme: mac.SchemeChoir, Nodes: tc.nodes, Gateways: tc.gateways, Slots: 1,
			SideM: tc.sideM, Receiver: mac.AlohaReceiver{}, Seed: 5,
		})
		split := 0
		for w := 1; w <= c.gwRows; w++ {
			bands := bandsOf(c, w)
			rowBands := map[int]map[int]bool{}
			for i := range c.nodes {
				gw, _, _ := c.gatewayOf(c.posOf(int32(i)))
				owners := ownersOf(bands, int32(i))
				if len(owners) != 1 {
					t.Fatalf("%+v, %d bands: node %d has owners %v, want exactly one", tc, w, i, owners)
				}
				b := bands[owners[0]]
				if row := int(gw) / c.gwCols; row < b.rowLo || row >= b.rowHi {
					t.Fatalf("%+v, %d bands: node %d attaches to gateway %d in row %d, owned by the band of rows [%d, %d)",
						tc, w, i, gw, row, b.rowLo, b.rowHi)
				}
				if rowBands[i/c.grid] == nil {
					rowBands[i/c.grid] = map[int]bool{}
				}
				rowBands[i/c.grid][owners[0]] = true
			}
			for _, seen := range rowBands {
				if len(seen) > 1 {
					split++
				}
			}
		}
		t.Logf("%+v: %d gateway rows, %d node rows split between bands over all widths", tc, c.gwRows, split)
	}
}

// TestMetricsAddCoversEveryTotal holds Metrics.add, the bands' join, to
// the struct: every total is an int64 or an array of them and the
// configuration echoes are not, so adding a Metrics of all ones to itself
// must double every int64 and leave every echo alone. A total added to
// Metrics and not to add fails here.
func TestMetricsAddCoversEveryTotal(t *testing.T) {
	var m Metrics
	each := func(do func(name string, v reflect.Value)) {
		v := reflect.ValueOf(&m).Elem()
		for f := 0; f < v.NumField(); f++ {
			name, fv := v.Type().Field(f).Name, v.Field(f)
			if fv.Kind() != reflect.Array {
				do(name, fv)
				continue
			}
			for i := 0; i < fv.Len(); i++ {
				do(fmt.Sprintf("%s[%d]", name, i), fv.Index(i))
			}
		}
	}
	each(func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
		case reflect.Float64:
			v.SetFloat(1)
		default:
			t.Fatalf("Metrics.%s is a %v: add does not know how to join it", name, v.Kind())
		}
	})
	o := m
	m.add(&o)
	each(func(name string, v reflect.Value) {
		want := 1.0
		if v.Kind() == reflect.Int64 {
			want = 2
		}
		if got := v.Convert(reflect.TypeOf(0.0)).Float(); got != want {
			t.Errorf("Metrics.%s reads %g after add, want %g", name, got, want)
		}
	})
}

// panicReceiver panics on its first call, from whichever band makes it.
type panicReceiver struct{ mac.AlohaReceiver }

func (panicReceiver) PerTxProb(int) float64 { panic("receiver fault") }

// TestBandPanicReachesCaller pins a band's panic: it stops the other bands
// and is raised again on the goroutine that called Run once every band is
// back, and no helper outlives the run.
func TestBandPanicReachesCaller(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := busyCity(DriverEvent)
	cfg.Receiver = panicReceiver{}
	func() {
		defer func() {
			if r := recover(); r != "receiver fault" {
				t.Fatalf("Run raised %v, want the receiver's panic", r)
			}
		}()
		Run(context.Background(), cfg)
		t.Fatal("Run returned past a panicking receiver")
	}()
	waitGoroutines(t, baseline)
}
