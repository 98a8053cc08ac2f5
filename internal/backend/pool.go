package backend

import (
	"sync"

	"choir/internal/lora"
	"choir/internal/obs"
)

// Instance reuse across checkouts; recording is gated on obs.Enable.
var (
	mPoolGets   = obs.NewCounter("backend.pool.gets")
	mPoolHits   = obs.NewCounter("backend.pool.hits")
	mPoolMisses = obs.NewCounter("backend.pool.misses")
)

// Pool amortizes backend construction (FFT plans, chirp tables, scratch)
// across the trials of a parallel sweep: a Backend is not safe for
// concurrent use, so the pool hands each goroutine exclusive ownership of
// one instance between Get and Put. Which instance a caller receives cannot
// change a result: a Backend is a pure function of its construction
// parameters and its decode inputs.
type Pool struct {
	name string
	p    lora.Params
	mu   sync.Mutex
	free []Backend
}

// NewPool validates (name, p) by building the first backend and returns a
// pool that clones it on demand.
func NewPool(name string, p lora.Params) (*Pool, error) {
	b, err := New(name, p)
	if err != nil {
		return nil, err
	}
	return &Pool{name: name, p: p, free: []Backend{b}}, nil
}

// Get checks a backend out of the pool. The caller owns it until Put.
func (pl *Pool) Get() Backend {
	pl.mu.Lock()
	var b Backend
	if n := len(pl.free); n > 0 {
		b, pl.free = pl.free[n-1], pl.free[:n-1]
	}
	pl.mu.Unlock()
	mPoolGets.Inc()
	if b == nil {
		mPoolMisses.Inc()
		// (name, p) was validated by NewPool; construction cannot fail.
		b = MustNew(pl.name, pl.p)
	} else {
		mPoolHits.Inc()
	}
	return b
}

// Put returns a backend to the pool for reuse.
func (pl *Pool) Put(b Backend) {
	if b == nil {
		return
	}
	pl.mu.Lock()
	pl.free = append(pl.free, b)
	pl.mu.Unlock()
}
