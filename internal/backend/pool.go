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
// across the frames and trials of one backend, whatever PHY each arrives
// at. An instance is built for one PHY, so the pool keeps a free list per
// PHY; and a Backend is not safe for concurrent use, so the pool hands each
// goroutine exclusive ownership of one instance between Get and Put. Which
// instance a caller receives cannot change a result: a Backend is a pure
// function of its construction parameters and its decode inputs.
type Pool struct {
	name string
	mu   sync.Mutex
	free map[lora.Params][]Backend
}

// NewPool returns an empty pool of the named backend. It fails, with New's
// error, only on a name that is not in the table; a PHY is checked by the
// Get that first builds for it.
func NewPool(name string) (*Pool, error) {
	if _, ok := factories[name]; !ok {
		return nil, errUnknown(name)
	}
	return &Pool{name: name, free: map[lora.Params][]Backend{}}, nil
}

// Get checks out an instance built for p, building one when p's free list
// is empty; the error is New's for an invalid p. The caller owns the
// instance until Put(p, b).
func (pl *Pool) Get(p lora.Params) (Backend, error) {
	pl.mu.Lock()
	var b Backend
	if free := pl.free[p]; len(free) > 0 {
		b, pl.free[p] = free[len(free)-1], free[:len(free)-1]
	}
	pl.mu.Unlock()
	mPoolGets.Inc()
	if b != nil {
		mPoolHits.Inc()
		return b, nil
	}
	mPoolMisses.Inc()
	return New(pl.name, p)
}

// Put returns an instance that Get(p) handed out to p's free list.
func (pl *Pool) Put(p lora.Params, b Backend) {
	if b == nil {
		return
	}
	pl.mu.Lock()
	pl.free[p] = append(pl.free[p], b)
	pl.mu.Unlock()
}
