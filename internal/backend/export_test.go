package backend

import "choir/internal/lora"

// MustNew is New that panics on error, for the tests' valid names and PHYs.
func MustNew(name string, p lora.Params) Backend {
	b, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return b
}
